"""Maximized likelihoods against grid-search oracles, and the statistics
built on top of them."""

import itertools
import math

import numpy as np
import pytest

from markovorder import (
    MarkovModel,
    MixtureKernel,
    build_counts,
    delta_running_max,
    kl_compensator,
    log_true_conditional_likelihood,
    martingale_path,
    max_loglik,
    mixture_kernel,
    random_model,
    sample_paths,
)
from markovorder.diagnostics import hellinger_path_distance
from markovorder.likelihood import lil_from_logliks, max_loglik_vector
from markovorder.model import lift_kernel
from markovorder.rng import derive_seed


def grid_loglik_oracle(symbols, r, m=2, step=1e-3):
    """Maximize the explicit product likelihood over per-row probability
    grids; independent of the closed form under test.  Binary alphabet."""
    assert m == 2
    n = len(symbols)
    grid = np.arange(0.0, 1.0 + step / 2, step)
    with np.errstate(divide="ignore"):
        log_p = np.log(grid)
        log_q = np.log(1.0 - grid)
    total = 0.0
    for code in range(2**r):
        n0 = n1 = 0
        for i in range(r, n):
            ctx = 0
            for s in symbols[i - r : i]:
                ctx = ctx * 2 + int(s)
            if ctx == code:
                if symbols[i]:
                    n1 += 1
                else:
                    n0 += 1
        if n0 + n1 == 0:
            continue
        row = np.zeros_like(grid)
        if n0:
            row = row + n0 * log_q
        if n1:
            row = row + n1 * log_p
        total += row.max()
    return total


PATH_0010 = np.array([0, 0, 1, 0])


class TestMaxLoglik:
    def test_constant_path_is_zero(self):
        c = build_counts(np.zeros(20, dtype=int), 3, m=2)
        for r in range(4):
            assert max_loglik(c, r) == 0.0

    def test_spec_value_r0(self):
        c = build_counts(PATH_0010, 1, m=2)
        expected = 3 * math.log(3 / 4) + math.log(1 / 4)
        assert max_loglik(c, 0) == pytest.approx(expected, abs=1e-12)
        assert max_loglik(c, 0) == pytest.approx(-2.249341, abs=5e-7)

    def test_matches_fine_grid_oracle_r0(self):
        c = build_counts(PATH_0010, 1, m=2)
        oracle = grid_loglik_oracle(PATH_0010, 0, step=1e-4)
        assert max_loglik(c, 0) == pytest.approx(oracle, abs=1e-6)

    def test_matches_grid_oracle_exhaustive_short_paths(self):
        # lengths below the acceptance sweep, same 1e-3 grid and 1e-4 slack
        for n in range(4, 8):
            for bits in itertools.product((0, 1), repeat=n):
                symbols = np.array(bits)
                c = build_counts(symbols, 2, m=2)
                for r in (0, 1, 2):
                    oracle = grid_loglik_oracle(symbols, r)
                    assert abs(max_loglik(c, r) - oracle) <= 1e-4

    def test_alternating_path_r1_is_zero(self):
        c = build_counts(np.array([0, 1, 0, 1]), 1, m=2)
        assert max_loglik(c, 1) == 0.0

    def test_monotone_in_r_exhaustive_short_paths(self):
        for n in range(2, 9):
            cap = min(3, n - 1)
            for bits in itertools.product((0, 1), repeat=n):
                c = build_counts(np.array(bits), cap, m=2)
                values = [max_loglik(c, r) for r in range(cap + 1)]
                for a, b in zip(values, values[1:]):
                    assert b >= a - 1e-12
                assert all(v <= 0.0 for v in values)

    def test_order_at_or_above_length_rejected(self):
        c = build_counts(PATH_0010, 3, m=2)
        with pytest.raises(ValueError):
            max_loglik(c, 4)


class TestLrStatistic:
    """The likelihood-ratio gap ``max_loglik(r) - max_loglik(r_star)``."""

    def test_constant_path_zero_all_orders(self):
        c = build_counts(np.zeros(16, dtype=int), 3, m=2)
        for r in range(4):
            assert max_loglik(c, r) - max_loglik(c, 0) == 0.0

    def test_spec_path_matches_count_formula(self):
        c = build_counts(PATH_0010, 1, m=2)
        # depth 1 counts: (0->0)=1, (0->1)=1 of N(0)=2; (1->0)=1 of N(1)=1
        ml1 = 2 * math.log(1 / 2)
        ml0 = 3 * math.log(3 / 4) + math.log(1 / 4)
        assert max_loglik(c, 1) - max_loglik(c, 0) == pytest.approx(ml1 - ml0, abs=1e-12)

    def test_nonnegative_on_random_paths(self):
        # the parameter classes are nested
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            symbols = rng.integers(0, 2, n)
            c = build_counts(symbols, 3, m=2)
            assert max_loglik(c, 3) - max_loglik(c, 1) >= 0.0


class TestLilFromLogliks:
    @staticmethod
    def lil(c, r_star, kappa_n, m):
        return lil_from_logliks(max_loglik_vector(c, kappa_n)[r_star:], r_star, m)

    def test_no_order_in_range_gives_zero(self):
        c = build_counts(PATH_0010, 2, m=2)
        assert self.lil(c, 1, 2, 2) == 0.0

    def test_constant_path(self):
        c = build_counts(np.zeros(32, dtype=int), 3, m=2)
        assert self.lil(c, 0, 4, 2) == 0.0

    def test_matches_bruteforce_per_order(self):
        rng = np.random.default_rng(64)
        symbols = rng.integers(0, 2, 64)
        c = build_counts(symbols, 3, m=2)
        stat = self.lil(c, 0, 4, 2)
        oracle = max(
            (max_loglik(c, r) - max_loglik(c, 0)) / 2**r for r in (1, 2, 3)
        )
        assert stat == pytest.approx(oracle, abs=1e-12)

    def test_cutoff_needs_depth(self):
        c = build_counts(PATH_0010, 1, m=2)
        with pytest.raises(ValueError):
            self.lil(c, 0, 3, 2)


class TestDeltaStatistic:
    """The overshoot at the full path: ``delta_running_max`` over [n, n]."""

    def test_deterministic_chain_zero(self):
        model = MarkovModel([[0.0, 1.0], [1.0, 0.0]], initial=[1.0, 0.0])
        path = sample_paths(model, 12, 1)[0]
        assert delta_running_max(model, path, 1, 12, 12) == 0.0

    def test_mle_coincides_with_truth(self):
        # empirical frequency 1/4 equals the true Bernoulli parameter, so the
        # overshoot vanishes exactly
        model = MarkovModel([[0.75, 0.25]])
        assert delta_running_max(model, PATH_0010, 0, 4, 4) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_sampled_instances(self):
        for i in range(1000):
            model = random_model(2, 1, seed=derive_seed(50, i))
            path = sample_paths(model, 24, derive_seed(51, i))[0]
            assert delta_running_max(model, path, 2, 24, 24) >= 0.0

    def test_impossible_path_rejected(self):
        model = MarkovModel([[1.0, 0.0], [1.0, 0.0]], initial=[1.0, 0.0])
        path = np.array([0, 0, 1, 0])
        with pytest.raises(ValueError):
            delta_running_max(model, path, 1, 4, 4)

    def test_running_max_matches_endpoint_scan(self):
        model = random_model(2, 1, seed=7)
        path = sample_paths(model, 40, 8)[0]
        by_scan = -np.inf
        for i in range(20, 41):
            c = build_counts(path[:i], 2, m=2)
            ll = log_true_conditional_likelihood(model, path[:i], 2)
            by_scan = max(by_scan, max_loglik(c, 2) - ll)
        assert delta_running_max(model, path, 2, 20, 40) == pytest.approx(
            max(by_scan, 0.0), abs=1e-9
        )


class TestMixtureKernel:
    def test_idempotent_on_truth(self):
        truth = random_model(2, 1, seed=2)
        mix = mixture_kernel(truth, truth, 1)
        assert np.abs(mix.table - truth.kernel).max() < 1e-15

    def test_deterministic_vs_uniform_rows(self):
        det = MarkovModel([[1.0, 0.0], [0.0, 1.0]])
        uni = MarkovModel([[0.5, 0.5], [0.5, 0.5]])
        mix = mixture_kernel(det, uni, 1)
        assert mix.table[0].tolist() == [0.75, 0.25]
        assert mix.table[1].tolist() == [0.25, 0.75]

    def test_rows_sum_to_one_random_pairs(self):
        for i in range(100):
            a = random_model(2, 1, seed=derive_seed(60, i))
            b = random_model(2, 2, seed=derive_seed(61, i))
            mix = mixture_kernel(a, b, 3)
            assert np.abs(mix.table.sum(axis=1) - 1.0).max() < 1e-12

    def test_entry_floor_against_truth(self):
        truth = random_model(3, 1, seed=9)
        cand = random_model(3, 2, seed=10)
        mix = mixture_kernel(cand, truth, 2)
        lifted = lift_kernel(truth.kernel, 3, 2)
        floor = lifted[lifted > 0].min() / 2
        assert np.all(mix.table[lifted > 0] >= floor - 1e-15)

    def test_order_below_components_rejected(self):
        a = random_model(2, 2, seed=1)
        b = random_model(2, 1, seed=2)
        with pytest.raises(ValueError):
            mixture_kernel(a, b, 1)

    def test_unnormalized_table_rejected(self):
        with pytest.raises(ValueError):
            MixtureKernel(1, 2, np.array([[0.6, 0.6], [0.5, 0.5]]))


class TestKlCompensator:
    def test_truth_mixture_gives_zero(self):
        truth = random_model(2, 1, seed=3)
        path = sample_paths(truth, 50, 4)[0]
        mix = mixture_kernel(truth, truth, 1)
        assert kl_compensator(truth, mix, path, 50) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_and_dominates_hellinger(self):
        for i in range(1000):
            truth = random_model(2, 1, seed=derive_seed(70, i))
            cand = random_model(2, 1, seed=derive_seed(71, i))
            path = sample_paths(truth, 30, derive_seed(72, i))[0]
            mix = mixture_kernel(cand, truth, 1)
            mix_truth = mixture_kernel(truth, truth, 1)
            d = kl_compensator(truth, mix, path, 30)
            h = hellinger_path_distance(build_counts(path, 1, m=2), mix, mix_truth)
            assert d >= 0.0
            assert d >= h - 1e-10


class TestMartingalePath:
    def test_truth_mixture_all_zero(self):
        truth = random_model(2, 1, seed=5)
        path = sample_paths(truth, 40, 6)[0]
        mix = mixture_kernel(truth, truth, 1)
        assert np.abs(martingale_path(truth, mix, path)).max() < 1e-12

    def test_decomposition_at_every_index(self):
        truth = random_model(2, 1, seed=13)
        cand = random_model(2, 2, seed=14)
        path = sample_paths(truth, 30, 15)[0]
        r = 2
        mix = mixture_kernel(cand, truth, r)
        m_series = martingale_path(truth, mix, path)
        assert np.all(m_series[: r + 1] == 0.0)
        lifted = lift_kernel(truth.kernel, 2, r)
        for i in range(r + 1, 31):
            log_sum = 0.0
            for l in range(r, i):
                ctx = int(path[l - r] * 2 + path[l - 1]) if r == 2 else 0
                log_sum += math.log(
                    mix.table[ctx, path[l]] / lifted[ctx, path[l]]
                )
            d = kl_compensator(truth, mix, path[:i], i)
            assert m_series[i] == pytest.approx(log_sum + d, abs=1e-9)

    def test_zero_mean_monte_carlo(self):
        # batch-free check of the zero-mean property at modest size: the
        # heavy 1e5-replication version runs in the diagnostics suite
        truth = MarkovModel([[0.7, 0.3], [0.2, 0.8]])
        cand = MarkovModel([[0.5, 0.5], [0.4, 0.6]])
        mix = mixture_kernel(cand, truth, 1)
        paths = sample_paths(truth, 48, derive_seed(80, np.arange(4000)))
        finals = np.array([martingale_path(truth, mix, path)[-1] for path in paths])
        sem = finals.std() / math.sqrt(len(finals))
        assert abs(finals.mean()) <= 4 * sem
