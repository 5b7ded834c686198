"""Typicality, distances, norms, brackets, bounds, and the MC verifiers."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from markovorder import (
    MarkovModel,
    MixtureKernel,
    build_counts,
    delta_running_max,
    martingale_path,
    mixture_kernel,
    random_model,
    sample_paths,
)
from markovorder.diagnostics import (
    BoundParams,
    bernstein_mc_check,
    bernstein_norm,
    bernstein_tail_bound,
    bracket_battery,
    bracket_count_check,
    bracket_grid,
    deviation_tail_mc,
    entropy_bound,
    event_F,
    hellinger_path_distance,
    hellinger_sandwich_battery,
    hellinger_stationary_distance,
    lil_trajectory,
    norm_bound_battery,
    phi,
    typicality_check,
    typicality_trend,
)
from markovorder._contexts import context_codes
from markovorder.diagnostics import core as core_mod
from markovorder.diagnostics import mc as mc_mod
from markovorder.model import stationary_block_law, step_lanes
from markovorder.penalty import SubLogCutoff
from markovorder.rng import derive_seed

TWO_STATE = MarkovModel([[0.7, 0.3], [0.2, 0.8]])


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_one(self):
        assert phi(1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_small_argument_stability(self):
        for x in (1e-5, -1e-5, 1e-9, 1e-12):
            ref = x * x / 2 + x**3 / 6 + x**4 / 24
            assert phi(x) == pytest.approx(ref, rel=1e-10)

    def test_upper_bound_by_squared_expm1(self):
        xs = np.linspace(0.0, 5.0, 200)
        assert np.all(phi(xs) <= (np.expm1(xs) ** 2) / 2.0 + 1e-15)

    def test_vector_input(self):
        out = phi(np.array([0.0, 1.0, -0.5]))
        assert out.shape == (3,)
        assert np.all(out >= 0.0)


class TestTypicality:
    def test_exact_frequencies_at_depth_one(self):
        # stationary law (2/3, 1/3); the path's depth-1 windows hit it exactly
        truth = MarkovModel([[0.8, 0.2], [0.4, 0.6]])
        counts = build_counts(np.array([0, 0, 1, 0]), 2, m=2)
        by_depth = [counts.context_counts(d) for d in range(2)]
        devs = core_mod.typicality_deviations(truth, by_depth, counts.n)
        assert devs[1] == pytest.approx(0.0, abs=1e-12)

    def test_depth_zero_always_exact(self):
        path = sample_paths(TWO_STATE, 100, 1)[0]
        counts = build_counts(path, 1, m=2)
        devs = core_mod.typicality_deviations(TWO_STATE, [counts.context_counts(0)], counts.n)
        assert devs[0] == 0.0
        assert typicality_check(TWO_STATE, counts, 0.5, 1)

    def test_monte_carlo_holds_rate(self):
        holds = 0
        for i in range(100):
            path = sample_paths(TWO_STATE, 10**5, derive_seed(7, i))[0]
            counts = build_counts(path, 4, m=2)
            holds += typicality_check(TWO_STATE, counts, 0.5, 4)
        assert holds >= 99

    def test_eta_out_of_range(self):
        counts = build_counts(sample_paths(TWO_STATE, 64, 1)[0], 2, m=2)
        with pytest.raises(ValueError):
            typicality_check(TWO_STATE, counts, 1.5, 2)


class TestEventF:
    def test_monotone_in_eta(self):
        for i in range(25):
            path = sample_paths(TWO_STATE, 512, derive_seed(21, i))[0]
            if event_F(TWO_STATE, path, 0.3, 3):
                assert event_F(TWO_STATE, path, 0.6, 3)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            event_F(TWO_STATE, np.zeros(33, dtype=int), 0.5, 2)

    def test_rho_bound_enforced(self):
        # path of length 64 has half-length 32, so rho must stay at or below 16
        with pytest.raises(ValueError):
            event_F(TWO_STATE, np.zeros(64, dtype=int), 0.5, 17)

    def test_frequency_rises_with_n(self):
        count_small = sum(
            event_F(TWO_STATE, sample_paths(TWO_STATE, 2**10, derive_seed(5, i))[0], 0.5, 3)
            for i in range(40)
        )
        count_large = sum(
            event_F(TWO_STATE, sample_paths(TWO_STATE, 2**14, derive_seed(5, i))[0], 0.5, 3)
            for i in range(40)
        )
        assert count_large >= count_small

    def test_typicality_trend_report(self):
        report = typicality_trend(TWO_STATE, 0.5, 3, 2**10, 2**14, 20, seed=5)
        assert report.improving
        assert 0 <= report.holds_small <= 20 and report.holds_large <= 20

    def test_typicality_trend_matches_event_per_path(self, monkeypatch):
        report = typicality_trend(TWO_STATE, 0.3, 3, 64, 512, 30, seed=9)
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", 8 * 512 * 7)  # 7 paths per chunk
        assert typicality_trend(TWO_STATE, 0.3, 3, 64, 512, 30, seed=9) == report
        small = large = 0
        for i in range(30):
            path = sample_paths(TWO_STATE, 512, derive_seed(9, i))[0]
            small += typicality_check(TWO_STATE, build_counts(path[:64], 3, 2), 0.3, 3)
            large += typicality_check(TWO_STATE, build_counts(path, 3, 2), 0.3, 3)
        assert (report.holds_small, report.holds_large) == (small, large)
        assert 0 < small < 30  # the comparison is not between two constants

    @pytest.mark.parametrize("n_small, n_large", [(2**14, 2**10), (1024, 1024)])
    def test_typicality_trend_needs_growing_paths(self, n_small, n_large):
        with pytest.raises(ValueError, match="n_small"):
            typicality_trend(TWO_STATE, 0.5, 3, n_small, n_large, 4, seed=5)


class TestHellingerDistances:
    def test_identity_zero(self):
        mix = mixture_kernel(TWO_STATE, TWO_STATE, 1)
        counts = build_counts(sample_paths(TWO_STATE, 100, 3)[0], 1, m=2)
        assert hellinger_path_distance(counts, mix, mix) == 0.0
        assert hellinger_stationary_distance(TWO_STATE, mix, mix) == 0.0

    def test_symmetry(self):
        counts = build_counts(sample_paths(TWO_STATE, 200, 4)[0], 2, m=2)
        for i in range(100):
            a = mixture_kernel(random_model(2, 2, derive_seed(30, i)), TWO_STATE, 2)
            b = mixture_kernel(random_model(2, 2, derive_seed(31, i)), TWO_STATE, 2)
            assert hellinger_path_distance(counts, a, b) == pytest.approx(
                hellinger_path_distance(counts, b, a), rel=1e-12
            )
            assert hellinger_stationary_distance(TWO_STATE, a, b) == pytest.approx(
                hellinger_stationary_distance(TWO_STATE, b, a), rel=1e-12
            )

    def test_single_context_toy_value(self):
        counts = build_counts(np.zeros(4, dtype=int), 1, m=2)  # N(0) = 3 at depth 1
        a = MixtureKernel(1, 2, np.array([[1.0, 0.0], [1.0, 0.0]]))
        b = MixtureKernel(1, 2, np.array([[0.5, 0.5], [1.0, 0.0]]))
        value = hellinger_path_distance(counts, a, b)
        expected = 3 * ((1 - math.sqrt(0.5)) ** 2 + 0.5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(3 * (2 - math.sqrt(2)), abs=1e-12)

    def test_positive_when_kernels_differ_on_weighted_contexts(self):
        a = mixture_kernel(MarkovModel([[0.6, 0.4], [0.3, 0.7]]), TWO_STATE, 1)
        b = mixture_kernel(MarkovModel([[0.5, 0.5], [0.3, 0.7]]), TWO_STATE, 1)
        counts = build_counts(sample_paths(TWO_STATE, 64, 2)[0], 1, m=2)
        assert hellinger_path_distance(counts, a, b) > 0.0
        assert hellinger_stationary_distance(TWO_STATE, a, b) > 0.0

    def test_stationary_distance_bounded_by_two(self):
        for i in range(50):
            truth = random_model(2, 1, derive_seed(33, i))
            a = mixture_kernel(random_model(2, 2, derive_seed(34, i)), truth, 2)
            b = mixture_kernel(random_model(2, 2, derive_seed(35, i)), truth, 2)
            assert hellinger_stationary_distance(truth, a, b) <= 2.0

    def test_order_mismatch_rejected(self):
        a = mixture_kernel(TWO_STATE, TWO_STATE, 1)
        b = mixture_kernel(TWO_STATE, TWO_STATE, 2)
        counts = build_counts(sample_paths(TWO_STATE, 50, 6)[0], 2, m=2)
        with pytest.raises(ValueError):
            hellinger_path_distance(counts, a, b)


class TestBernsteinNorm:
    def test_truth_gives_zero(self):
        mix = mixture_kernel(TWO_STATE, TWO_STATE, 1)
        path = sample_paths(TWO_STATE, 64, 8)[0]
        assert bernstein_norm(TWO_STATE, mix, path, 1, 64) == 0.0

    def test_single_step_toy(self):
        truth = MarkovModel([[0.5, 0.5]])  # iid uniform, order 0
        mix = MixtureKernel(0, 2, np.array([[0.75, 0.25]]))
        path = np.array([0, 1])
        value = bernstein_norm(truth, mix, path, 0, 1)
        expected = 8 * (
            0.5 * phi(0.5 * abs(math.log(0.75 / 0.5)))
            + 0.5 * phi(0.5 * abs(math.log(0.25 / 0.5)))
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_dominated_by_hellinger_battery(self):
        report = norm_bound_battery(200, seed=99)
        assert report.passed
        assert report.violations == 0
        assert report.worst_ratio <= 1.0 + 1e-9


class TestSandwichBattery:
    def test_no_violations_on_event(self):
        report = hellinger_sandwich_battery(60, eta=0.5, n=256, rho=3, seed=17)
        assert report.instances == 60
        assert report.violations == 0
        assert report.passed


class TestBrackets:
    def test_grid_aligned_kernel_collapses(self):
        # weight 1 (empty context) and a one-hot row keep every square root
        # exact in binary floating point: z = (16, 0), so floor equals ceil
        truth = MarkovModel([[0.5, 0.5]])  # order 0
        kernel = np.array([[1.0, 0.0]])
        lower, upper = bracket_grid(truth, kernel, beta=0.0625)
        assert np.array_equal(lower, kernel)
        assert np.array_equal(upper, kernel)

    def test_containment_and_gap_on_random_kernels(self):
        truth = TWO_STATE
        weights = stationary_block_law(truth, 1)
        for i in range(100):
            kernel = random_model(2, 1, derive_seed(40, i)).kernel
            lower, upper = bracket_grid(truth, kernel, beta=0.07)
            assert np.all(lower <= kernel + 1e-12)
            assert np.all(kernel <= upper + 1e-12)
            gaps = np.sqrt(upper) - np.sqrt(lower)
            cap = 0.07 / np.sqrt(weights)[:, None]
            assert np.all(gaps <= cap + 1e-12)

    def test_pathwise_envelopes(self):
        report = bracket_battery(TWO_STATE, 20, 10, 128, beta=0.05, r=1, seed=3)
        assert report.passed

    def test_count_stays_below_entropy_bound(self):
        report = bracket_count_check(
            TWO_STATE, r=1, sigma=0.01, n=64, samples=1000, seed=12
        )
        assert report.passed
        assert report.distinct >= 1


class TestClosedFormBounds:
    def test_entropy_bound_zero_at_saturating_delta(self):
        params = BoundParams(0.5)
        n, r, sigma = 64, 1, 0.02
        delta = params.C5 * math.sqrt((2 * n - r) * sigma)
        assert entropy_bound(n, r, sigma, delta, 2, params.C5) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_bound_decreasing_in_delta(self):
        params = BoundParams(0.5)
        values = [
            entropy_bound(64, 1, 0.02, d, 2, params.C5) for d in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_entropy_bound_range_check(self):
        params = BoundParams(0.5)
        limit = params.c * math.sqrt((2 * 64 - 1) * 0.02)
        with pytest.raises(ValueError):
            entropy_bound(64, 1, 0.02, limit * 1.01, 2, params.C5, c=params.c)
        entropy_bound(64, 1, 0.02, limit * 0.99, 2, params.C5, c=params.c)

    def test_bernstein_tail_values(self):
        assert bernstein_tail_bound(2.0, 1.0, 2.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
        small = [bernstein_tail_bound(a, 2.0, 1.0) for a in (0.01, 0.001, 0.0001)]
        assert small[-1] > 0.999  # limit 1 as alpha -> 0+
        grid = [bernstein_tail_bound(a, 2.0, 1.0) for a in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(grid, grid[1:]))
        r_grid = [bernstein_tail_bound(1.0, 2.0, r) for r in (0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(r_grid, r_grid[1:]))

    def test_bound_params_derived_constants(self):
        params = BoundParams(0.5)
        assert params.C3 == pytest.approx(12.0)
        assert params.C4 == pytest.approx(2.0)
        assert params.c == pytest.approx(math.sqrt(48.0))
        assert params.C5 == pytest.approx(
            (8 * math.sqrt(2.0) + math.sqrt(48.0)) * math.sqrt(2 * math.pi * math.e)
        )

    def test_bound_params_eta_validation(self):
        with pytest.raises(ValueError):
            BoundParams(1.0)


class TestBatchSteps:
    @pytest.mark.parametrize("order, depth", [(0, 0), (0, 2), (2, 1), (2, 4)])
    def test_lanes_match_sample_path_and_contexts(self, order, depth):
        truth = random_model(3, order, seed=17)
        n, seed = 300, 41
        seeds = derive_seed(seed, np.arange(7))
        syms, ctxs = [], []
        for i, ctx, sym in step_lanes(truth, n, seeds, depth):
            assert i == len(syms) + 1
            syms.append(sym.copy())
            ctxs.append(ctx.copy())
        paths = np.stack(syms, axis=1)
        ctxs = np.stack(ctxs, axis=1)
        depth = max(depth, order)
        for lane in range(7):
            path = sample_paths(truth, n, derive_seed(seed, lane))[0]
            assert np.array_equal(paths[lane], path)
            for i in range(1, n + 1):
                window = path[max(i - 1 - depth, 0) : i - 1]
                code = int(np.dot(window, 3 ** np.arange(len(window))[::-1]))
                assert ctxs[lane, i - 1] == code


class TestBernsteinMc:
    CAND = MarkovModel([[0.55, 0.45], [0.35, 0.65]])

    def test_truth_candidate_never_exceeds(self):
        report = bernstein_mc_check(
            TWO_STATE, TWO_STATE, 1, 64, [0.1, 1.0], 10.0, 10**4, seed=5
        )
        for row in report.rows:
            assert row.empirical == 0.0
            assert row.passed

    def test_bound_column_matches_closed_form(self):
        report = bernstein_mc_check(
            TWO_STATE, self.CAND, 1, 64, [0.5, 1.0, 2.0], 20.0, 10**4, seed=6
        )
        for row in report.rows:
            assert row.bound == pytest.approx(
                bernstein_tail_bound(row.alpha, 2.0, 20.0), abs=1e-15
            )

    def test_all_pass_at_moderate_size(self):
        report = bernstein_mc_check(
            TWO_STATE, self.CAND, 1, 128, np.linspace(1.0, 8.0, 6), 30.0, 2 * 10**4, seed=7
        )
        assert report.all_passed
        assert abs(report.mean_final) <= 5 * report.sd_final / math.sqrt(report.replications)

    def test_matches_per_lane_reference(self):
        # each lane against martingale_path and bernstein_norm on its sampled path
        n, r, reps, seed, R = 24, 1, 10**4, 11, 0.63
        alphas = [0.25, 0.5, 1.0, 2.0]
        report = bernstein_mc_check(TWO_STATE, self.CAND, r, n, alphas, R, reps, seed)
        mix = mixture_kernel(self.CAND, TWO_STATE, r)
        paths = sample_paths(TWO_STATE, n, derive_seed(seed, np.arange(reps)))
        finals, maxima, norms = [], [], []
        for path in paths:
            m_path = martingale_path(TWO_STATE, mix, path)  # M_i = 0 for i <= r
            finals.append(m_path[-1])
            maxima.append(m_path.max())
            norms.append(bernstein_norm(TWO_STATE, mix, path, r, n))
        maxima, norms = np.array(maxima), np.array(norms)
        # the cap binds on some lanes, and no lane's norm sits at it
        assert 0 < np.count_nonzero(norms > R) < reps
        assert np.abs(norms - R).min() > 1e-6
        assert report.mean_final == float(np.array(finals).sum()) / reps
        for row in report.rows:
            hits = np.count_nonzero((maxima >= row.alpha) & (norms <= R))
            assert 0 < hits and row.empirical == hits / reps

    def test_replication_floor_enforced(self):
        with pytest.raises(ValueError):
            bernstein_mc_check(TWO_STATE, self.CAND, 1, 64, [1.0], 10.0, 100, seed=1)

    def test_chunking_invariant(self, monkeypatch):
        kwargs = dict(alpha_grid=[0.5, 2.0], R=15.0, replications=10**4, seed=9)
        a = bernstein_mc_check(TWO_STATE, self.CAND, 1, 64, **kwargs)
        monkeypatch.setattr(mc_mod, "MAX_LANES", 1111)
        b = bernstein_mc_check(TWO_STATE, self.CAND, 1, 64, **kwargs)
        # event counts are exact integers, and the finals are reduced once
        assert a == b


class TestDeviationTail:
    def test_zero_eps_recovers_event_rate(self):
        report = deviation_tail_mc(
            TWO_STATE, 2, 64, [0.0, 1.0], 10**4, eta=0.5, rho=3, seed=3
        )
        assert report.rows[0].frequency == pytest.approx(report.event_rate, abs=1e-12)

    def test_frequencies_nonincreasing(self):
        report = deviation_tail_mc(
            TWO_STATE, 2, 64, np.linspace(0, 6, 7), 10**4, eta=0.5, rho=3, seed=4
        )
        freqs = [row.frequency for row in report.rows]
        assert all(b <= a for a, b in zip(freqs, freqs[1:]))

    def test_exponential_shape(self):
        report = deviation_tail_mc(
            TWO_STATE, 2, 128, np.linspace(0, 10, 11), 2 * 10**4, eta=0.5, rho=3, seed=5
        )
        assert report.slope < 0.0
        assert report.r_squared > 0.8

    def test_chunking_invariant(self, monkeypatch):
        kwargs = dict(eps_grid=[0.0, 1.0, 2.0], replications=3000, eta=0.5, rho=3, seed=8)
        whole = deviation_tail_mc(TWO_STATE, 2, 32, **kwargs)
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", 48 * 700)  # 700 lanes of 48 bytes
        sizes, chunks = [], mc_mod._chunks
        monkeypatch.setattr(
            mc_mod, "_chunks", lambda total, size: sizes.append(size) or chunks(total, size)
        )
        chunked = deviation_tail_mc(TWO_STATE, 2, 32, **kwargs)
        assert sizes == [700] and whole.usable_points >= 2
        assert chunked == whole

    def test_order_must_exceed_truth(self):
        with pytest.raises(ValueError):
            deviation_tail_mc(TWO_STATE, 1, 64, [0.0], 10**4, eta=0.5, rho=3, seed=1)

    @settings(max_examples=4, deadline=None)
    @given(
        m=st.integers(2, 3),
        r_true=st.integers(0, 1),
        gap=st.integers(1, 2),
        rho=st.integers(1, 5),
        n=st.integers(8, 64),
        eta=st.sampled_from([0.5, 0.9, 0.99]),
        seed=st.integers(0, 2**32),
    )
    # the window table is the overshoot's (rho - 1 <= r + 1) or one of its own
    @example(m=2, r_true=1, gap=1, rho=3, n=64, eta=0.5, seed=1)
    @example(m=3, r_true=0, gap=2, rho=3, n=48, eta=0.9, seed=2)
    @example(m=2, r_true=0, gap=1, rho=4, n=64, eta=0.99, seed=3)
    @example(m=2, r_true=1, gap=1, rho=5, n=64, eta=0.99, seed=4)
    def test_matches_per_lane_reference(self, m, r_true, gap, rho, n, eta, seed):
        r = r_true + gap
        assume(rho <= n // 2 and r < n)
        truth = random_model(m, r_true, seed, floor=0.8 / m)  # typical paths are common
        eps = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        lanes = 200
        seen = []  # (i, per-depth lane counts) at each typicality check

        def recording(truth_, counts, i):
            seen.append((i, [c.copy() for c in counts]))
            return core_mod.typicality_deviations(truth_, counts, i)

        with mock.patch.object(mc_mod, "typicality_deviations", recording):
            report = deviation_tail_mc(truth, r, n, eps, lanes, eta, rho, seed)
        assert [i for i, _ in seen] == [n, 2 * n]
        events, hits = 0, [0] * len(eps)
        for lane in range(lanes):
            path = sample_paths(truth, 2 * n, derive_seed(seed, lane))[0]
            for i, counts in seen:
                for d, freq in enumerate(counts):
                    ref = np.bincount(context_codes(path[:i], d, m), minlength=m**d)
                    assert freq[lane].tolist() == ref.tolist()
            if event_F(truth, path, eta, rho):
                events += 1
                delta = delta_running_max(truth, path, r, n, 2 * n)
                hits = [h + (delta >= e) for h, e in zip(hits, eps)]
        assert round(report.event_rate * lanes) == events
        assert [round(row.frequency * lanes) for row in report.rows][1:] == hits[1:]


class TestLilTrajectory:
    def test_forced_constant_chain_all_zero(self):
        model = MarkovModel([[1.0, 0.0], [1.0, 0.0]], initial=[1.0, 0.0])
        report = lil_trajectory(model, [64, 256, 1024], 0, SubLogCutoff(), seed=2)
        assert all(p.value == 0.0 for p in report.points)
        assert report.max_normalized == 0.0

    def test_values_nonnegative_and_normalized(self):
        report = lil_trajectory(TWO_STATE, [2**10, 2**12, 2**14], 1, SubLogCutoff(), seed=3)
        for p in report.points:
            assert p.value >= 0.0
            assert p.normalized == pytest.approx(p.value / math.log(math.log(p.n)))

    def test_checkpoint_floor(self):
        with pytest.raises(ValueError):
            lil_trajectory(TWO_STATE, [8, 64], 1, SubLogCutoff(), seed=1)
