"""Typicality, distances, norms, brackets, bounds, and the MC verifiers."""

import math
import tracemalloc
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
from markovorder import likelihood as likelihood_mod
from markovorder.diagnostics import (
    BoundParams,
    BracketCountReport,
    InstanceBatteryReport,
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
from markovorder.checks import CHECKS
from markovorder.config import ConfigError, VerifySettings
from markovorder.diagnostics import core as core_mod
from markovorder.diagnostics import mc as mc_mod
from markovorder.diagnostics.core import weighted_hellinger
from markovorder.likelihood import log_ratio_rows, masked_log_ratio
from markovorder.model import (
    ModelStack,
    lift_kernel,
    random_kernels,
    stationary_block_law,
    step_lanes,
)
from markovorder.penalty import SubLogCutoff
from markovorder.rng import derive_seed, uniform_block

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
        for path in sample_paths(TWO_STATE, 10**5, derive_seed(7, np.arange(100))):
            counts = build_counts(path, 4, m=2)
            holds += typicality_check(TWO_STATE, counts, 0.5, 4)
        assert holds >= 99

    def test_eta_out_of_range(self):
        counts = build_counts(sample_paths(TWO_STATE, 64, 1)[0], 2, m=2)
        with pytest.raises(ValueError):
            typicality_check(TWO_STATE, counts, 1.5, 2)


class TestEventF:
    def test_monotone_in_eta(self):
        for path in sample_paths(TWO_STATE, 512, derive_seed(21, np.arange(25))):
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
        seeds = derive_seed(5, np.arange(40))
        count_small = sum(
            event_F(TWO_STATE, path, 0.5, 3) for path in sample_paths(TWO_STATE, 2**10, seeds)
        )
        count_large = sum(
            event_F(TWO_STATE, path, 0.5, 3) for path in sample_paths(TWO_STATE, 2**14, seeds)
        )
        assert count_large >= count_small

    def test_typicality_trend_report(self):
        report = typicality_trend(TWO_STATE, 0.5, 3, 2**10, 2**14, 20, seed=5)
        assert report.improving
        assert 0 <= report.holds_small <= 20 and report.holds_large <= 20

    @pytest.mark.parametrize("rho", [0, 1, 3])
    def test_typicality_trend_matches_event_per_path(self, monkeypatch, rho):
        report = typicality_trend(TWO_STATE, 0.3, rho, 64, 512, 30, seed=9)
        # 7 one-byte paths, with their 192 bytes of count tables each, per chunk
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", (512 + 192) * 7)
        assert typicality_trend(TWO_STATE, 0.3, rho, 64, 512, 30, seed=9) == report
        small = large = 0
        for path in sample_paths(TWO_STATE, 512, derive_seed(9, np.arange(30))):
            small += typicality_check(TWO_STATE, build_counts(path[:64], 3, 2), 0.3, rho)
            large += typicality_check(TWO_STATE, build_counts(path, 3, 2), 0.3, rho)
        assert (report.holds_small, report.holds_large) == (small, large)
        # below depth 1 every path holds; at rho 3 the comparison is not
        # between two constants
        assert (0 < small < 30) == (rho == 3)

    @pytest.mark.parametrize(
        "eta, rho, match",
        # at rho 26 the windows of 25 symbols pass model.TABLE_CELLS
        [(0.5, 64, "rho"), (0.5, 65, "rho"), (1.5, 3, "eta"), (0.5, 26, "25 symbols")],
    )
    def test_typicality_trend_needs_eta_in_range_and_rho_below_n_small(self, eta, rho, match):
        with pytest.raises(ValueError, match=match):
            typicality_trend(TWO_STATE, eta, rho, 64, 512, 4, seed=5)

    @pytest.mark.parametrize("n_small, n_large", [(2**14, 2**10), (1024, 1024)])
    def test_typicality_trend_needs_growing_paths(self, n_small, n_large):
        with pytest.raises(ValueError, match="n_small"):
            typicality_trend(TWO_STATE, 0.5, 3, n_small, n_large, 4, seed=5)

    def test_lane_past_the_chunk_budget_rejected(self, monkeypatch):
        # a lane is sampled whole: n_large one-byte symbols and 24 * 2**3
        # bytes of tables at rho 3, within CHUNK_BYTES, or refused before
        # any sampling
        assert mc_mod.typicality_lane_bytes(2, 3, 512) == 512 + 24 * 8
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", 512 + 24 * 8)
        typicality_trend(TWO_STATE, 0.5, 3, 64, 512, 2, seed=5)
        with pytest.raises(ValueError, match="a lane of 513 symbols takes 705 bytes"):
            typicality_trend(TWO_STATE, 0.5, 3, 64, 513, 2, seed=5)


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


class TestStackedDistances:
    """Stacked norms and distances equal the one-path formulas, which sum
    one flat array per path, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(2, 3),
        r_star=st.integers(0, 1),
        gap=st.integers(0, 2),
        lengths=st.lists(st.integers(1, 700), min_size=1, max_size=6),
        seed=st.integers(0, 2**32),
        cells=st.sampled_from([1, 900, core_mod.ROW_CELLS]),
    )
    # rows of fewer than 8, of 8..128 and of more than 128 terms, whose
    # pairwise sums split
    @example(m=3, r_star=1, gap=2, lengths=[4, 9, 40, 130, 700], seed=1, cells=900)
    def test_stacked_norms_and_distances_match_per_path(
        self, m, r_star, gap, lengths, seed, cells
    ):
        r = r_star + gap
        assume(min(lengths) > r)
        seeds = derive_seed(seed, np.arange(len(lengths)))
        truths = ModelStack(random_kernels(m, r_star, derive_seed(seeds, 1)))
        cands = ModelStack(random_kernels(m, r, derive_seed(seeds, 2)))
        paths = sample_paths(truths, max(lengths), derive_seed(seeds, 3))
        mix = mixture_kernel(cands, truths, r)
        # the rows are read ROW_CELLS symbols at a time: one row, a few, all
        with mock.patch.object(core_mod, "ROW_CELLS", cells), mock.patch.object(
            mc_mod, "ROW_CELLS", cells
        ):
            norms = bernstein_norm(truths, mix, paths, r, lengths)
            counts = mc_mod._path_context_counts(paths, lengths, m, r + 1)[r]
        dists = weighted_hellinger(counts, mix, mixture_kernel(truths, truths, r))
        for g, n in enumerate(lengths):
            truth, path = MarkovModel(truths.kernel[g]), paths[g, :n]
            one = mixture_kernel(MarkovModel(cands.kernel[g]), truth, r)
            t_rows, log_ratio, _ = log_ratio_rows(truth, one, path, n)
            flat = t_rows * phi(0.5 * np.abs(log_ratio))  # (steps, m)
            assert norms[g] == bernstein_norm(truth, one, path, r, n) == 8.0 * float(flat.sum())
            counts_g = build_counts(path, r, m).context_counts(r)
            assert counts[g].tolist() == counts_g.tolist()
            gap = (np.sqrt(one.table) - np.sqrt(lift_kernel(truth.kernel, m, r))) ** 2
            assert dists[g] == float((counts_g * gap.sum(axis=1)).sum())

    @pytest.mark.parametrize(
        "m, depth, ends",
        [
            (2, 4, 40),  # one end for every row
            (3, 3, [5, 17, 40, 9]),  # one end per row, as norm-bound reads them
            (2, 1, [1, 12, 40, 3]),  # depth 0 only: no context symbols
        ],
    )
    def test_path_context_counts_match_per_row_bincounts(self, m, depth, ends):
        paths = sample_paths(random_model(m, 1, 5), 40, derive_seed(9, np.arange(4)))
        # two rows' windows are tallied at a time
        with mock.patch.object(mc_mod, "ROW_CELLS", 80):
            tables = mc_mod._path_context_counts(paths, ends, m, depth)
        assert len(tables) == depth
        for d, table in enumerate(tables):
            assert table.shape == (4, m**d) and table.dtype == np.int64
            for row, path, end in zip(table, paths, np.broadcast_to(ends, 4)):
                ref = np.bincount(context_codes(path[:end], d, m), minlength=m**d)
                assert row.tolist() == ref.tolist()


class TestSandwichBattery:
    def test_no_violations_on_event(self):
        report = hellinger_sandwich_battery(60, eta=0.5, n=256, rho=3, seed=17)
        assert report.instances == 60
        assert report.violations == 0
        assert report.passed

    def test_depth_past_the_cell_limit_rejected(self):
        # typicality at rho = 26 reads a table over the 2**25 windows of 25
        # symbols, past model.TABLE_CELLS
        with pytest.raises(ValueError, match="passes 16777216 cells"):
            hellinger_sandwich_battery(2, eta=0.5, n=64, rho=26, seed=17)

    @pytest.mark.parametrize("rho", [25, 26])
    def test_validator_bounds_the_window_table(self, rho):
        # the battery tallies windows of rho - 1 symbols: 2**24 cells, within
        # model.TABLE_CELLS, at rho = 25
        spec = next(spec for spec in CHECKS if spec.name == "hellinger-sandwich")
        settings = VerifySettings(rho=rho, sandwich_n=64)
        if rho == 25:
            spec.validate(settings, TWO_STATE, None)
        else:
            with pytest.raises(ConfigError, match=r"^verify\.rho: .* 2\*\*25 table cells"):
                spec.validate(settings, TWO_STATE, None)


def reference_norm_bound(instances, seed):
    """``norm_bound_battery`` one instance, and one sampler call, at a time."""
    violations, worst = 0, 0.0
    for i in range(instances):
        base = derive_seed(seed, i)
        u = uniform_block(base, 0, 4)
        m = 2 + int(u[0] * 2) % 2
        r_star = int(u[1] * 2) % 2
        r = r_star + 1 + int(u[2] * (3 - r_star)) % (3 - r_star)
        n = 64 + int(u[3] * 448)
        truth = random_model(m, r_star, derive_seed(base, 1))
        mix = mixture_kernel(random_model(m, r, derive_seed(base, 2)), truth, r)
        path = sample_paths(truth, n, derive_seed(base, 3))[0]
        r_n = bernstein_norm(truth, mix, path, r, n)
        h_n = hellinger_path_distance(
            build_counts(path, r, m), mix, mixture_kernel(truth, truth, r)
        )
        ratio, violated = mc_mod._compare(r_n, 8.0 * h_n)
        worst = max(worst, ratio)
        violations += violated
    return InstanceBatteryReport("norm-bound", instances, instances, violations, worst)


def reference_sandwich(instances, eta, n, rho, seed):
    """``hellinger_sandwich_battery`` one attempt, and one sampler call, at
    a time, with the event from ``event_F``."""
    params = BoundParams(eta)
    accepted = attempts = violations = 0
    worst = 0.0
    while accepted < instances and attempts < 20 * instances:
        base = derive_seed(seed, attempts)
        attempts += 1
        truth = random_model(2, 1, derive_seed(base, 1), floor=0.15)
        path = sample_paths(truth, 2 * n, derive_seed(base, 2))[0]
        if not event_F(truth, path, eta, rho):
            continue
        accepted += 1
        mix_a = mixture_kernel(random_model(2, 2, derive_seed(base, 3)), truth, 2)
        mix_b = mixture_kernel(random_model(2, 2, derive_seed(base, 4)), truth, 2)
        h_n = hellinger_path_distance(build_counts(path[:n], 2, 2), mix_a, mix_b)
        h_2n = hellinger_path_distance(build_counts(path, 2, 2), mix_a, mix_b)
        h_stat = hellinger_stationary_distance(truth, mix_a, mix_b)
        for small, big in [
            (h_2n, params.C3 * h_n),
            ((n - 2) / params.C4 * h_stat, h_n),
            (h_n, (n - 2) * params.C4 * h_stat),
        ]:
            ratio, violated = mc_mod._compare(small, big)
            worst = max(worst, ratio)
            violations += violated
    return InstanceBatteryReport("hellinger-sandwich", accepted, attempts, violations, worst)


def reference_bracket_battery(truth, n_kernels, n_paths, path_len, beta, r, seed):
    """``bracket_battery`` one kernel at a time, each path's envelopes read
    step by step."""
    tol = mc_mod.ABS_TOL
    weights = stationary_block_law(truth, r)
    supported = weights > 0.0
    gap_cap = beta / np.sqrt(weights[supported])[:, None]
    table_t = lift_kernel(truth.kernel, truth.m, r)
    paths = sample_paths(truth, path_len, derive_seed(seed, 10_000 + np.arange(n_paths)))
    violations, worst = 0, 0.0
    for i in range(n_kernels):
        kernel = random_model(truth.m, r, derive_seed(seed, i)).kernel
        lower, upper = bracket_grid(truth, kernel, beta)
        violations += bool(np.any(lower > kernel + tol) or np.any(upper < kernel - tol))
        gaps = np.sqrt(upper[supported]) - np.sqrt(lower[supported])
        worst = max(worst, float((gaps / gap_cap).max()))
        violations += bool(np.any(gaps > gap_cap * (1.0 + mc_mod.REL_TOL) + tol))
        for path in paths:
            codes, nxt = context_codes(path, r, truth.m), path[r:]
            t_obs = table_t[codes, nxt]
            lam, ups, xi = (
                masked_log_ratio(0.5 * (table[codes, nxt] + t_obs), t_obs)
                for table in (lower, upper, kernel)
            )
            violations += bool(np.any((lam > xi + tol) | (xi > ups + tol)))
    total = n_kernels * (n_paths + 1)
    return InstanceBatteryReport("bracket", total, total, violations, worst)


def reference_bracket_count(truth, r, sigma, n, samples, seed, eta=0.5):
    """``bracket_count_check`` one sampled kernel at a time, each bracket a
    (floor bytes, ceil bytes) key of a set; also returns the attempts."""
    params = BoundParams(eta)
    m = truth.m
    delta = params.c * math.sqrt((2 * n - r) * sigma)
    log_bound = entropy_bound(n, r, sigma, delta, m, params.C5, c=params.c)
    beta = delta / math.sqrt(4.0 * params.C4 * (2 * n - r) * m ** (r + 1))
    table_t = lift_kernel(truth.kernel, m, r)
    weights = stationary_block_law(truth, r)
    sq_w = np.sqrt(np.where(weights > 0.0, weights, 0.0))[:, None]
    keys, accepted, attempt = set(), 0, 0
    while accepted < samples and attempt < 40:
        scale = 2.0 * math.sqrt(sigma) * 0.8**attempt
        u = uniform_block(derive_seed(seed, attempt), 0, samples * table_t.size)
        u = u.reshape(samples, *table_t.shape)
        cand = np.clip(table_t[None, :, :] + scale * (2.0 * u - 1.0), 1e-9, None)
        cand /= cand.sum(axis=2, keepdims=True)
        mixed = 0.5 * (cand + table_t[None, :, :])
        gap = (np.sqrt(mixed) - np.sqrt(table_t[None, :, :])) ** 2
        dist = (weights[None, :] * gap.sum(axis=2)).sum(axis=1)
        for idx in np.nonzero(dist <= sigma)[0]:
            if accepted >= samples:
                break
            accepted += 1
            z = sq_w * np.sqrt(cand[idx]) / beta
            keys.add((np.floor(z).astype(np.int64).tobytes(), np.ceil(z).astype(np.int64).tobytes()))
        attempt += 1
    if accepted < samples:
        raise RuntimeError(f"only {accepted} of {samples} kernels landed in the ball")
    return BracketCountReport(accepted, len(keys), log_bound, beta, sigma, delta), attempt


class TestBatteriesMatchPerInstanceLoops:
    """The batteries sample kernel stacks; the reports equal those of one
    sampler call per instance, floats bit for bit (dataclass equality)."""

    def test_norm_bound_one_sampler_call_per_group(self, monkeypatch):
        calls = []

        def counting(models, n, seeds):
            calls.append((models.m, models.order))
            return sample_paths(models, n, seeds)

        monkeypatch.setattr(mc_mod, "sample_paths", counting)
        report = norm_bound_battery(60, seed=99)
        assert report == reference_norm_bound(60, seed=99)
        # every (m, truth order) group is sampled once, and all four occur
        assert sorted(calls) == [(2, 0), (2, 1), (3, 0), (3, 1)]

    @pytest.mark.parametrize(
        "instances, n, chunk_bytes, seed, accepted, attempted",
        [(40, 256, None, 27, 40, 44), (10, 8, None, 21, 3, 200), (10, 8, 16 * 7, 23, 10, 197)],
        ids=["most-accepted", "attempt-limit", "seven-per-chunk"],
    )
    def test_sandwich(self, monkeypatch, instances, n, chunk_bytes, seed, accepted, attempted):
        if chunk_bytes:
            monkeypatch.setattr(mc_mod, "CHUNK_BYTES", chunk_bytes)
        report = hellinger_sandwich_battery(instances, 0.5, n, 3, seed)
        assert report == reference_sandwich(instances, 0.5, n, 3, seed)
        assert (report.instances, report.attempted) == (accepted, attempted)

    @pytest.mark.parametrize("abs_tol", [None, -1e-3], ids=["slack", "negative-slack"])
    @pytest.mark.parametrize(
        "truth, kernels, paths, path_len, beta, r, seed",
        [
            (TWO_STATE, 20, 10, 128, 0.05, 1, 3),
            (random_model(3, 1, 5), 12, 6, 64, 0.1, 2, 8),
            # paths too short to take any transition
            (random_model(2, 2, 6), 8, 5, 2, 0.05, 2, 4),
        ],
        ids=["two-state", "three-symbols", "no-transitions"],
    )
    def test_bracket(self, monkeypatch, abs_tol, truth, kernels, paths, path_len, beta, r, seed):
        args = (truth, kernels, paths, path_len, beta, r, seed)
        if abs_tol is not None:
            # below zero, the near-tight comparisons count as violations, so
            # the counts compared are not all zero
            monkeypatch.setattr(mc_mod, "ABS_TOL", abs_tol)
        report = bracket_battery(*args)
        assert report == reference_bracket_battery(*args)
        assert (report.violations > 0) == (abs_tol is not None)
        # the least budget that holds the paths: one or two kernels per chunk
        held = mc_mod.bracket_path_bytes(truth.m, r, paths, path_len)
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", held)
        assert bracket_battery(*args) == report

    @pytest.mark.parametrize(
        "truth, r, sigma, n, samples, seed, attempts",
        [
            (TWO_STATE, 1, 0.01, 64, 1000, 12, 2),
            (TWO_STATE, 1, 0.05, 64, 100, 5, 1),
            (random_model(3, 1, 5), 2, 0.02, 32, 300, 9, 2),
        ],
        ids=["two-attempts", "one-attempt", "three-symbols"],
    )
    def test_bracket_count(self, monkeypatch, truth, r, sigma, n, samples, seed, attempts):
        args = (truth, r, sigma, n, samples, seed)
        seen = []
        monkeypatch.setattr(
            mc_mod, "derive_seed", lambda master, i: seen.append(i) or derive_seed(master, i)
        )
        report = bracket_count_check(*args)
        assert (report, len(seen)) == reference_bracket_count(*args)
        assert len(seen) == attempts


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

    def test_envelopes_past_the_largest_float_rejected(self):
        # (1e300 / sqrt(w))**2 overflows for every stationary weight w <= 1
        kernel = TWO_STATE.kernel
        with pytest.raises(ValueError, match="upper envelope passes the largest float"):
            bracket_grid(TWO_STATE, kernel, beta=1e300)
        with pytest.raises(ValueError, match="upper envelope"):
            bracket_battery(TWO_STATE, 2, 2, 16, beta=1e300, r=1, seed=3)
        lower, upper = bracket_grid(TWO_STATE, kernel, beta=1e100)
        assert np.isfinite(upper).all()

    def test_pitch_too_fine_for_exact_keys_rejected(self):
        # sigma = 1e-300 puts the grid positions near 1e150, past 2**53,
        # where they used to wrap in the int64 keys
        with pytest.raises(ValueError, match="past 2\\*\\*53 inexact"):
            bracket_count_check(TWO_STATE, r=1, sigma=1e-300, n=64, samples=10, seed=12)
        delta, beta = core_mod.count_pitch(2, 1, 64, 0.01, 0.5)
        assert 1.0 / beta < core_mod.EXACT_KEYS and delta > 0.0

    def test_sizes_past_the_chunk_budget_rejected(self, monkeypatch):
        # 3 one-byte paths of 16 symbols with 8 * 2**2 bytes of transition
        # tables each, and 10 samples of 4 cells at 48 bytes a cell, within
        # CHUNK_BYTES, or refused before anything is sampled
        assert mc_mod.bracket_path_bytes(2, 1, 3, 16) == 3 * (16 + 32)
        assert mc_mod.bracket_sample_bytes(4, 10) == 48 * 40
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", 48 * 40)
        bracket_battery(TWO_STATE, 2, 3, 16, beta=0.05, r=1, seed=3)
        bracket_count_check(TWO_STATE, r=1, sigma=0.01, n=64, samples=10, seed=12)
        with pytest.raises(ValueError, match="41 paths of 16 symbols takes 1968 bytes"):
            bracket_battery(TWO_STATE, 2, 41, 16, beta=0.05, r=1, seed=3)
        with pytest.raises(ValueError, match="11 kernels of 4 cells takes 2112 bytes"):
            bracket_count_check(TWO_STATE, r=1, sigma=0.01, n=64, samples=11, seed=12)


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
        for lane, path in enumerate(sample_paths(truth, n, seeds)):
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
    @pytest.mark.parametrize("r, rho", [(24, 3), (2, 26)])
    def test_tables_past_the_cell_limit_rejected(self, r, rho):
        # the overshoot's transition table has 2**(r + 1) cells and the
        # typicality window table 2**(rho - 1)
        with pytest.raises(ValueError, match="passes 16777216 cells"):
            deviation_tail_mc(TWO_STATE, r, 64, [0.0], 10**4, eta=0.5, rho=rho, seed=3)

    def test_lanes_past_the_cell_budget_rejected(self, monkeypatch):
        # order 11 on two symbols: 2**12 + 2**11 cells a lane, 122.9M cells
        # over 20 000 lanes; order 10 takes 61.4M of DEVIATION_CELLS = 2**26
        with pytest.raises(ValueError, match="pass the 67108864 cells"):
            deviation_tail_mc(TWO_STATE, 11, 64, [0.0], 20000, eta=0.5, rho=3, seed=3)
        assert mc_mod.deviation_lane_cells(2, 10, 3, 20000) == 3 * 2**10
        # a typicality window longer than the order's adds its own table
        assert mc_mod.deviation_lane_cells(3, 1, 5, 1) == 9 + 3 + 81
        # the budget is read at each call, and one at the budget runs
        monkeypatch.setattr(mc_mod, "DEVIATION_CELLS", 12 * 100)
        deviation_tail_mc(TWO_STATE, 2, 16, [0.0], 100, eta=0.5, rho=3, seed=3)
        with pytest.raises(ValueError, match="101 lanes of 12 count cells"):
            deviation_tail_mc(TWO_STATE, 2, 16, [0.0], 101, eta=0.5, rho=3, seed=3)

    def test_eps_grid_past_the_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "DEVIATION_EPS", 2)
        deviation_tail_mc(TWO_STATE, 2, 16, [0.0, 1.0], 10**4, eta=0.5, rho=3, seed=3)
        with pytest.raises(ValueError, match="3 eps values pass the 2"):
            deviation_tail_mc(TWO_STATE, 2, 16, [0.0, 1.0, 2.0], 10**4, eta=0.5, rho=3, seed=3)

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

    def test_fit_over_one_repeated_eps_is_undefined(self):
        # a chain held in state 0: every lane is typical, so the three usable
        # points share one eps and no line runs through them
        held = MarkovModel([[1.0, 0.0], [0.5, 0.5]])
        report = deviation_tail_mc(held, 2, 8, [0.0, 0.0, 0.0], 20, eta=0.5, rho=2, seed=1)
        assert report.usable_points == 3 and math.isnan(report.slope)

    def test_exponential_shape(self):
        report = deviation_tail_mc(
            TWO_STATE, 2, 128, np.linspace(0, 10, 11), 2 * 10**4, eta=0.5, rho=3, seed=5
        )
        assert report.slope < 0.0
        assert report.r_squared > 0.8

    @pytest.mark.parametrize(
        "r, eps_grid, code_chunk",
        [
            (2, [0.0, 1.0, 2.0], None),
            # at order 6 a lane's transition table holds 128 cells, so the
            # first tracked step reads a chunk's tables in many slices (with
            # CODE_CHUNK at 64, each lane's table in two rows)
            (6, [0.0, 8.0, 11.0, 14.0], None),
            (6, [0.0, 8.0, 11.0, 14.0], 64),
        ],
    )
    def test_chunking_invariant(self, monkeypatch, r, eps_grid, code_chunk):
        if code_chunk:
            monkeypatch.setattr(likelihood_mod, "CODE_CHUNK", code_chunk)
        kwargs = dict(eps_grid=eps_grid, replications=3000, eta=0.5, rho=3, seed=8)
        whole = deviation_tail_mc(TWO_STATE, r, 32, **kwargs)
        lane_bytes = 4 * mc_mod.deviation_lane_cells(2, r, 3, 1)  # 48 bytes at order 2
        monkeypatch.setattr(mc_mod, "CHUNK_BYTES", lane_bytes * 700)  # 700 lanes a chunk
        sizes, chunks = [], mc_mod._chunks
        monkeypatch.setattr(
            mc_mod, "_chunks", lambda total, size: sizes.append(size) or chunks(total, size)
        )
        chunked = deviation_tail_mc(TWO_STATE, r, 32, **kwargs)
        assert sizes == [700] and whole.usable_points >= 2
        assert len({row.frequency for row in whole.rows}) == len(eps_grid)
        assert chunked == whole

    def test_order_ten_holds_its_tables_and_little_more(self):
        # the overshoot is derived from the count tables a slice at a time,
        # so no float copy of a table (3000 lanes of 2**11 cells, 49 MB)
        # is ever built; the int32 tables take 36.9 MB
        lanes = 3000
        tables = 4 * lanes * mc_mod.deviation_lane_cells(2, 10, 3, 1)
        tracemalloc.start()
        try:
            deviation_tail_mc(TWO_STATE, 10, 128, [0.0, 5.0], lanes, eta=0.5, rho=3, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables + (2 << 20)

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
    # the depth tables derive from the overshoot's context table, read as
    # it is (rho - 1 = r) or with its oldest digits summed away, several at
    # once when rho - 1 < r - 1
    @example(m=2, r_true=1, gap=1, rho=3, n=64, eta=0.5, seed=1)
    @example(m=3, r_true=0, gap=2, rho=3, n=48, eta=0.9, seed=2)
    @example(m=2, r_true=1, gap=2, rho=2, n=48, eta=0.9, seed=6)
    # or from a window table less the window ending at i: the overshoot's
    # transition table (rho - 1 = r + 1) or one of its own (rho - 1 > r + 1)
    @example(m=3, r_true=0, gap=1, rho=3, n=48, eta=0.9, seed=7)
    @example(m=2, r_true=0, gap=1, rho=4, n=64, eta=0.99, seed=3)
    @example(m=3, r_true=0, gap=1, rho=4, n=48, eta=0.99, seed=8)
    @example(m=2, r_true=1, gap=1, rho=5, n=64, eta=0.99, seed=4)
    # three symbols with a window of its own of 81 cells, read as depth 4:
    # each shallower depth sums an axis of 3 cells away from the one above
    @example(m=3, r_true=0, gap=1, rho=5, n=64, eta=0.99, seed=5)
    def test_matches_per_lane_reference(self, m, r_true, gap, rho, n, eta, seed):
        r = r_true + gap
        assume(rho <= n // 2 and r < n)
        truth = random_model(m, r_true, seed, floor=0.8 / m)  # typical paths are common
        eps = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        lanes = 200
        seen = []  # (i, per-depth lane counts) at each typicality check
        deviations = core_mod.typicality_deviations

        def recording(truth_, counts, i):
            counts = list(counts)
            seen.append((i, [c.copy() for c in counts]))
            return deviations(truth_, counts, i)

        with mock.patch.object(core_mod, "typicality_deviations", recording):
            report = deviation_tail_mc(truth, r, n, eps, lanes, eta, rho, seed)
        assert [i for i, _ in seen] == [n, 2 * n]
        events, hits = 0, [0] * len(eps)
        paths = sample_paths(truth, 2 * n, derive_seed(seed, np.arange(lanes)))
        for lane, path in enumerate(paths):
            for i, counts in seen:
                for d, freq in enumerate(counts):
                    ref = np.bincount(context_codes(path[:i], d, m), minlength=m**d)
                    assert freq[lane].tolist() == ref.tolist()
                    assert freq.dtype == np.int32  # the lanes' count tables' type
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

    def test_checkpoint_ceiling(self):
        # the path is sampled straight into its counts, so no allocation stops it
        with pytest.raises(ValueError, match="16..2\\*\\*48 - 1"):
            lil_trajectory(TWO_STATE, [1024, 2**48], 1, SubLogCutoff(), seed=1)
