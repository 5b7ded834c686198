"""Monte Carlo verifiers for the tail bounds and distance comparisons.

Replication-heavy checks stream their lanes from ``model.step_lanes``,
the lockstep form of the one sampling kernel: all lanes of a chunk step
forward together, one vectorized step per position, and no lanes x n
array is ever stored.  A chunk holds at most ``MAX_LANES``
lanes (fewer when its count tables would pass ``CHUNK_BYTES``).  Lane i
is bit-identical to ``sample_paths(truth, n, derive_seed(seed, i))[0]``, and
a report is reduced from per-lane values or exact integer counts once
all chunks are done, so chunking never changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..counts import build_counts, prefix_counts
from ..likelihood import RunningOvershoot, log_ratio_table, masked_log_ratio, mixture_kernel
from ..model import (
    MarkovModel,
    lift_kernel,
    random_model,
    sample_paths,
    stationary_block_law,
    step_lanes,
    true_order,
)
from ..penalty import CutoffSpec
from ..estimator import grid_logliks, required_depth_cap
from ..likelihood import lil_from_logliks
from ..rng import derive_seed, uniform_block
from .core import (
    BoundParams,
    bernstein_norm,
    bernstein_tail_bound,
    bracket_grid,
    bracket_log_envelopes,
    entropy_bound,
    hellinger_path_distance,
    hellinger_stationary_distance,
    phi,
    typicality_check,
    typicality_deviations,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_LANES = 1 << 16  # lanes stepped together in one chunk
CHUNK_BYTES = 64 << 20  # budget for one chunk's per-lane count tables or paths


def _chunks(total: int, size: int):
    start = 0
    while start < total:
        yield start, min(start + size, total)
        start += size


def _lane_context_counts(windows, head, recent, i: int, m: int, length: int, rho: int):
    """Each lane's depth-d context counts on its first i symbols, d < rho.

    ``windows`` tallies each lane's length-``length`` windows ending at
    positions length..i (newest symbol least significant), ``head`` codes its
    first min(length - 1, i) symbols and ``recent`` its newest ones.  As in
    ``ContextCounts.window_counts``, the depth-d counts are the windows read
    modulo m**d, plus the d-blocks inside the head, minus the d-block that
    ends at position i (no next symbol follows it yet).
    """
    lanes = head.shape[0]
    rows = np.arange(lanes)
    h = min(length - 1, i)
    out = []
    for d in range(rho):
        freq = windows.reshape(lanes, m ** (length - d), m**d).sum(axis=1, dtype=np.int64)
        for s in range(h - d + 1):
            freq[rows, head // m ** (h - d - s) % m**d] += 1
        freq[rows, recent % m**d] -= 1
        out.append(freq)
    return out


# -- martingale maximum vs the closed-form tail ------------------------------


@dataclass(frozen=True)
class BernsteinRow:
    alpha: float
    empirical: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class BernsteinMcReport:
    n: int
    r: int
    replications: int
    R: float
    K: float
    mean_final: float
    sd_final: float
    rows: tuple[BernsteinRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def bernstein_mc_check(
    truth: MarkovModel,
    candidate: MarkovModel,
    r: int,
    n: int,
    alpha_grid,
    R: float,
    replications: int,
    seed: int,
) -> BernsteinMcReport:
    """Empirical frequency of {max_j M_j >= alpha and R_n <= R} per alpha,
    against ``exp(-alpha^2 / (2 (K alpha + R)))`` with K = 2.

    M is the compensated log-ratio martingale of the candidate/truth
    mixture; R_n its predictable phi-norm.  A pass means the frequency
    stays within three binomial sigmas of the bound.
    """
    if replications < 10**4:
        raise ValueError("need at least 1e4 replications for a meaningful tail")
    table_t, log_ratio = log_ratio_table(truth, mixture_kernel(candidate, truth, r))
    d_step = -(table_t * log_ratio).sum(axis=1)
    inc = log_ratio + d_step[:, None]  # the martingale step per (context, symbol)
    r_step = 8.0 * (table_t * phi(0.5 * np.abs(log_ratio))).sum(axis=1)
    alphas = [float(a) for a in alpha_grid]
    hits = np.zeros(len(alphas), dtype=np.int64)
    finals = np.zeros(replications)
    for lo, hi in _chunks(replications, MAX_LANES):
        seeds = derive_seed(seed, np.arange(lo, hi))
        reps = seeds.shape[0]
        mval = finals[lo:hi]  # a view: each lane's final value lands in finals
        mmax = np.zeros(reps)
        rnorm = np.zeros(reps)
        # ctx < m**r: mixture_kernel has checked r >= truth.order
        for i, ctx, sym in step_lanes(truth, n, seeds, depth=r):
            if i <= r:
                continue
            mval += inc[ctx, sym]
            np.maximum(mmax, mval, out=mmax)
            rnorm += r_step[ctx]
        ok = rnorm <= R
        for j, alpha in enumerate(alphas):
            hits[j] += int(np.count_nonzero(ok & (mmax >= alpha)))
    rows = []
    for j, alpha in enumerate(alphas):
        emp = float(hits[j] / replications)
        bound = bernstein_tail_bound(alpha, 2.0, R)
        margin = 3.0 * math.sqrt(bound * (1.0 - bound) / replications)
        rows.append(BernsteinRow(alpha, emp, bound, margin, bool(emp <= bound + margin)))
    mean = float(finals.sum()) / replications
    var = max(float((finals**2).sum()) / replications - mean**2, 0.0)
    return BernsteinMcReport(
        n, r, replications, float(R), 2.0, mean, math.sqrt(var), tuple(rows)
    )


# -- deviation tail of the running likelihood overshoot ----------------------


@dataclass(frozen=True)
class DeviationRow:
    eps: float
    frequency: float


@dataclass(frozen=True)
class DeviationTailReport:
    n: int
    r: int
    replications: int
    eta: float
    rho: int
    event_rate: float
    rows: tuple[DeviationRow, ...]
    slope: float
    intercept: float
    r_squared: float
    usable_points: int


def deviation_tail_mc(
    truth: MarkovModel,
    r: int,
    n: int,
    eps_grid,
    replications: int,
    eta: float,
    rho: int,
    seed: int,
) -> DeviationTailReport:
    """Tail of {typicality event and max_{i=n..2n} overshoot >= eps}.

    The overshoot at i is the order-r maximized log-likelihood of the
    prefix x_{1:i} minus its true conditional log-likelihood.  The report
    carries the empirical frequency per eps plus a least-squares fit of
    log-frequency against eps over the grid points with more than
    10/replications mass (exponential decay shows up as a negative slope).
    """
    r_true = true_order(truth)
    if r <= r_true:
        raise ValueError(f"order {r} must exceed the true order {r_true}")
    if rho > n // 2:
        raise ValueError(f"rho {rho} exceeds n/2 = {n // 2}")
    m, r0 = truth.m, truth.order
    length = 2 * n
    size_r = m**r
    # a lane's typicality counts come from one table of its windows of this
    # length; at length r + 1 that is the overshoot's own transition table
    window = max(r + 1, rho - 1)
    extra = m**window if window > r + 1 else 0
    log_t0 = masked_log_ratio(truth.kernel, 1.0)
    eps = np.array([float(e) for e in eps_grid])
    hits = np.zeros(eps.shape[0], dtype=np.int64)
    f_count = 0
    depth = max(r, rho - 1, r0)
    lane_bytes = 4 * (m ** (r + 1) + size_r + extra)  # int32 tables
    for lo, hi in _chunks(replications, max(1, min(MAX_LANES, CHUNK_BYTES // lane_bytes))):
        seeds = derive_seed(seed, np.arange(lo, hi))
        reps = seeds.shape[0]
        run = RunningOvershoot(reps, m, r, length)
        windows = np.zeros(reps * extra, dtype=np.int32) if extra else run.trans
        lane_at = np.arange(reps, dtype=np.int64) * extra
        head = np.zeros(reps, dtype=np.int64)
        good = np.ones(reps, dtype=bool)
        for i, ctx, sym in step_lanes(truth, length, seeds, depth):
            if i < window:
                head = ctx * m + sym  # the first i symbols
            elif extra:
                windows[lane_at + (ctx * m + sym) % extra] += 1
            if i > r:
                run.step(ctx % size_r, sym, log_t0[ctx % m**r0, sym], i >= n)
            if i == n or i == length:
                counts = _lane_context_counts(windows, head, ctx * m + sym, i, m, window, rho)
                for dev in typicality_deviations(truth, counts, i):
                    good &= dev < eta
        f_count += int(np.count_nonzero(good))
        for j in range(eps.shape[0]):
            hits[j] += int(np.count_nonzero(good & (run.best >= eps[j])))
    freqs = hits / replications
    usable = freqs > 10.0 / replications
    slope = intercept = r2 = float("nan")
    if int(usable.sum()) >= 2:
        x = eps[usable]
        y = np.log(freqs[usable])
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(((y - fitted) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rows = tuple(DeviationRow(float(e), float(f)) for e, f in zip(eps, freqs))
    return DeviationTailReport(
        n,
        r,
        replications,
        eta,
        rho,
        f_count / replications,
        rows,
        float(slope),
        float(intercept),
        float(r2),
        int(usable.sum()),
    )


# -- normalized likelihood-ratio trajectory ----------------------------------


@dataclass(frozen=True)
class LilPoint:
    n: int
    kappa: int
    value: float
    normalized: float


@dataclass(frozen=True)
class LilTrajectoryReport:
    points: tuple[LilPoint, ...]
    max_normalized: float
    slope: float


def lil_trajectory(
    truth: MarkovModel,
    checkpoints,
    r_star: int,
    cutoff: CutoffSpec,
    seed: int,
) -> LilTrajectoryReport:
    """Normalized order-supremum statistic along one growing path.

    At each checkpoint n the statistic ``sup_{r_star<r<kappa(n)} lr/m**r``
    is divided by log log n; the report carries the series, its maximum and
    the least-squares slope against log2 n (a bounded statistic shows a
    non-positive trend).
    """
    grid = sorted(int(c) for c in checkpoints)
    if grid[0] < 16:
        raise ValueError("checkpoints must start at 16 or later")
    m = truth.m
    depth = required_depth_cap(cutoff, grid, m)
    path = sample_paths(truth, grid[-1], seed)[0]
    points = []
    for n, logliks in grid_logliks(path, m, cutoff, grid, depth):
        value = lil_from_logliks(logliks[r_star:], r_star, m)
        norm = value / math.log(math.log(n))
        points.append(LilPoint(n, len(logliks), value, norm))
    xs = np.log2([p.n for p in points])
    ys = np.array([p.normalized for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(points) > 1 else 0.0
    return LilTrajectoryReport(tuple(points), float(ys.max()), slope)


# -- typicality trend ---------------------------------------------------------


@dataclass(frozen=True)
class TypicalityTrendReport:
    eta: float
    rho: int
    n_small: int
    n_large: int
    seeds: int
    holds_small: int
    holds_large: int

    @property
    def improving(self) -> bool:
        return self.holds_large >= self.holds_small


def typicality_trend(
    truth: MarkovModel,
    eta: float,
    rho: int,
    n_small: int,
    n_large: int,
    seeds: int,
    seed: int,
) -> TypicalityTrendReport:
    """How often the typicality event holds at two path lengths."""
    if n_small >= n_large:
        raise ValueError(f"n_small {n_small} must be below n_large {n_large}")
    holds = [0, 0]
    for lo, hi in _chunks(seeds, max(1, CHUNK_BYTES // (8 * n_large))):  # int64 paths
        for path in sample_paths(truth, n_large, derive_seed(seed, np.arange(lo, hi))):
            tables = prefix_counts(path, (n_small, n_large), min(rho, n_small - 1), truth.m)
            for k, counts in enumerate(tables):
                holds[k] += typicality_check(truth, counts, eta, rho)
    return TypicalityTrendReport(eta, rho, n_small, n_large, seeds, *holds)


# -- instance batteries for the distance and norm comparisons ----------------


@dataclass(frozen=True)
class InstanceBatteryReport:
    name: str
    instances: int
    attempted: int
    violations: int
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.instances > 0


def _compare(small: float, big: float) -> tuple[float, bool]:
    """The ratio small / big, and whether small exceeds big beyond the
    REL_TOL and ABS_TOL slack.  At big = 0 the ratio is 1 for a small within
    ABS_TOL of 0, else inf."""
    ratio = small / big if big > 0 else (1.0 if small <= ABS_TOL else np.inf)
    return ratio, small > big * (1.0 + REL_TOL) + ABS_TOL


def norm_bound_battery(instances: int, seed: int) -> InstanceBatteryReport:
    """Bernstein norm against eight times the count-weighted Hellinger
    distance on random (truth, candidate, path) triples; the inequality is
    exact, so any violation beyond 1e-9 relative slack counts.

    Each triple draws an alphabet of 2 or 3 symbols, a truth of order 0 or
    1, a candidate of higher order up to 3 and a path of 64..511 symbols.
    """
    violations = 0
    worst = 0.0
    for i in range(instances):
        base = derive_seed(seed, i)
        u = uniform_block(base, 0, 4)
        m = 2 + int(u[0] * 2) % 2
        r_star = int(u[1] * 2) % 2
        r = r_star + 1 + int(u[2] * (3 - r_star)) % (3 - r_star)
        n = 64 + int(u[3] * 448)
        truth = random_model(m, r_star, derive_seed(base, 1))
        candidate = random_model(m, r, derive_seed(base, 2))
        path = sample_paths(truth, n, derive_seed(base, 3))[0]
        counts = build_counts(path, r, m)
        mix = mixture_kernel(candidate, truth, r)
        mix_truth = mixture_kernel(truth, truth, r)
        r_n = bernstein_norm(truth, mix, path, r, n)
        h_n = hellinger_path_distance(counts, mix, mix_truth)
        ratio, violated = _compare(r_n, 8.0 * h_n)
        worst = max(worst, ratio)
        violations += violated
    return InstanceBatteryReport("norm-bound", instances, instances, violations, worst)


def hellinger_sandwich_battery(
    instances: int,
    eta: float,
    n: int,
    rho: int,
    seed: int,
) -> InstanceBatteryReport:
    """Count-weighted vs stationary Hellinger distances on the typicality
    event: doubling the path multiplies the distance by at most
    4(1+eta)/(1-eta), and the per-window distance stays within a factor
    1/(1-eta) of the stationary one.  Instances without the event are
    skipped (the comparison presumes it), up to 20 attempts per instance;
    the compared kernels have order 2."""
    r = 2
    if rho > n // 2:
        raise ValueError(f"rho {rho} exceeds n/2 = {n // 2}")
    params = BoundParams(eta)
    accepted = attempts = violations = 0
    worst = 0.0
    while accepted < instances and attempts < instances * 20:
        base = derive_seed(seed, attempts)
        attempts += 1
        truth = random_model(2, 1, derive_seed(base, 1), floor=0.15)
        path = sample_paths(truth, 2 * n, derive_seed(base, 2))[0]
        # one table serves the typicality event and all three distances
        counts_n, counts_2n = prefix_counts(path, (n, 2 * n), max(rho, r), 2)
        if not all(typicality_check(truth, c, eta, rho) for c in (counts_n, counts_2n)):
            continue
        accepted += 1
        p_a = random_model(2, r, derive_seed(base, 3))
        p_b = random_model(2, r, derive_seed(base, 4))
        mix_a = mixture_kernel(p_a, truth, r)
        mix_b = mixture_kernel(p_b, truth, r)
        h_n = hellinger_path_distance(counts_n, mix_a, mix_b)
        h_2n = hellinger_path_distance(counts_2n, mix_a, mix_b)
        h_stat = hellinger_stationary_distance(truth, mix_a, mix_b)
        checks = [
            (h_2n, params.C3 * h_n),
            ((n - r) / params.C4 * h_stat, h_n),
            (h_n, (n - r) * params.C4 * h_stat),
        ]
        for small, big in checks:
            ratio, violated = _compare(small, big)
            worst = max(worst, ratio)
            violations += violated
    return InstanceBatteryReport(
        "hellinger-sandwich", accepted, attempts, violations, worst
    )


def bracket_battery(
    truth: MarkovModel,
    n_kernels: int,
    n_paths: int,
    path_len: int,
    beta: float,
    r: int,
    seed: int,
) -> InstanceBatteryReport:
    """Bracket envelopes on random kernels: containment, the grid gap
    bound, and pathwise log-ratio envelopes on sampled paths."""
    m = truth.m
    weights = stationary_block_law(truth, r)
    supported = weights > 0.0
    gap_cap = np.full_like(weights, np.inf)
    gap_cap[supported] = beta / np.sqrt(weights[supported])
    paths = sample_paths(truth, path_len, derive_seed(seed, 10_000 + np.arange(n_paths)))
    violations = 0
    worst = 0.0
    for i in range(n_kernels):
        kernel = random_model(m, r, derive_seed(seed, i)).kernel
        lower, upper = bracket_grid(truth, kernel, beta)
        if np.any(lower > kernel + ABS_TOL) or np.any(upper < kernel - ABS_TOL):
            violations += 1
        gaps = np.sqrt(upper[supported]) - np.sqrt(lower[supported])
        ratio = float((gaps / gap_cap[supported][:, None]).max())
        worst = max(worst, ratio)
        if np.any(gaps > gap_cap[supported][:, None] * (1.0 + REL_TOL) + ABS_TOL):
            violations += 1
        for path in paths:
            lam, ups, xi = bracket_log_envelopes(truth, kernel, lower, upper, path, r)
            if np.any(lam > xi + ABS_TOL) or np.any(xi > ups + ABS_TOL):
                violations += 1
    return InstanceBatteryReport(
        "bracket", n_kernels * (n_paths + 1), n_kernels * (n_paths + 1), violations, worst
    )


@dataclass(frozen=True)
class BracketCountReport:
    samples: int
    distinct: int
    log_bound: float
    beta: float
    sigma: float
    delta: float

    @property
    def passed(self) -> bool:
        return math.log(max(self.distinct, 1)) <= self.log_bound


def bracket_count_check(
    truth: MarkovModel,
    r: int,
    sigma: float,
    n: int,
    samples: int,
    seed: int,
    eta: float = 0.5,
) -> BracketCountReport:
    """Count distinct brackets over kernels sampled from the Hellinger ball
    of radius sigma around the truth, against the entropy bound.

    beta is the grid pitch the entropy estimate prescribes for tolerance
    delta = c * sqrt((2n-r) sigma); the count of distinct
    (lower, upper) pairs hit by the sample must stay below
    exp(entropy_bound).
    """
    params = BoundParams(eta)
    m = truth.m
    delta = params.c * math.sqrt((2 * n - r) * sigma)
    log_bound = entropy_bound(n, r, sigma, delta, m, params.C5, c=params.c)
    beta = delta / math.sqrt(4.0 * params.C4 * (2 * n - r) * m ** (r + 1))
    table_t = lift_kernel(truth.kernel, m, r)
    weights = stationary_block_law(truth, r)
    sq_w = np.sqrt(np.where(weights > 0.0, weights, 0.0))[:, None]
    keys = set()
    accepted = 0
    spread = 2.0 * math.sqrt(sigma)
    attempt = 0
    while accepted < samples and attempt < 40:
        batch_seed = derive_seed(seed, attempt)
        scale = spread * 0.8**attempt
        u = uniform_block(batch_seed, 0, samples * table_t.size).reshape(
            samples, *table_t.shape
        )
        cand = np.clip(table_t[None, :, :] + scale * (2.0 * u - 1.0), 1e-9, None)
        cand /= cand.sum(axis=2, keepdims=True)
        mixed = 0.5 * (cand + table_t[None, :, :])
        gap = (np.sqrt(mixed) - np.sqrt(table_t[None, :, :])) ** 2
        dist = (weights[None, :] * gap.sum(axis=2)).sum(axis=1)
        inside = np.nonzero(dist <= sigma)[0]
        for idx in inside:
            if accepted >= samples:
                break
            accepted += 1
            z = sq_w * np.sqrt(cand[idx]) / beta
            keys.add((np.floor(z).astype(np.int64).tobytes(), np.ceil(z).astype(np.int64).tobytes()))
        attempt += 1
    if accepted < samples:
        raise RuntimeError(f"only {accepted} of {samples} kernels landed in the ball")
    return BracketCountReport(accepted, len(keys), log_bound, beta, sigma, delta)
