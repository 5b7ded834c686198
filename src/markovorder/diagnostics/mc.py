"""Monte Carlo verifiers for the tail bounds and distance comparisons.

Replication-heavy checks stream their lanes from ``model.step_lanes``,
the lockstep form of the one sampling kernel: all lanes of a chunk step
forward together, one vectorized step per position, and no lanes x n
array is ever stored.  ``step_lanes`` yields each lane's context code
itself, so a check reads its per-step tables by that code and by the
transition code ``ctx * m + sym``, as flat tables, with no re-coding per
step.  A chunk holds at most ``MAX_LANES`` lanes (fewer when its count
tables would pass ``CHUNK_BYTES``).  Lane i is bit-identical to
``sample_paths(truth, n, derive_seed(seed, i))[0]``, and a report is
reduced from per-lane values or exact integer counts once all chunks are
done, so chunking never changes a result.

The instance batteries compute their instances as arrays with a leading
instance axis: random kernels come as ``random_kernels`` stacks, paths as
kernel stacks from one ``sample_paths`` call, and laws, window counts,
mixtures, distances and norms as ``ModelStack`` tables, each entry the
float that one instance alone gives.  So their reports equal those of one
instance, and one sampler call, at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .._contexts import symbol_dtype, window_codes
from ..estimator import grid_logliks, required_depth_cap
from ..likelihood import (
    RunningOvershoot,
    lil_from_logliks,
    log_ratio_table,
    masked_log_ratio,
    mixture_kernel,
    true_transition_law,
)
from ..model import (
    MarkovModel,
    ModelStack,
    check_table,
    lift_kernel,
    random_kernels,
    sample_paths,
    stationary_block_law,
    step_lanes,
    true_order,
)
from ..penalty import CutoffSpec
from ..rng import derive_seed, uniform_block
from ..tally import sampled_counts
from .core import (
    BoundParams,
    _path_windows,
    bernstein_rates,
    bernstein_tail_bound,
    bracket_grid,
    bracket_log_envelopes,
    count_pitch,
    entropy_bound,
    hellinger_stationary_distance,
    typical,
    weighted_hellinger,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12
# lanes stepped together in one chunk; a lane-sized int64 temporary is then
# at most 64 KB, so a chunk's many per-step temporaries stay small
MAX_LANES = 1 << 13
CHUNK_BYTES = 64 << 20  # budget for one chunk's per-lane count tables or paths
# deviation_tail_mc zeroes and steps its lanes' int32 count tables chunk by
# chunk, so its time grows with their cells summed over all lanes; it takes
# at most this many (on two symbols at 20 000 lanes, order 10 takes 0.7 s)
DEVIATION_CELLS = 1 << 26
# deviation_tail_mc scores every eps of its grid on each chunk of lanes and
# reports a row for each; it takes at most this many
DEVIATION_EPS = 1 << 16


def _chunks(total: int, size: int):
    start = 0
    while start < total:
        yield start, min(start + size, total)
        start += size


def _depth_tables(table, head, i: int, m: int, deep: int, rho: int) -> list:
    """Each lane's depth-d context counts on its first i symbols, for
    d = 0..rho-1, derived from the flat lane-major ``table`` of its
    depth-``deep`` context counts (deep >= rho - 1), which is read once and
    never written; ``head`` codes each lane's first min(deep - 1, i) symbols.

    As in ``ContextCounts``, depth d is depth d + 1 with its oldest symbol
    summed away, plus the block of the first d symbols, the one d-block no
    (d + 1)-block ends with; unrolled, depth d is any depth e > d read
    modulo m**d, plus the d-blocks that end at positions d..e - 1.
    """
    lanes, h = head.shape[0], min(deep - 1, i)
    freq, above, tables = table, deep, []
    for d in range(rho - 1, -1, -1):
        if above > d:
            # a count never passes i, which the table's own type holds; einsum
            # adds the oldest digits away across all lanes at once, where
            # sum(axis=1) would add a short row of one lane at a time
            freq = np.einsum("lkt->lt", freq.reshape(lanes, m ** (above - d), m**d))
            # each lane's cells by flat index, in half the time of (row, cell) pairs
            flat, at = freq.reshape(-1), np.arange(lanes) * m**d
            for end in range(d, min(above - 1, i - 1) + 1):
                flat[at + head // m ** (h - end) % m**d] += 1
        tables.append(freq.reshape(lanes, m**d))
        above = d
    return tables[::-1]


# -- martingale maximum vs the closed-form tail ------------------------------


class BernsteinRow(NamedTuple):
    alpha: float
    empirical: float
    bound: float
    margin: float
    passed: bool


class BernsteinMcReport(NamedTuple):
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
    mixture; R_n its predictable phi-norm, to which each step adds the
    ``bernstein_rates`` entry of its context.  A pass means the frequency
    stays within three binomial sigmas of the bound.
    """
    if replications < 10**4:
        raise ValueError("need at least 1e4 replications for a meaningful tail")
    mix = mixture_kernel(candidate, truth, r)
    table_t, log_ratio = log_ratio_table(truth, mix)
    d_step = -(table_t * log_ratio).sum(axis=1)
    # the martingale step by transition code ctx * m + sym
    inc = (log_ratio + d_step[:, None]).ravel()
    m = truth.m
    r_step = bernstein_rates(truth, mix)
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
            mval += inc[ctx * m + sym]
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


class DeviationRow(NamedTuple):
    eps: float
    frequency: float


class DeviationTailReport(NamedTuple):
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


def deviation_lane_cells(m: int, r: int, rho: int, replications: int) -> int:
    """The int32 count cells of one ``deviation_tail_mc`` lane: its order-r
    transition and context tables, and its typicality window table when
    that is longer, each within ``check_table``.  Raises ValueError when the
    ``replications`` lanes hold more than DEVIATION_CELLS in all."""
    window = max(r + 1, rho - 1)
    cells = m ** (r + 1) + m**r + (m**window if window > r + 1 else 0)
    if replications * cells > DEVIATION_CELLS:
        raise ValueError(
            f"{replications} lanes of {cells} count cells each (order {r}, rho {rho}) "
            f"pass the {DEVIATION_CELLS} cells one deviation check may take"
        )
    return cells


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
    if n <= r:
        raise ValueError(f"n {n} must exceed the order {r}")
    if rho > n // 2:
        raise ValueError(f"rho {rho} exceeds n/2 = {n // 2}")
    m, r0 = truth.m, truth.order
    length = 2 * n
    size_r = m**r
    # a lane's typicality counts derive from one table (_depth_tables): the
    # overshoot's context table when rho - 1 <= r, else its windows of
    # rho - 1 symbols, at rho - 1 = r + 1 the overshoot's transition table
    deep = max(r, rho - 1)
    check_table(m, max(r + 1, deep))
    lane_cells = deviation_lane_cells(m, r, rho, replications)
    extra = m**deep if deep > r + 1 else 0
    log_p = masked_log_ratio(true_transition_law(truth, r), 1.0)
    eps = np.array([float(e) for e in eps_grid])
    if eps.shape[0] > DEVIATION_EPS:
        raise ValueError(f"{eps.shape[0]} eps values pass the {DEVIATION_EPS} one check may take")
    hits = np.zeros(eps.shape[0], dtype=np.int64)
    f_count = 0
    # step_lanes codes max(deep, r0) symbols; the overshoot reads the
    # newest r of them
    cut = max(deep, r0) > r
    lane_bytes = 4 * lane_cells  # int32 tables
    for lo, hi in _chunks(replications, max(1, min(MAX_LANES, CHUNK_BYTES // lane_bytes))):
        seeds = derive_seed(seed, np.arange(lo, hi))
        reps = seeds.shape[0]
        run = RunningOvershoot(reps, m, r, length, log_p)
        windows = np.zeros(reps * extra, dtype=np.int32) if extra else run.trans
        table = run.ctx if deep == r else windows
        lane_at = np.arange(reps, dtype=np.int64) * m**deep
        head = np.zeros(reps, dtype=np.int64)
        good = np.ones(reps, dtype=bool)
        for i, ctx, sym in step_lanes(truth, length, seeds, deep):
            trans = ctx * m + sym
            if i < deep:
                head = trans  # the first i symbols
            elif extra:
                windows[lane_at + trans % extra] += 1
            if i > r:
                # before step n only the transition table grows, and the
                # order-r context code is not read
                at = trans % (size_r * m) if cut else trans
                if i < n:
                    run.count(at)
                else:
                    run.step(ctx % size_r if cut else ctx, at)
            if i == n or i == length:
                # a window table holds the window ending at i, no context yet: it
                # is taken out while the depths are read (the context table holds none)
                newest = lane_at + trans % m**deep if deep > r else lane_at[:0]
                table[newest] -= 1
                good &= typical(truth, _depth_tables(table, head, i, m, deep, rho), i, eta)
                table[newest] += 1
        f_count += int(np.count_nonzero(good))
        for j in range(eps.shape[0]):
            hits[j] += int(np.count_nonzero(good & (run.best >= eps[j])))
    freqs = hits / replications
    usable = freqs > 10.0 / replications
    slope = intercept = r2 = float("nan")
    x = eps[usable]
    if x.size >= 2 and x.min() < x.max():  # a line needs two distinct eps
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


class LilPoint(NamedTuple):
    n: int
    kappa: int
    value: float
    normalized: float


class LilTrajectoryReport(NamedTuple):
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
    # the path is sampled straight into its counts, so no array bounds its length
    if grid[0] < 16 or grid[-1] >= 2**48:
        raise ValueError("checkpoints must lie in 16..2**48 - 1")
    m = truth.m
    depth = required_depth_cap(cutoff, grid, m)
    points = []
    for n, logliks in grid_logliks(sampled_counts(truth, seed, grid, depth), m, cutoff, grid):
        value = lil_from_logliks(logliks[r_star:], r_star, m)
        norm = value / math.log(math.log(n))
        points.append(LilPoint(n, len(logliks), value, norm))
    xs = np.log2([p.n for p in points])
    ys = np.array([p.normalized for p in points])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(points) > 1 else 0.0
    return LilTrajectoryReport(tuple(points), float(ys.max()), slope)


# -- typicality trend ---------------------------------------------------------


class TypicalityTrendReport(NamedTuple):
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


def _within_chunk(held: int, what: str) -> int:
    """``held``, the bytes ``what`` takes, once checked against CHUNK_BYTES."""
    if held > CHUNK_BYTES:
        raise ValueError(f"{what} takes {held} bytes, past {CHUNK_BYTES}")
    return held


def typicality_lane_bytes(m: int, rho: int, n_large: int) -> int:
    """The bytes of one ``typicality_trend`` lane.  The depth tables of the
    first rho depths derive from the deepest, a path's windows of rho - 1
    symbols, within ``check_table``; a path takes n_large symbols, sampled
    whole, and its int64 depth tables and their float deviations at most
    24 * m**max(rho, 1) bytes.  Raises ValueError past CHUNK_BYTES."""
    check_table(m, max(rho - 1, 0))
    lane = symbol_dtype(m).itemsize * n_large + 24 * m ** max(rho, 1)
    return _within_chunk(lane, f"a lane of {n_large} symbols")


def bracket_path_bytes(m: int, r: int, n_paths: int, path_len: int) -> int:
    """The bytes of ``bracket_battery``'s paths and of their int64 tables
    of the m**(r + 1) transitions.  Raises ValueError past CHUNK_BYTES."""
    held = n_paths * (symbol_dtype(m).itemsize * path_len + 8 * m ** (r + 1))
    return _within_chunk(held, f"a battery of {n_paths} paths of {path_len} symbols")


def bracket_sample_bytes(cells: int, samples: int) -> int:
    """The bytes of ``bracket_count_check``'s int64 keys (16 a cell) and of
    its float64 draws and the candidates, mixtures and gaps made of them
    (32 a cell).  Raises ValueError past CHUNK_BYTES."""
    return _within_chunk(48 * samples * cells, f"a sample of {samples} kernels of {cells} cells")


def typicality_trend(
    truth: MarkovModel,
    eta: float,
    rho: int,
    n_small: int,
    n_large: int,
    seeds: int,
    seed: int,
) -> TypicalityTrendReport:
    """How often the typicality event holds at two path lengths, read from
    the window tallies of each chunk of paths (``_path_context_counts``)."""
    if n_small >= n_large:
        raise ValueError(f"n_small {n_small} must be below n_large {n_large}")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if rho >= n_small:
        raise ValueError(f"rho {rho} must be below n_small {n_small}")
    m = truth.m
    holds = [0, 0]
    depth = max(rho, 1)
    lane_bytes = typicality_lane_bytes(m, rho, n_large)
    for lo, hi in _chunks(seeds, max(1, CHUNK_BYTES // lane_bytes)):
        paths = sample_paths(truth, n_large, derive_seed(seed, np.arange(lo, hi)))
        for k, n in enumerate((n_small, n_large)):
            held = typical(truth, _path_context_counts(paths, n, m, depth)[:rho], n, eta)
            holds[k] += int(np.count_nonzero(np.broadcast_to(held, hi - lo)))
    return TypicalityTrendReport(eta, rho, n_small, n_large, seeds, *holds)


# -- instance batteries for the distance and norm comparisons ----------------


class InstanceBatteryReport(NamedTuple):
    name: str
    instances: int
    attempted: int
    violations: int
    worst_ratio: float

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.instances > 0


def _compare(small, big):
    """The ratio small / big, and whether small exceeds big beyond the
    REL_TOL and ABS_TOL slack, entry by entry.  At big = 0 the ratio is 1
    for a small within ABS_TOL of 0, else inf."""
    small, big = np.broadcast_arrays(np.asarray(small, float), np.asarray(big, float))
    ratio = np.where(small <= ABS_TOL, 1.0, np.inf)
    np.divide(small, big, out=ratio, where=big > 0)
    # [()] reads a 0-d result as a scalar and leaves arrays as they are
    return ratio[()], (small > big * (1.0 + REL_TOL) + ABS_TOL)[()]


def _path_context_counts(paths: np.ndarray, ends, m: int, depth: int) -> list:
    """Each row's depth-d context counts, d < depth, on its first ``ends``
    symbols (each end at least ``depth``), derived by ``_depth_tables``
    from its depth-(depth - 1) context counts, the ``_path_windows`` table
    of its windows of depth - 1 symbols that end before its end."""
    deep = depth - 1
    table = _path_windows(paths, np.asarray(ends) - 1, m, deep)
    head = window_codes(paths[:, : max(deep - 1, 0)], max(deep - 1, 0), m)[:, 0]
    return _depth_tables(table, head, int(np.min(ends)), m, deep, depth)


def norm_bound_battery(instances: int, seed: int) -> InstanceBatteryReport:
    """Bernstein norm against eight times the count-weighted Hellinger
    distance on random (truth, candidate, path) triples; the inequality is
    exact, so any violation beyond 1e-9 relative slack counts.

    Each triple draws an alphabet of 2 or 3 symbols, a truth of order 0 or
    1, a candidate of higher order up to 3 and a path of 64..511 symbols.
    The truths of one alphabet and order are sampled as one kernel stack,
    at the longest path length among them: a path's first n symbols do not
    depend on the length sampled.  The triples that also share the
    candidate order are checked as stacks, each path's context counts tallied
    once, to its own length, and weighed for both the norm and the distance.
    """
    bases = derive_seed(seed, np.arange(instances))
    u = uniform_block(bases, 0, 4)
    ms = 2 + (u[:, 0] * 2).astype(np.int64) % 2
    r_stars = (u[:, 1] * 2).astype(np.int64) % 2
    rs = r_stars + 1 + (u[:, 2] * (3 - r_stars)).astype(np.int64) % (3 - r_stars)
    ns = 64 + (u[:, 3] * 448).astype(np.int64)
    truth_seeds, cand_seeds, path_seeds = (derive_seed(bases, j) for j in (1, 2, 3))
    violations = 0
    worst = 0.0
    for m, r_star in sorted(set(zip(ms.tolist(), r_stars.tolist()))):
        group = np.flatnonzero((ms == m) & (r_stars == r_star))
        truths = random_kernels(m, r_star, truth_seeds[group])
        paths = sample_paths(ModelStack(truths), int(ns[group].max()), path_seeds[group])
        for r in sorted(set(rs[group].tolist())):
            sub = rs[group] == r
            members = group[sub]
            truth = ModelStack(truths[sub])
            mix = mixture_kernel(ModelStack(random_kernels(m, r, cand_seeds[members])), truth, r)
            counts = _path_windows(paths[sub], ns[members] - 1, m, r).reshape(-1, m**r)
            r_n = (counts * bernstein_rates(truth, mix)).sum(axis=-1)
            h_n = weighted_hellinger(counts, mix, mixture_kernel(truth, truth, r))
            ratio, violated = _compare(r_n, 8.0 * h_n)
            worst = max(worst, float(ratio.max()))
            violations += int(np.count_nonzero(violated))
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
    the compared kernels have order 2.

    Attempts come a chunk at a time, as many as the acceptance seen so far
    says the missing instances need (within ``CHUNK_BYTES`` of paths and
    count tables), and each chunk is one kernel stack: its paths are
    sampled together, and its typicality events and distances are computed
    as arrays with one entry per attempt.  The attempts are then taken in
    order up to the one that completes the count, where the battery stops.
    """
    r = 2
    if rho > n // 2:
        raise ValueError(f"rho {rho} exceeds n/2 = {n // 2}")
    if n <= r:
        raise ValueError(f"n {n} must exceed the kernels' order {r}")
    # typicality reads the depths below rho, the distances depth r, all
    # derived from its windows of depth - 1 symbols (_path_context_counts)
    depth = max(rho, r + 1)
    check_table(2, depth - 1)
    params = BoundParams(eta)
    accepted = attempts = violations = 0
    worst = 0.0
    limit = instances * 20
    while accepted < instances and attempts < limit:
        # attempts enough for the missing instances at the acceptance seen
        # so far: all of them before the first attempt, none after no hit
        need = instances - accepted
        chunk = -(-need * attempts // accepted) if accepted else (limit if attempts else need)
        # a path takes 2n bytes and the two lists of its int64 count tables
        # 8 * 2**depth each, the deepest of each list its window table
        attempt_bytes = 2 * n + 16 * 2**depth
        chunk = min(chunk, limit - attempts, max(1, CHUNK_BYTES // attempt_bytes))
        bases = derive_seed(seed, np.arange(attempts, attempts + chunk))
        truths = ModelStack(random_kernels(2, 1, derive_seed(bases, 1), floor=0.15))
        paths = sample_paths(truths, 2 * n, derive_seed(bases, 2))
        counts = [_path_context_counts(paths, i, 2, depth) for i in (n, 2 * n)]
        held = np.ones(chunk, dtype=bool)
        for i, by_depth in zip((n, 2 * n), counts):
            held &= typical(truths, by_depth[:rho], i, eta)
        hits = np.cumsum(held)
        scanned = int(np.searchsorted(hits, need)) + 1 if hits[-1] >= need else chunk
        attempts += scanned
        taken = np.flatnonzero(held[:scanned])
        accepted += taken.size
        mix_a, mix_b = (
            mixture_kernel(ModelStack(random_kernels(2, r, derive_seed(bases, j))), truths, r)
            for j in (3, 4)
        )
        h_n, h_2n = (weighted_hellinger(by_depth[r], mix_a, mix_b) for by_depth in counts)
        h_stat = hellinger_stationary_distance(truths, mix_a, mix_b)
        small = np.stack([h_2n, (n - r) / params.C4 * h_stat, h_n])
        big = np.stack([params.C3 * h_n, h_n, (n - r) * params.C4 * h_stat])
        ratio, violated = _compare(small[:, taken], big[:, taken])
        worst = max(worst, float(ratio.max(initial=0.0)))
        violations += int(np.count_nonzero(violated))
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
    bound, and pathwise log-ratio envelopes on sampled paths.

    The kernels are bracketed as stacks.  A path's envelopes at a step
    depend only on the step's (context, symbol), so a path violates them
    under a kernel exactly when it takes a transition whose table entries
    do: one product of the kernels' violation tables with the paths'
    transition counts finds every such pair.
    """
    m = truth.m
    weights = stationary_block_law(truth, r)
    supported = weights > 0.0
    gap_cap = beta / np.sqrt(weights[supported])[:, None]
    table_t = lift_kernel(truth.kernel, m, r)
    bracket_path_bytes(m, r, n_paths, path_len)
    paths = sample_paths(truth, path_len, derive_seed(seed, 10_000 + np.arange(n_paths)))
    # how often each path takes each transition (context, symbol): its
    # windows of r + 1 symbols
    taken = _path_windows(paths, path_len, m, r + 1).reshape(n_paths, m ** (r + 1))
    violations = 0
    worst = 0.0
    per_kernel = 8 * (16 * m ** (r + 1) + n_paths)  # bytes of one kernel's tables
    for lo, hi in _chunks(n_kernels, max(1, CHUNK_BYTES // per_kernel)):
        kernels = random_kernels(m, r, derive_seed(seed, np.arange(lo, hi)))
        lower, upper = bracket_grid(truth, kernels, beta)
        outside = (lower > kernels + ABS_TOL) | (upper < kernels - ABS_TOL)
        gaps = np.sqrt(upper[:, supported]) - np.sqrt(lower[:, supported])
        worst = max(worst, float((gaps / gap_cap).max()))
        wide = gaps > gap_cap * (1.0 + REL_TOL) + ABS_TOL
        lam, ups, xi = bracket_log_envelopes(table_t, kernels, lower, upper)
        bad = ((lam > xi + ABS_TOL) | (xi > ups + ABS_TOL)).reshape(hi - lo, -1)
        violations += int(outside.any(axis=(1, 2)).sum() + wide.any(axis=(1, 2)).sum())
        # one per (kernel, path) pair whose path takes a bad transition
        violations += int(np.count_nonzero(bad.astype(np.int64) @ taken.T))
    return InstanceBatteryReport(
        "bracket", n_kernels * (n_paths + 1), n_kernels * (n_paths + 1), violations, worst
    )


class BracketCountReport(NamedTuple):
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
    exp(entropy_bound).  The kernels an attempt accepts are bracketed
    together, and the distinct brackets counted once, among sorted rows.
    """
    params = BoundParams(eta)
    m = truth.m
    delta, beta = count_pitch(m, r, n, sigma, eta)
    log_bound = entropy_bound(n, r, sigma, delta, m, params.C5, c=params.c)
    table_t = lift_kernel(truth.kernel, m, r)
    weights = stationary_block_law(truth, r)
    sq_w = np.sqrt(np.where(weights > 0.0, weights, 0.0))[:, None]
    bracket_sample_bytes(table_t.size, samples)
    # a bracket is the row of its int64 floor and ceil tables
    keys = np.empty((samples, 2) + table_t.shape, dtype=np.int64)
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
        inside = np.flatnonzero(dist <= sigma)[: samples - accepted]
        z = sq_w * np.sqrt(cand[inside]) / beta
        keys[accepted : accepted + inside.size, 0] = np.floor(z)
        keys[accepted : accepted + inside.size, 1] = np.ceil(z)
        accepted += inside.size
        attempt += 1
    if accepted < samples:
        raise RuntimeError(f"only {accepted} of {samples} kernels landed in the ball")
    # sorted, equal brackets sit next to each other (np.unique would also
    # import numpy.ma, a megabyte of peak memory)
    keys = keys.reshape(samples, -1)
    keys = keys[np.lexsort(keys.T)]
    distinct = int(np.count_nonzero((keys[1:] != keys[:-1]).any(axis=1))) + min(samples, 1)
    return BracketCountReport(accepted, distinct, log_bound, beta, sigma, delta)
