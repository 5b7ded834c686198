"""Typicality events, Hellinger-type distances, Bernstein norms, bracket
grids, and the closed-form tail bounds they feed.

Conventions shared across this module: mixtures are always taken against
the true kernel, contexts with zero stationary probability are excluded
from typicality and bracket constraints (a stationary path never visits
them), and ``phi(x) = exp(x) - x - 1`` is the exponential-moment remainder
behind every Bernstein-type bound.
"""

from __future__ import annotations

import math

import numpy as np

from .._contexts import window_codes
from ..counts import ContextCounts, prefix_counts
from ..likelihood import MixtureKernel, log_ratio_table, masked_log_ratio
from ..model import MarkovModel, stationary_block_law

_PHI_SERIES_CUT = 1e-4
# _path_windows, which counts the windows of bernstein_norm and the
# batteries, reads the rows of a stack of paths a few at a time, about this
# many symbols, so that each int64 temporary stays within 64 KB
ROW_CELLS = 1 << 13
# bracket_count_check keys a bracket by its grid positions, integers up to
# 1 / beta, which float64 holds exactly below EXACT_KEYS
EXACT_KEYS = 2.0**53


def phi(x):
    """exp(x) - x - 1: convex, nonnegative, phi(0) = 0.

    Evaluated by series below |x| = 1e-4 where the direct form cancels
    catastrophically.
    """
    arr = np.asarray(x, dtype=np.float64)
    small = np.abs(arr) < _PHI_SERIES_CUT
    safe = np.where(small, 0.0, arr)
    direct = np.expm1(safe) - safe
    series = 0.5 * arr * arr * (1.0 + arr / 3.0 + arr * arr / 12.0)
    out = np.where(small, series, direct)
    if np.ndim(x) == 0:
        return float(out)
    return out


def typicality_deviations(truth, context_counts, n: int) -> list:
    """Worst relative deviation ``|N(a) / ((n-d) P*(a)) - 1|`` over the
    supported depth-d contexts a, for each depth d.

    ``context_counts`` yields the depth-d counts of an n-symbol path for
    d = 0, 1, .., with any leading lane axes; the result holds one array
    (or scalar) per depth.
    ``truth`` is one model for every lane, or a ``ModelStack`` whose kernel
    g is the truth of lane g, so that P* is each lane's own law.
    """
    devs = []
    for d, freq in enumerate(context_counts):
        p = stationary_block_law(truth, d)
        shape = np.broadcast_shapes(np.shape(freq), p.shape)
        # numpy takes the maximum over a short trailing axis one lane at a
        # time, so a table of more lanes than contexts is divided into
        # context-major ratios, whose maximum runs across all lanes at once
        major = len(shape) == 2 and shape[0] > shape[1]
        if major:
            shape = shape[::-1]
            freq, p = (np.atleast_2d(x).T for x in (freq, p))
        # an unsupported context reads ratio 1, a deviation of 0; the lane
        # tables are large, so the deviations are taken in place
        ratio = np.ones(shape)
        np.divide(freq, (n - d) * p, out=ratio, where=p > 0.0)
        ratio -= 1.0
        devs.append(np.abs(ratio, out=ratio).max(axis=0 if major else -1))
    return devs


def typical(truth, context_counts, n: int, eta: float):
    """Whether every deviation (``typicality_deviations``) of the depth
    tables of an n-symbol path is strictly below eta: one bool per lane,
    and True when there is no depth."""
    held = True
    for dev in typicality_deviations(truth, context_counts, n):
        held = held & (dev < eta)
    return held


def typicality_check(
    truth: MarkovModel, counts: ContextCounts, eta: float, rho_n: int
) -> bool:
    """Whether the typicality event holds: N(a)/((n-r) P*(a)) against 1 for
    every depth r < rho_n.

    Only contexts with positive stationary probability participate; the
    event holds when every deviation (``typicality_deviations``) is
    strictly below eta.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if rho_n > counts.depth_cap:
        raise ValueError(f"rho {rho_n} exceeds the depth cap {counts.depth_cap}")
    by_depth = [counts.context_counts(r) for r in range(rho_n)]
    return bool(typical(truth, by_depth, counts.n, eta))


def event_F(truth: MarkovModel, path, eta: float, rho: int) -> bool:
    """Typicality at the half-length prefix and at the full path, jointly.

    The path length must be even (say 2n) and rho at most n/2.
    """
    symbols = np.asarray(path, dtype=np.int64)
    length = symbols.shape[0]
    if length % 2:
        raise ValueError(f"path length must be even, got {length}")
    half = length // 2
    if rho > half // 2:
        raise ValueError(f"rho {rho} exceeds n/2 = {half // 2}")
    # both lengths are counted in one pass before either is checked
    tables = prefix_counts((symbols,), (half, length), min(rho, half - 1), truth.m)
    return all(typicality_check(truth, counts, eta, rho) for counts in tables)


def weighted_hellinger(weights, mix_a: MixtureKernel, mix_b: MixtureKernel):
    """``sum_a w(a) sum_b (sqrt A(b|a) - sqrt B(b|a))**2`` over the contexts
    a of the kernels' common order.

    With leading axes on the weights or the tables (stacked mixtures), the
    sums run over the trailing axes, one value per lane.
    """
    if mix_a.order != mix_b.order or mix_a.m != mix_b.m:
        raise ValueError("kernels must share one order and alphabet")
    gap = (np.sqrt(mix_a.table) - np.sqrt(mix_b.table)) ** 2
    out = (weights * gap.sum(axis=-1)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def hellinger_path_distance(
    counts: ContextCounts, mix_a: MixtureKernel, mix_b: MixtureKernel
) -> float:
    """Count-weighted squared Hellinger distance between two kernels.

    ``sum_a N(a) sum_b (sqrt A(b|a) - sqrt B(b|a))**2`` at the kernels'
    common order.
    """
    return weighted_hellinger(counts.context_counts(mix_a.order), mix_a, mix_b)


def hellinger_stationary_distance(truth, mix_a: MixtureKernel, mix_b: MixtureKernel):
    """Stationary-weighted squared Hellinger distance between two kernels
    (one per lane for a ``ModelStack`` of truths and stacked mixtures)."""
    return weighted_hellinger(stationary_block_law(truth, mix_a.order), mix_a, mix_b)


def _path_windows(paths: np.ndarray, ends, m: int, length: int) -> np.ndarray:
    """Each row's tally of its windows of ``length`` symbols that end at
    positions length..ends (one end for every row, or one per row), as one
    flat int64 table of rows * m**length cells, tallied by bincounts of
    lane-offset window codes, ``ROW_CELLS`` symbols at a time.  With ends
    one short of the rows' lengths, it holds their depth-``length``
    context counts.
    """
    lanes = paths.shape[0]
    ends = np.broadcast_to(ends, (lanes,))
    size = m**length
    windows = np.empty(lanes * size, dtype=np.int64)
    every = max(1, ROW_CELLS // paths.shape[1])
    for lo in range(0, lanes, every):
        hi = min(lo + every, lanes)
        # window t of a row ends at position length + t
        codes = window_codes(paths[lo:hi, : ends[lo:hi].max()], length, m)
        valid = np.arange(codes.shape[1]) <= ends[lo:hi, None] - length
        lane_at = np.arange(hi - lo, dtype=np.int64)[:, None] * size
        windows[lo * size : hi * size] = np.bincount(
            (codes + lane_at)[valid], minlength=(hi - lo) * size
        )
    return windows


def bernstein_rates(truth, mix: MixtureKernel) -> np.ndarray:
    """``8 sum_b P*(b|a) phi(|log(mix/P*)|/2)`` for each context a of the
    mixture's order, the phi-norm term of a step from a; a ``ModelStack`` of
    truths with stacked mixtures gives one row per kernel."""
    t_rows, log_ratio = log_ratio_table(truth, mix)
    return 8.0 * (t_rows * phi(0.5 * np.abs(log_ratio))).sum(axis=-1)


def bernstein_norm(truth, mix: MixtureKernel, path, r: int, up_to):
    """Predictable phi-norm of the half log-ratio increments along a path.

    ``8 sum_{i=r+1}^{up_to} sum_a P*(a|ctx_i) phi(|log(mix/P*)|/2)``; this is
    the quantity that controls the martingale tails and never exceeds eight
    times the count-weighted Hellinger distance to the truth.  A step's term
    depends on its context alone, so the norm weighs the depth-r context
    counts of steps r+1..up_to with ``bernstein_rates``, as that distance does.

    For a ``ModelStack`` of truths and stacked mixtures, ``path`` holds one
    path per kernel as the rows of a 2-d array and ``up_to`` one length per
    row (or one for all), and the result holds one norm per row, each the
    float the row alone gives.
    """
    if r != mix.order:
        raise ValueError(f"order {r} does not match the mixture order {mix.order}")
    symbols = np.asarray(path)
    lanes = symbols.reshape(-1, symbols.shape[-1])
    ends = np.broadcast_to(up_to, lanes.shape[:1]).astype(np.int64)
    if np.any(ends > lanes.shape[1]):
        raise ValueError(f"up_to {up_to} exceeds path length {lanes.shape[1]}")
    # the contexts of steps r+1..up_to are the windows that end at r..up_to-1
    counts = _path_windows(lanes, ends - 1, mix.m, r).reshape(lanes.shape[0], -1)
    norms = (counts * bernstein_rates(truth, mix)).sum(axis=-1)
    return float(norms[0]) if symbols.ndim == 1 else norms


# -- bracket grids -----------------------------------------------------------


def bracket_grid(
    truth: MarkovModel, kernel: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper envelopes of a kernel on a sqrt-weighted grid of pitch beta.

    For each context a and symbol b the value sqrt(P*(a)) sqrt(P(b|a)) is
    rounded down/up to the grid beta * Z+, giving functions with
    lower <= P <= upper and sqrt(upper) - sqrt(lower) <= beta / sqrt(P*(a))
    on supported contexts.  Contexts with P*(a) = 0 carry no constraint and
    get lower = upper = P.  A stack of kernels (leading axes) is bracketed
    kernel by kernel.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    kernel = np.asarray(kernel, dtype=np.float64)
    size, m = kernel.shape[-2:]
    r = 0
    while truth.m**r < size:
        r += 1
    if truth.m**r != size or truth.m != m:
        raise ValueError("kernel shape does not match the truth's alphabet")
    weights = stationary_block_law(truth, r)
    check_envelopes(weights, beta)
    lower = kernel.copy()
    upper = kernel.copy()
    supported = weights > 0.0
    w = np.sqrt(weights[supported])[:, None]
    z = w * np.sqrt(kernel[..., supported, :]) / beta
    lower[..., supported, :] = (np.floor(z) * beta / w) ** 2
    upper[..., supported, :] = (np.ceil(z) * beta / w) ** 2
    return lower, upper


def check_envelopes(weights: np.ndarray, beta: float) -> None:
    """Raise ValueError unless every upper envelope ``bracket_grid`` gives at
    pitch beta is finite: on a context of stationary weight w > 0 it is at
    most (1 + beta / sqrt(w))**2."""
    top = 1.0 + beta / math.sqrt(float(weights[weights > 0.0].min()))
    if not math.isfinite(top * top):
        raise ValueError(f"beta {beta}: an upper envelope passes the largest float")


def count_pitch(m: int, r: int, n: int, sigma: float, eta: float) -> tuple[float, float]:
    """The tolerance delta = c sqrt((2n - r) sigma) of ``bracket_count_check``
    and its grid pitch beta; raises ValueError when 1 / beta reaches
    EXACT_KEYS, past which the grid positions are not exact integers."""
    params = BoundParams(eta)
    delta = params.c * math.sqrt((2 * n - r) * sigma)
    beta = delta / math.sqrt(4.0 * params.C4 * (2 * n - r) * m ** (r + 1))
    if not beta * EXACT_KEYS > 1.0:
        raise ValueError(
            f"sigma {sigma}: the bracket grid pitch {beta:.3g} leaves keys past 2**53 inexact"
        )
    return delta, beta


def bracket_log_envelopes(
    table_t: np.ndarray, kernel: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-ratio envelopes built from a bracket pair, by (context, symbol).

    ``table_t`` is the truth's kernel lifted to the kernel's order.  Returns
    (Lambda, Upsilon, xi), tables of the kernel's shape (leading axes
    included): xi is the log-ratio of the truth-mixed kernel against the
    truth, and Lambda/Upsilon the same transform of the bracket envelopes,
    0 where the truth puts no mass; Lambda <= xi <= Upsilon entrywise
    whenever lower <= kernel <= upper.  A path's envelopes at a step from
    order-r context a to symbol b are the entries [a, b].
    """

    def logratio(table):
        return masked_log_ratio(0.5 * (np.asarray(table, dtype=np.float64) + table_t), table_t)

    return logratio(lower), logratio(upper), logratio(kernel)


def entropy_bound(
    n: int,
    r: int,
    sigma: float,
    delta: float,
    m: int,
    C5: float,
    c: float | None = None,
) -> float:
    """Bracketing-entropy bound ``m**(r+1) log(C5 sqrt((2n-r) sigma) / delta)``.

    When ``c`` is given the admissible range 0 < delta <= c sqrt((2n-r) sigma)
    is enforced.
    """
    if sigma <= 0 or delta <= 0:
        raise ValueError("sigma and delta must be > 0")
    scale = math.sqrt((2 * n - r) * sigma)
    if c is not None and delta > c * scale:
        raise ValueError(f"delta {delta} outside the admissible range (0, {c * scale}]")
    return m ** (r + 1) * math.log(C5 * scale / delta)


# -- closed-form tail bounds -------------------------------------------------


def bernstein_tail_bound(alpha: float, K: float, R: float) -> float:
    """exp(-alpha**2 / (2 (K alpha + R))): tail of a phi-controlled martingale
    maximum at level alpha under a predictable-norm cap R."""
    if alpha <= 0 or K <= 0 or R <= 0:
        raise ValueError("alpha, K and R must be > 0")
    return math.exp(-(alpha**2) / (2.0 * (K * alpha + R)))


# -- named constants ---------------------------------------------------------


class BoundParams:
    """The constants the sandwich and bracket checks read.

    C3 and C4 are the explicit values the count/stationary Hellinger
    comparison yields at a given eta; c and C5, the bracketing-entropy
    constants, follow from them.
    """

    def __init__(self, eta: float):
        if not 0.0 < eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        self.C3 = 4.0 * (1.0 + eta) / (1.0 - eta)
        self.C4 = 1.0 / (1.0 - eta)
        self.c = math.sqrt(8.0 * self.C3 / self.C4)
        self.C5 = (8.0 * math.sqrt(self.C4) + self.c) * math.sqrt(2.0 * math.pi * math.e)
