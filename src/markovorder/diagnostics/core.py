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

from .._contexts import context_codes
from ..counts import ContextCounts, prefix_counts
from ..likelihood import MixtureKernel, log_ratio_rows, masked_log_ratio
from ..model import MarkovModel, lift_kernel, stationary_block_law

_PHI_SERIES_CUT = 1e-4


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


def typicality_deviations(truth: MarkovModel, context_counts, n: int) -> list:
    """Worst relative deviation ``|N(a) / ((n-d) P*(a)) - 1|`` over the
    supported depth-d contexts a, for each depth d.

    ``context_counts[d]`` holds the depth-d counts of an n-symbol path, with
    any leading lane axes; the result holds one array (or scalar) per depth.
    """
    devs = []
    for d, freq in enumerate(context_counts):
        p = stationary_block_law(truth, d)
        supported = p > 0.0
        ratio = freq[..., supported] / ((n - d) * p[supported])
        devs.append(np.abs(ratio - 1.0).max(axis=-1, initial=0.0))
    return devs


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
    return all(d < eta for d in typicality_deviations(truth, by_depth, counts.n))


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
    # the prefix table is extended only when the prefix is typical
    tables = prefix_counts(symbols, (half, length), min(rho, half - 1), truth.m)
    return all(typicality_check(truth, counts, eta, rho) for counts in tables)


def _weighted_hellinger(weights, mix_a: MixtureKernel, mix_b: MixtureKernel) -> float:
    """``sum_a w(a) sum_b (sqrt A(b|a) - sqrt B(b|a))**2`` over the contexts
    a of the kernels' common order."""
    if mix_a.order != mix_b.order or mix_a.m != mix_b.m:
        raise ValueError("kernels must share one order and alphabet")
    gap = (np.sqrt(mix_a.table) - np.sqrt(mix_b.table)) ** 2
    return float((weights * gap.sum(axis=1)).sum())


def hellinger_path_distance(
    counts: ContextCounts, mix_a: MixtureKernel, mix_b: MixtureKernel
) -> float:
    """Count-weighted squared Hellinger distance between two kernels.

    ``sum_a N(a) sum_b (sqrt A(b|a) - sqrt B(b|a))**2`` at the kernels'
    common order.
    """
    return _weighted_hellinger(counts.context_counts(mix_a.order), mix_a, mix_b)


def hellinger_stationary_distance(
    truth: MarkovModel, mix_a: MixtureKernel, mix_b: MixtureKernel
) -> float:
    """Stationary-weighted squared Hellinger distance between two kernels."""
    return _weighted_hellinger(stationary_block_law(truth, mix_a.order), mix_a, mix_b)


def bernstein_norm(
    truth: MarkovModel, mix: MixtureKernel, path, r: int, up_to: int
) -> float:
    """Predictable phi-norm of the half log-ratio increments along a path.

    ``8 sum_{i=r+1}^{up_to} sum_a P*(a|ctx_i) phi(|log(mix/P*)|/2)``; this is
    the quantity that controls the martingale tails and never exceeds eight
    times the count-weighted Hellinger distance to the truth.
    """
    if r != mix.order:
        raise ValueError(f"order {r} does not match the mixture order {mix.order}")
    t_rows, log_ratio, _ = log_ratio_rows(truth, mix, path, up_to)
    contrib = t_rows * phi(0.5 * np.abs(log_ratio))
    return 8.0 * float(contrib.sum())


# -- bracket grids -----------------------------------------------------------


def bracket_grid(
    truth: MarkovModel, kernel: np.ndarray, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper envelopes of a kernel on a sqrt-weighted grid of pitch beta.

    For each context a and symbol b the value sqrt(P*(a)) sqrt(P(b|a)) is
    rounded down/up to the grid beta * Z+, giving functions with
    lower <= P <= upper and sqrt(upper) - sqrt(lower) <= beta / sqrt(P*(a))
    on supported contexts.  Contexts with P*(a) = 0 carry no constraint and
    get lower = upper = P.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    kernel = np.asarray(kernel, dtype=np.float64)
    size, m = kernel.shape
    r = 0
    while truth.m**r < size:
        r += 1
    if truth.m**r != size or truth.m != m:
        raise ValueError("kernel shape does not match the truth's alphabet")
    weights = stationary_block_law(truth, r)
    lower = kernel.copy()
    upper = kernel.copy()
    supported = weights > 0.0
    w = np.sqrt(weights[supported])[:, None]
    z = w * np.sqrt(kernel[supported]) / beta
    lower[supported] = (np.floor(z) * beta / w) ** 2
    upper[supported] = (np.ceil(z) * beta / w) ** 2
    return lower, upper


def bracket_log_envelopes(
    truth: MarkovModel,
    kernel: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    path,
    r: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pathwise log-ratio envelopes built from a bracket pair.

    Returns (Lambda, Upsilon, xi) over steps i = r+1..n, where xi is the
    log-ratio of the truth-mixed kernel against the truth and Lambda/Upsilon
    are the same transform of the bracket envelopes; Lambda <= xi <= Upsilon
    pointwise whenever lower <= kernel <= upper.
    """
    symbols = np.asarray(path, dtype=np.int64)
    codes = context_codes(symbols, r, truth.m)
    nxt = symbols[r:]
    t_obs = lift_kernel(truth.kernel, truth.m, r)[codes, nxt]
    if np.any(t_obs <= 0.0):
        raise ValueError("path has zero probability under the truth")

    def logratio(table):
        mixed = 0.5 * (np.asarray(table, dtype=np.float64)[codes, nxt] + t_obs)
        return masked_log_ratio(mixed, t_obs)

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
