"""Maximized log-likelihoods and the statistics built from them.

The maximized log-likelihood of an order-r chain on a path has the closed
form ``sum_{a,b} N(a,b) log(N(a,b)/N(a))`` with the convention
0 log 0 = 0: the maximizing measure puts unit mass on the observed initial
segment and the empirical kernel on each seen context.  All logs are
natural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contexts import context_codes
from .counts import ContextCounts, _merge
from .model import (
    ROW_SUM_TOL,
    MarkovModel,
    kernel_at_true_order,
    lift_kernel,
    true_order,
)


def _xlogx_sum(values: np.ndarray) -> float:
    v = values[values > 0].astype(np.float64)
    return float(np.sum(v * np.log(v)))


def max_loglik(counts: ContextCounts, r: int) -> float:
    """Maximized log-likelihood over chains of order at most r; always <= 0."""
    if r >= counts.n:
        raise ValueError(f"order {r} must be < path length {counts.n}")
    codes, num = counts.window_counts(r)
    _, ctx_num = _merge(codes // counts.m, num, counts.m**r)
    total = _xlogx_sum(num) - _xlogx_sum(ctx_num)
    return min(total, 0.0)


def max_loglik_vector(counts: ContextCounts, kappa: int) -> list[float]:
    """``max_loglik`` for every order r < kappa (the orders a cutoff admits)."""
    if counts.depth_cap < kappa - 1:
        raise ValueError(
            f"depth cap {counts.depth_cap} is too small: cutoff {kappa} "
            f"requires tracking depth {kappa - 1}"
        )
    return [max_loglik(counts, r) for r in range(kappa)]


def lil_from_logliks(logliks, r_star: int, m: int) -> float:
    """sup over r_star < r < kappa_n of the nonnegative part of
    ``max_loglik(r) - max_loglik(r_star)``, divided by ``m**r``, given
    ``logliks[j] = max_loglik(r_star + j)`` for r_star <= r_star + j < kappa_n.

    Returns 0.0 when the interval contains no order.
    """
    if len(logliks) < 2:
        return 0.0
    return max(
        max(logliks[j] - logliks[0], 0.0) / m ** (r_star + j) for j in range(1, len(logliks))
    )


class RunningOvershoot:
    """Running maximum of the order-r overshoot along a batch of growing paths.

    Each ``step`` appends one transition (order-r context code, symbol) per
    lane, plus that step's true conditional log-probability.  The maximized
    log-likelihood ``sum N(a,b) log N(a,b) - sum N(a) log N(a)`` moves by the
    gain ``(c+1) log(c+1) - c log c`` of each of the two counts c the
    transition touches, read from one table indexed by c, so a step costs
    O(1) per lane.  ``steps`` bounds the number of steps taken.
    """

    def __init__(self, lanes: int, m: int, r: int, steps: int):
        self.m = m
        self.offset = np.arange(lanes, dtype=np.int64) * m**r  # first context slot per lane
        self.trans = np.zeros(lanes * m**r * m, dtype=np.int32)
        self.ctx = np.zeros(lanes * m**r, dtype=np.int32)
        ks = np.arange(1, steps + 2, dtype=np.float64)
        xlogx = np.zeros(steps + 2)
        xlogx[1:] = ks * np.log(ks)
        self.gain = xlogx[1:] - xlogx[:-1]
        self.ml = np.zeros(lanes)
        self.ll = np.zeros(lanes)
        self.best = np.full(lanes, -np.inf)

    def step(self, code, sym, log_p, track: bool) -> None:
        """Add one transition per lane; with ``track`` set, fold the new
        overshoot ``ml - ll`` into ``best``."""
        gain = self.gain
        ctx_at = self.offset + code
        trans_at = ctx_at * self.m + sym
        c = self.trans[trans_at]
        self.ml += gain[c]
        self.trans[trans_at] = c + 1
        c = self.ctx[ctx_at]
        self.ml -= gain[c]
        self.ctx[ctx_at] = c + 1
        self.ll += log_p
        if track:
            np.maximum(self.best, self.ml - self.ll, out=self.best)


def delta_running_max(model: MarkovModel, path, r: int, i_lo: int, i_hi: int) -> float:
    """max over i in [i_lo, i_hi] of the order-r overshoot on the prefix x_{1:i}.

    Runs ``RunningOvershoot`` as a batch of one; for large replication
    counts use the batched verifier in diagnostics instead.
    """
    symbols = np.asarray(path, dtype=np.int64)
    n = symbols.shape[0]
    if not r < i_lo <= i_hi <= n:
        raise ValueError(f"need r < i_lo <= i_hi <= n, got r={r}, [{i_lo}, {i_hi}], n={n}")
    r_true = true_order(model)
    if r < r_true:
        raise ValueError(f"order {r} is below the true order {r_true}")
    m = model.m
    codes = context_codes(symbols, r, m)
    tcodes = context_codes(symbols, r_true, m)
    base = kernel_at_true_order(model)
    step_ll = base[tcodes[r - r_true :], symbols[r:]]
    if np.any(step_ll <= 0.0):
        raise ValueError("path has zero probability under the model")
    step_ll = np.log(step_ll)
    run = RunningOvershoot(1, m, r, i_hi - r)
    for t in range(i_hi - r):
        run.step(codes[t], symbols[r + t], step_ll[t], r + t + 1 >= i_lo)
    return max(float(run.best[0]), 0.0)


@dataclass(frozen=True)
class MixtureKernel:
    """Equal mixture of a candidate and the true kernel, lifted to one order.

    Mixing with the truth keeps every ratio against it within [1/2, ...],
    which is what makes the log-ratio increments uniformly bounded below.
    """

    order: int
    m: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (self.m**self.order, self.m):
            raise ValueError(f"mixture table must have shape ({self.m**self.order}, {self.m})")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("mixture rows must sum to 1")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValueError("mixture entries must lie in [0, 1]")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def mixture_kernel(candidate: MarkovModel, truth: MarkovModel, r: int) -> MixtureKernel:
    """Entrywise average of the two kernels lifted to order r."""
    if candidate.m != truth.m:
        raise ValueError("candidate and truth must share one alphabet")
    if r < candidate.order or r < truth.order:
        raise ValueError(
            f"target order {r} is below a component order "
            f"({candidate.order} and {truth.order})"
        )
    m = truth.m
    table = 0.5 * (lift_kernel(candidate.kernel, m, r) + lift_kernel(truth.kernel, m, r))
    return MixtureKernel(r, m, table)


def masked_log_ratio(numer, denom) -> np.ndarray:
    """``log(numer / denom)`` entrywise, and 0 wherever either side is 0."""
    mask = (numer > 0.0) & (denom > 0.0)
    ratio = np.ones(mask.shape)
    np.divide(numer, denom, out=ratio, where=mask)
    return np.log(ratio)


def log_ratio_table(truth: MarkovModel, mix: MixtureKernel) -> tuple[np.ndarray, np.ndarray]:
    """Truth rows lifted to the mixture's order, and ``log(mix / truth)`` per
    (context, symbol), zero where the truth puts no mass.

    Every log-ratio diagnostic gathers rows of these two tables by context
    code; only ``order``, ``m`` and ``table`` of ``mix`` are read.
    """
    t_rows = lift_kernel(truth.kernel, truth.m, mix.order)
    return t_rows, masked_log_ratio(mix.table, t_rows)


def log_ratio_rows(truth: MarkovModel, mix: MixtureKernel, path, up_to: int | None = None):
    """Rows of ``log_ratio_table`` gathered at the contexts of the steps
    i = r+1..up_to of a path (the whole path by default), plus the symbols
    x_i of those steps."""
    symbols = np.asarray(path, dtype=np.int64)
    if up_to is None:
        up_to = symbols.shape[0]
    if up_to > symbols.shape[0]:
        raise ValueError(f"up_to {up_to} exceeds path length {symbols.shape[0]}")
    end = max(up_to, mix.order)
    codes = context_codes(symbols[:end], mix.order, mix.m)
    t_rows, log_ratio = log_ratio_table(truth, mix)
    return t_rows[codes], log_ratio[codes], symbols[mix.order : end]


def kl_compensator(truth: MarkovModel, mix: MixtureKernel, path, up_to: int) -> float:
    """Accumulated per-step KL divergence of the truth from the mixture.

    ``-sum_{i=r+1}^{up_to} sum_a P*(a|ctx_i) log(mix(a|ctx_i)/P*(a|ctx_i))``,
    nonnegative by Gibbs' inequality and at least the count-weighted
    Hellinger distance to the truth.
    """
    t_rows, log_ratio, _ = log_ratio_rows(truth, mix, path, up_to)
    terms = -(t_rows * log_ratio)
    return max(float(terms.sum()), 0.0)


def martingale_path(truth: MarkovModel, mix: MixtureKernel, path) -> np.ndarray:
    """Compensated log-ratio partial sums M_0..M_n (zero mean under the truth).

    ``M_i = sum_{l=r+1}^i log(mix(x_l|ctx_l)/P*(x_l|ctx_l)) + D_i`` with r
    the mixture order and the compensator D from ``kl_compensator``;
    M_i = 0 for i <= r.
    """
    symbols = np.asarray(path, dtype=np.int64)
    n = symbols.shape[0]
    r = mix.order
    out = np.zeros(n + 1)
    if n <= r:
        return out
    t_rows, log_ratio, nxt = log_ratio_rows(truth, mix, symbols)
    steps = np.arange(nxt.shape[0])
    if np.any(t_rows[steps, nxt] <= 0.0):
        raise ValueError("path has zero probability under the model")
    d_steps = -(t_rows * log_ratio).sum(axis=1)
    out[r + 1 :] = np.cumsum(log_ratio[steps, nxt] + d_steps)
    return out
