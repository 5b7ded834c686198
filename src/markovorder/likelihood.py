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

from ._contexts import CODE_CHUNK, context_codes, window_codes
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
    return max_loglik_vector(counts, r + 1)[r]


def max_loglik_vector(counts: ContextCounts, kappa: int) -> list[float]:
    """``max_loglik`` for every order r < kappa (the orders a cutoff admits).

    One pass down from depth kappa - 1.  The depth-r window counts N(a,b)
    read modulo m**r, plus the window of the first r symbols, are the
    depth-(r-1) window counts; less the window of the last r symbols, which
    precedes no symbol, they are the order-r context counts N(a).  At r = 0
    the one context count is n.
    """
    if counts.depth_cap < kappa - 1:
        raise ValueError(
            f"depth cap {counts.depth_cap} is too small: cutoff {kappa} "
            f"requires tracking depth {kappa - 1}"
        )
    m, cap = counts.m, counts.depth_cap
    # the codes of the first and of the last cap symbols
    head, tail = (int(window_codes(x, cap, m)[0]) for x in (counts.head, counts.tail))
    codes, num = counts.window_counts(kappa - 1)
    logliks = [0.0] * kappa
    for r in range(kappa - 1, 0, -1):
        windows = _xlogx_sum(num)
        first = head // m ** (cap - r)  # the window of the first r symbols
        codes, num = _merge(np.append(codes % m**r, first), np.append(num, 1), m**r)
        contexts = num.copy()
        contexts[np.searchsorted(codes, tail % m**r)] -= 1  # the last r symbols
        logliks[r] = min(windows - _xlogx_sum(contexts), 0.0)
    logliks[0] = min(_xlogx_sum(num) - _xlogx_sum(np.array([counts.n])), 0.0)
    return logliks


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

    ``count`` appends one transition per lane, given by its transition code
    ``a * m + b`` (a the order-r context code, b the symbol), to the lane's
    count table and nothing else.  The first ``step`` derives from that
    table each lane's context counts and its overshoot: the maximized
    log-likelihood ``sum N(a,b) log N(a,b) - sum N(a) log N(a)`` less the
    true one, ``sum N(a,b) log p(b|a)`` read from the flat table ``log_p``
    by transition code.  From then on a ``step`` moves the overshoot by the
    gain ``(c+1) log(c+1) - c log c`` of each of the two counts c the
    transition touches, read from one table indexed by c, less the step's
    true log-probability, so it costs O(1) per lane, and folds it into
    ``best``.  ``steps`` bounds the number of transitions.
    """

    def __init__(self, lanes: int, m: int, r: int, steps: int, log_p: np.ndarray):
        self.m = m
        self.offset = np.arange(lanes, dtype=np.int64) * m**r  # first context slot per lane
        self.trans_offset = self.offset * m  # first transition slot per lane
        self.trans = np.zeros(lanes * m**r * m, dtype=np.int32)
        # the context table is filled at the first step but allocated with
        # the transition table: allocated mid-run, it raised verify's peak
        # RSS by about 0.2 MB
        self.ctx = np.zeros(lanes * m**r, dtype=np.int32)
        self.over = None  # derived at the first step
        self.log_p = log_p
        ks = np.arange(1, steps + 2, dtype=np.float64)
        self.xlogx = np.zeros(steps + 2)
        self.xlogx[1:] = ks * np.log(ks)
        self.gain = self.xlogx[1:] - self.xlogx[:-1]
        self.best = np.full(lanes, -np.inf)

    def count(self, trans) -> None:
        """Add one transition per lane, before the first ``step``."""
        if self.over is not None:
            raise ValueError("a transition is only counted before the first step")
        self.trans[self.trans_offset + trans] += 1

    def step(self, code, trans) -> None:
        """Add one transition per lane, with its context code, and fold the
        new overshoot into ``best``."""
        if self.over is None:
            self._derive()
        # the counts come as int32: gain.take(c) reads them as indices in
        # about 19 us at 8192 lanes, the fancy index gain[c] in about 28 us
        gain, over = self.gain, self.over
        trans_at = self.trans_offset + trans
        c = self.trans[trans_at]
        over += gain.take(c)
        self.trans[trans_at] = c + 1
        ctx_at = self.offset + code
        c = self.ctx[ctx_at]
        over -= gain.take(c)
        self.ctx[ctx_at] = c + 1
        over -= self.log_p.take(trans)
        np.maximum(self.best, over, out=self.best)

    def _derive(self) -> None:
        """Each lane's context table and overshoot, from its transition table."""
        # einsum adds the m transition counts of every context of every lane
        # at once, where sum(axis=1) would add them a context at a time
        np.einsum("ab->a", self.trans.reshape(-1, self.m), out=self.ctx)
        self.over = self._lane_sums(self.trans, self.log_p) - self._lane_sums(self.ctx, None)

    def _lane_sums(self, table: np.ndarray, log_p) -> np.ndarray:
        """Each lane's sum of ``c log c`` over the counts c of its part of the
        flat lane-major ``table``, less ``c * log_p[a]`` for each count's
        code a within its lane when ``log_p`` is given.

        A lane's part is read in rows of a power of m cells, at most
        CODE_CHUNK, and as many rows at a time as keep a slice within one
        cell per lane (one row if a row is longer), so the float temporaries
        are the size of a step's.  Each row is summed on its own and each
        lane's row sums in order, so a lane's sum does not depend on the
        other lanes of the batch.
        """
        lanes = self.best.shape[0]
        cells = table.shape[0] // lanes
        width = cells
        while width > CODE_CHUNK:
            width //= self.m
        rows = table.reshape(-1, width)
        per_lane = cells // width
        if log_p is not None:
            log_p = log_p.reshape(per_lane, width)
        every = max(1, lanes // width) if per_lane == 1 else 1
        sums = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], every):
            c = rows[lo : lo + every]
            v = self.xlogx.take(c)
            if log_p is not None:
                v -= c * log_p[lo % per_lane]
            sums[lo : lo + every] = v.sum(axis=1)
        return sums.reshape(lanes, per_lane).sum(axis=1)


def true_transition_law(model: MarkovModel, r: int) -> np.ndarray:
    """The model's next-symbol probabilities as one flat table by order-r
    transition code ``a * m + b``, for r at or above the true order."""
    return lift_kernel(kernel_at_true_order(model), model.m, r).ravel()


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
    trans = codes * m + symbols[r:]
    law = true_transition_law(model, r)
    if np.any(law[trans] <= 0.0):
        raise ValueError("path has zero probability under the model")
    run = RunningOvershoot(1, m, r, i_hi - r, masked_log_ratio(law, 1.0))
    for t in range(i_hi - r):
        if r + t + 1 < i_lo:
            run.count(trans[t])
        else:
            run.step(codes[t], trans[t])
    return max(float(run.best[0]), 0.0)


@dataclass(frozen=True)
class MixtureKernel:
    """Equal mixture of a candidate and the true kernel, lifted to one order.

    Mixing with the truth keeps every ratio against it within [1/2, ...],
    which is what makes the log-ratio increments uniformly bounded below.
    The mixtures of stacked kernels carry a table of shape (K, m**r, m).
    """

    order: int
    m: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape[-2:] != (self.m**self.order, self.m):
            raise ValueError(f"mixture table must have shape ({self.m**self.order}, {self.m})")
        if np.any(np.abs(table.sum(axis=-1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("mixture rows must sum to 1")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValueError("mixture entries must lie in [0, 1]")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def mixture_kernel(candidate, truth, r: int) -> MixtureKernel:
    """Entrywise average of the two kernels lifted to order r; either may be
    a ``ModelStack``, whose kernels mix one by one."""
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
    code; only ``order``, ``m`` and ``table`` of ``mix`` are read.  A
    ``ModelStack`` of truths with stacked mixtures gives one table per kernel.
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
