"""Finite-alphabet time-homogeneous Markov chains.

A chain of order r over symbols {0, .., m-1} is given by a kernel table of
shape (m**r, m) whose row for a length-r context holds the next-symbol
probabilities, plus an initial law over the m**r contexts (default: the
stationary law of the context chain).  Contexts are indexed as base-m
integers with the most recent symbol in the least significant digit.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ._contexts import block_digits, context_codes, symbol_dtype
from .rng import PHI64, _as_u64, raw53_steps, uniform_block

ROW_SUM_TOL = 1e-12
KERNEL_EQ_TOL = 1e-12
DENSE_SOLVE_LIMIT = 4096
POWER_ITER_TOL = 1e-12
POWER_ITER_MAX = 10**6
# a sampler run cuts each lane into as many blocks as keep its first pass
# within BLOCK_CELLS contexts per numpy step, each at least MIN_BLOCK symbols
# long, and holds up to FLUSH_CELLS symbols step-major before it hands them
# on; its stepper draws up to UNIFORM_CELLS uniforms per call
BLOCK_CELLS = 1 << 14
MIN_BLOCK = 16
FLUSH_CELLS = 1 << 18
UNIFORM_CELLS = 1 << 15
# a draw k of raw53_steps is the uniform k * 2**-53; no draw reaches the
# threshold NEVER
NEVER = 1 << 53

NEG_INF = float("-inf")
# a dense table over the m**k blocks of k symbols (a kernel lifted to order
# r has the blocks of r + 1) holds at most TABLE_CELLS cells, 128 MiB of
# float64: a larger one raises ValueError before it is allocated
TABLE_CELLS = 1 << 24


class ReducibleChainError(ValueError):
    """The context chain has more than one closed communicating class."""


def _check_kernel(kernel: np.ndarray) -> int:
    """The order r of a kernel table of shape (..., m**r, m), after checking
    that m >= 2 and that every row is a law: entries in [0, 1] and a sum
    within ROW_SUM_TOL of 1."""
    rows, m = kernel.shape[-2:]
    if m < 2:
        raise ValueError(f"alphabet size must be >= 2, got {m}")
    order = 0
    while m**order < rows:
        order += 1
    if m**order != rows:
        raise ValueError(f"kernel has {rows} rows, expected a power of {m}")
    if not np.all((kernel >= 0) & (kernel <= 1)):  # NaN fails too
        raise ValueError("kernel entries must lie in [0, 1]")
    row_sums = kernel.sum(axis=-1)
    miss = np.abs(row_sums - 1.0)
    if np.any(miss > ROW_SUM_TOL):
        bad = np.unravel_index(int(np.argmax(miss)), miss.shape)
        where = f"kernel {bad[0]} row {bad[1]}" if len(bad) > 1 else f"kernel row {bad[0]}"
        raise ValueError(f"{where} sums to {row_sums[bad]!r}, not 1")
    return order


def _check_initial(initial, kernel: np.ndarray) -> np.ndarray:
    """The initial law(s) of a kernel table as a read-only float64 array,
    one law over the m**r contexts per table, after checking they are laws."""
    initial = np.array(initial, dtype=np.float64)
    if initial.shape != kernel.shape[:-1]:
        raise ValueError(f"initial law must have shape {kernel.shape[:-1]}")
    if not (np.all(initial >= 0) and np.all(np.abs(initial.sum(axis=-1) - 1.0) <= ROW_SUM_TOL)):
        raise ValueError("initial law must be a probability vector")
    initial.setflags(write=False)
    return initial


class MarkovModel:
    """Immutable order-r chain defined by its kernel table.

    Parameters
    ----------
    kernel : array-like, shape (m**r, m)
        Row ``c`` is the next-symbol law given the context with code ``c``.
        Rows must sum to 1 within 1e-12.
    initial : array-like, shape (m**r,), optional
        Law of the first r symbols (as a context code).  Defaults to the
        stationary law of the context chain, which requires the chain to
        have a unique closed class.
    """

    def __init__(self, kernel, initial=None):
        kernel = np.array(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ValueError("kernel must be a 2-d table")
        self._order = _check_kernel(kernel)
        self._kernel = kernel
        self._kernel.setflags(write=False)
        self._m = kernel.shape[1]
        self._stationary_cache = None
        # None: resolved lazily to the stationary law
        self._initial = None if initial is None else _check_initial(initial, kernel)

    @property
    def m(self) -> int:
        return self._m

    @property
    def order(self) -> int:
        return self._order

    @property
    def kernel(self) -> np.ndarray:
        return self._kernel

    @property
    def n_contexts(self) -> int:
        return self._m**self._order

    @property
    def initial(self) -> np.ndarray:
        if self._initial is None:
            return stationary_distribution(self)
        return self._initial

    def label(self) -> str:
        """Opaque identifier derived from the kernel bytes."""
        # CPython's built-in SHA-1, the one hashlib falls back to: hashlib
        # itself maps OpenSSL, so it is imported only where _sha1 is missing
        try:
            from _sha1 import sha1
        except ImportError:
            from hashlib import sha1

        digest = sha1(self._kernel.tobytes()).hexdigest()[:8]
        return f"m{self._m}-r{self._order}-{digest}"

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MarkovModel(m={self._m}, order={self._order})"


class ModelStack:
    """K chains of one alphabet size and order, held as one kernel array of
    shape (K, m**r, m), with initial laws of shape (K, m**r) (by default
    each kernel's stationary law).

    The functions that build a model's tables take a stack too, with a
    leading axis of length K on each table: ``stationary_distribution``,
    ``stationary_block_law``, ``lift_kernel`` (of ``stack.kernel``) and
    ``likelihood.mixture_kernel``.  ``sample_paths`` steps lane g on kernel g.
    """

    def __init__(self, kernels, initial=None):
        kernels = np.array(kernels, dtype=np.float64)
        if kernels.ndim != 3:
            raise ValueError("a kernel stack must be a 3-d array")
        self.order = _check_kernel(kernels)
        self.m = kernels.shape[2]
        self.n_contexts = kernels.shape[1]
        kernels.setflags(write=False)
        self.kernel = kernels
        self._stationary_cache = None
        self._initial = None if initial is None else _check_initial(initial, kernels)

    @property
    def initial(self) -> np.ndarray:
        if self._initial is None:
            return stationary_distribution(self)
        return self._initial


def _shift_base(m: int, order: int, kernels: int = 1) -> np.ndarray:
    """base[c] = g * m**r + (c' * m) % m**r for the code c = g * m**r + c'
    of context c' of kernel g in a stack of ``kernels`` (r = order >= 1):
    the code after symbol b in context c is ``base[c] + b``."""
    size = m**order
    codes = np.arange(kernels * size, dtype=np.int64)
    return codes - codes % size + (codes * m) % size


def _shift_targets(m: int, order: int) -> np.ndarray:
    """targets[c, b] = context code after seeing symbol b in context c
    (order >= 1)."""
    return _shift_base(m, order)[:, None] + np.arange(m)


def _reach(step: np.ndarray, ok: np.ndarray, starts) -> np.ndarray:
    """Mask of the contexts reachable from ``starts``, where context c leads
    to ``step[c, j]`` for each j with ``ok[c, j]``."""
    seen = np.zeros(step.shape[0], dtype=bool)
    seen[starts] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        # a mask of the contexts entered, not np.unique, which imports
        # numpy.ma (a megabyte) on its first call
        entered = np.zeros_like(seen)
        entered[step[frontier][ok[frontier]]] = True
        frontier = np.flatnonzero(entered & ~seen)
        seen[frontier] = True
    return seen


def _closed_class(model: MarkovModel) -> np.ndarray:
    """Context codes of the unique closed communicating class.

    Raises ReducibleChainError if the positive-transition digraph has more
    than one closed strongly connected component (no unique stationary law).

    From a context x, take the contexts ahead of it (reachable) and behind
    it (reaching it).  If every context ahead is also behind, they form the
    closed class of x; otherwise x moves to a context ahead but not behind,
    whose set ahead is strictly smaller.  The class is unique exactly when
    every context lies behind it.
    """
    m, order = model.m, model.order
    size = m**order
    if size == 1 or (model.kernel > 0.0).all():  # every context reaches every other
        return np.arange(size, dtype=np.int64)
    ahead_step = _shift_targets(m, order)
    ahead_ok = model.kernel > 0.0
    # context c is entered from a * m**(order-1) + c // m on symbol c % m
    codes = np.arange(size)[:, None]
    behind_step = np.arange(m) * (size // m) + codes // m
    behind_ok = ahead_ok[behind_step, codes % m]
    escapes = [0]
    while escapes:
        x = escapes[0]
        ahead = _reach(ahead_step, ahead_ok, x)
        escapes = np.flatnonzero(ahead & ~_reach(behind_step, behind_ok, x)).tolist()
    closed = np.flatnonzero(ahead)
    if not _reach(behind_step, behind_ok, closed).all():
        raise ReducibleChainError(
            "more than one closed communicating class; no unique stationary law"
        )
    return closed


def _dense_solve(probs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Solutions pi of pi = pi Q with sum 1 for K chains on k states, where
    state i moves to state ``pos[i, j]`` with probability ``probs[g, i, j]``
    in chain g (``probs`` of shape (K, k, m)): one batched dense solve."""
    lanes, k, _ = probs.shape
    q = np.zeros((lanes, k, k))
    # the cells (g, i, pos[i, j]) as flat indices: np.add.at with broadcast
    # index arrays buffers them, about 0.2 MB more peak memory in a run of
    # ``simulate``
    cells = (np.arange(lanes)[:, None, None] * k + np.arange(k)[:, None]) * k + pos
    np.add.at(q.reshape(-1), cells.ravel(), probs.ravel())
    a = q.transpose(0, 2, 1) - np.eye(k)
    a[:, -1, :] = 1.0
    rhs = np.zeros((lanes, k, 1))
    rhs[:, -1] = 1.0
    return np.linalg.solve(a, rhs)[..., 0]


def _power_iteration(probs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """pi = pi Q for one chain laid out as in ``_dense_solve`` (``probs`` of
    shape (k, m)), iterated from the uniform law on the lazy chain (I + Q) / 2,
    which has the same stationary law and no period, until the residual
    ||pi Q - pi||_1 is at most POWER_ITER_TOL (a small step between iterates
    does not bound the error of a slowly mixing chain); ValueError after
    POWER_ITER_MAX steps without that."""
    k, m = probs.shape
    sub = np.full(k, 1.0 / k)
    rows = np.repeat(np.arange(k), m)
    for _ in range(POWER_ITER_MAX):
        nxt = np.zeros(k)
        np.add.at(nxt, pos.ravel(), sub[rows] * probs.ravel())
        if np.abs(nxt - sub).sum() <= POWER_ITER_TOL:
            return sub
        sub = (sub + nxt) / (sub.sum() + nxt.sum())
    raise ValueError(f"power iteration on {k} contexts did not converge in {POWER_ITER_MAX} steps")


def stationary_distribution(model) -> np.ndarray:
    """Stationary law of the context chain, as a vector over A**r; for a
    ``ModelStack``, one law per kernel, of shape (K, m**r).

    Solves pi = pi Q restricted to the unique closed class; transient
    contexts get probability zero.  When every entry of every kernel is
    positive and m**r <= 4096, each context reaches every other, so the K
    kernels are one group on all contexts; otherwise each kernel is a group
    on its own closed class.  A group whose class has k <= 4096 contexts
    takes one batched dense solve, a larger one power iteration.

    Raises
    ------
    ValueError
        If a chain has several closed classes (``ReducibleChainError``) or
        the power iteration does not converge in POWER_ITER_MAX steps.
    """
    if model._stationary_cache is None:
        m, size = model.m, model.n_contexts
        kernels = model.kernel.reshape(-1, size, m)
        targets = _shift_targets(m, model.order)
        if size <= DENSE_SOLVE_LIMIT and (kernels > 0.0).all():
            groups = [(np.arange(kernels.shape[0]), np.arange(size))]
        else:
            groups = [([g], _closed_class(MarkovModel(one))) for g, one in enumerate(kernels)]
        laws = np.zeros(kernels.shape[:2])
        for lanes, support in groups:
            k = support.shape[0]
            # positions of targets within the closed class; positive-probability
            # targets stay inside, zero-probability ones (and at order 0 those
            # of the one context) are clipped and ignored
            pos = np.clip(np.searchsorted(support, targets[support]), 0, k - 1)
            probs = kernels[np.ix_(lanes, support)]
            if k <= DENSE_SOLVE_LIMIT:
                sub = _dense_solve(probs, pos)
            else:
                sub = _power_iteration(probs[0], pos)
            laws[np.ix_(lanes, support)] = np.clip(sub, 0.0, None)
        laws /= laws.sum(axis=-1, keepdims=True)
        pi = laws.reshape(model.kernel.shape[:-1])
        pi.setflags(write=False)
        model._stationary_cache = pi
    return model._stationary_cache


def table_fits(m: int, length: int) -> bool:
    """Whether a table over the m**length blocks of ``length`` symbols keeps
    within TABLE_CELLS cells; m >= 2, so no longer block does."""
    return length < TABLE_CELLS.bit_length() and m**length <= TABLE_CELLS


def check_table(m: int, length: int) -> None:
    """Raise ValueError unless ``table_fits(m, length)``."""
    if not table_fits(m, length):
        raise ValueError(
            f"a table over the {m}**{length} blocks of {length} symbols passes "
            f"{TABLE_CELLS} cells"
        )


def stationary_block_law(model, length: int) -> np.ndarray:
    """Stationary probability of every length-``length`` block, as a vector
    (for a ``ModelStack``, one vector per kernel).

    For ``length`` below the model order this marginalizes the stationary
    context law onto the most recent symbols; above, it extends by kernel
    products.
    """
    if length < 0:
        raise ValueError("block length must be nonnegative")
    m, order = model.m, model.order
    check_table(m, length)
    pi = stationary_distribution(model)
    lead = pi.shape[:-1]
    if length == order:
        return pi.copy()
    if length < order:
        # least significant digits are the most recent symbols
        return pi.reshape(lead + (m ** (order - length), m**length)).sum(axis=-2)
    law = pi.copy()
    for k in range(order, length):
        base = np.arange(m**k, dtype=np.int64) % (m**order)
        law = (law[..., :, None] * model.kernel[..., base, :]).reshape(lead + (-1,))
    return law


def true_order(model: MarkovModel) -> int:
    """Smallest s such that every kernel row depends only on its last s symbols."""
    m, order = model.m, model.order
    kernel = model.kernel
    for s in range(order):
        grouped = kernel.reshape(m ** (order - s), m**s, m)
        if np.all(np.abs(grouped - grouped[0]) <= KERNEL_EQ_TOL):
            return s
    return order


def lift_kernel(kernel: np.ndarray, m: int, r: int) -> np.ndarray:
    """Kernel table of an order-s chain re-indexed over length-r contexts
    (a stack of tables, with leading axes, lifts table by table)."""
    check_table(m, r + 1)
    kernel = np.asarray(kernel, dtype=np.float64)
    rows = kernel.shape[-2]
    if m**r < rows:
        raise ValueError(f"cannot lift an order table of {rows} rows to order {r}")
    if m**r == rows:
        return kernel.copy()
    return kernel[..., np.arange(m**r, dtype=np.int64) % rows, :]


def kernel_at_true_order(model: MarkovModel) -> np.ndarray:
    """Kernel table re-indexed over length-``true_order`` contexts."""
    m = model.m
    s = true_order(model)
    if s == model.order:
        return model.kernel
    return model.kernel.reshape(-1, m**s, m)[0]


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums t of each row of ``probs`` without the last column,
    as the uint64 integers ``ceil(t * 2**53)``.

    A uniform u picks the number of a row's thresholds t <= u, which is
    ``bisect_right`` on the cumulative row clipped to m - 1.  The sampler
    reads u as the draw k of ``raw53_block``, u = k * 2**-53 exactly, and
    for an integer k, t <= u exactly when ceil(t * 2**53) <= k (scaling by
    2**53 is exact).  Thresholds from the row's last positive entry on are
    NEVER, so a u at or above a row sum just short of 1 never picks a
    zero-probability symbol.
    """
    cum = np.cumsum(probs, axis=-1)[..., :-1]
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    ticks = np.ceil(cum * 2.0**53).astype(np.uint64)
    ticks[np.arange(cum.shape[-1]) >= np.expand_dims(last, -1)] = NEVER
    return ticks


def _initial_codes(initial: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Initial context code of every lane, from draw 0 of its stream: under
    the one initial law of a (1, m**r) ``initial``, or lane g under the law
    ``initial[g]``."""
    k0 = raw53_steps(seeds, 0, 1)[0]
    ticks = _thresholds(initial)
    if initial.shape[0] == 1:
        return np.searchsorted(ticks[0], k0, side="right")
    return np.count_nonzero(ticks <= k0[:, None], axis=1)


def _step_tables(kernels: np.ndarray, m: int, depth: int):
    """The tables ``_advance`` steps a (K, m**r, m) stack of kernels on,
    lifted to depth D = max(depth, 1): the thresholds of their m**D-row
    tables one after another, as contiguous columns, and the
    ``_shift_base`` of the stack.  The base needs D >= 1, so an order-0
    kernel steps lifted to order 1, each row its one row.
    """
    depth = max(depth, 1)
    lifted = lift_kernel(kernels, m, depth).reshape(-1, m)
    return np.ascontiguousarray(_thresholds(lifted).T), _shift_base(m, depth, kernels.shape[0])


def _advance(columns, base, seeds, positions, ctx, steps: int):
    """Move a (rows, width) array of context codes ``steps`` symbols forward
    on the tables of ``_step_tables``.

    Row g steps on stream ``seeds[g]`` at positions ``positions[g]``,
    ``positions[g] + 1``, ..., one numpy step per symbol, and yields
    ``(ctx, sym)`` after each step: fresh arrays, never written after they
    are yielded, ``sym`` in ``symbol_dtype(m)``.  The draws come a chunk at
    a time, step-major, so each step reads one contiguous row of them, and
    the symbol is the number of thresholds at or below the draw, summed in
    place in its own type.  Columns of one row read the same draws, so once
    they meet they stay together (a grand coupling); when all columns of
    every row agree the width collapses to one.
    """
    dtype = symbol_dtype(columns.shape[0] + 1)
    chunk = max(1, UNIFORM_CELLS // max(seeds.shape[0], 1))
    # stream s read from position p on is stream s + p * PHI64 read from 0
    # (both counters are (p + i + 1) * PHI64 + s mod 2**64), so each chunk
    # reads the streams ``keys`` from its first step; every chunk is drawn
    # into the same two arrays, overwritten once the next one is drawn
    keys = seeds + positions * np.uint64(PHI64)
    draws = np.empty((min(chunk, steps), seeds.shape[0]), dtype=np.uint64)
    scratch = np.empty_like(draws)
    for j in range(0, steps, chunk):
        count = min(chunk, steps - j)
        block = raw53_steps(keys, j, count, draws[:count], scratch[:count])
        for k in block[:, :, None]:
            sym = columns[0][ctx] <= k
            sym = sym.view(dtype) if dtype.itemsize == 1 else sym.astype(dtype)
            for column in columns[1:]:
                sym += column[ctx] <= k
            ctx = base[ctx]
            ctx += sym
            if ctx.shape[1] > 1 and (ctx == ctx[:, :1]).all():
                ctx, sym = ctx[:, :1], sym[:, :1]
            yield ctx, sym


def _store(steps, count: int, sink, rows: int, dtype):
    """Run ``count`` ``_advance`` steps of ``rows`` rows and hand the
    symbols of each step from the first whose columns have coalesced on to
    ``sink``.  The symbols of up to FLUSH_CELLS // rows steps are held
    step-major and handed on together as ``sink(run, a)``: ``run`` of shape
    (steps, rows) holds steps a, a + 1, ..., and is overwritten once
    ``sink`` returns.  Returns the last ``ctx`` and that first step
    (``count`` when none coalesced).
    """
    held = max(1, min(count, FLUSH_CELLS // max(rows, 1)))
    buf = np.empty((held, rows), dtype=dtype)
    first = count
    for lo in range(0, count, held):
        hi = min(lo + held, count)
        for j, (ctx, sym) in enumerate(islice(steps, hi - lo), start=lo):
            if sym.shape[1] == 1:
                first = min(first, j)
                buf[j - lo] = sym[:, 0]
        if first < hi:
            a = max(first, lo)
            sink(buf[a - lo : hi - lo], a)
    return ctx, first


def _lane_tables(model, seeds):
    """What ``_sample_run`` steps one lane per seed on: the seeds as a
    uint64 array, the ``_step_tables`` and each lane's first code in the
    stack; and each lane's initial context code, its kernel's own code."""
    seeds = np.atleast_1d(_as_u64(seeds))
    lanes = seeds.shape[0]
    stacked = isinstance(model, ModelStack)
    if stacked and model.kernel.shape[0] != lanes:
        raise ValueError(f"{model.kernel.shape[0]} kernels for {lanes} seeds: give one per seed")
    m, r, size = model.m, model.order, model.n_contexts
    columns, base = _step_tables(model.kernel.reshape(-1, size, m), m, r)
    # the kernels of the stack step lifted to order 1 when r = 0
    lifted = m ** max(r, 1)
    offset = np.arange(lanes, dtype=np.int64) * lifted if stacked else np.zeros(lanes, np.int64)
    init = _initial_codes(model.initial.reshape(-1, size), seeds)
    return (seeds, columns, base, offset), init


def _blocking(model, lanes: int, steps: int) -> tuple[int, int]:
    """How many blocks ``_sample_run`` cuts each of ``lanes`` lanes of
    ``steps`` kernel steps into, and their length: as many as keep its
    first pass within BLOCK_CELLS contexts per numpy step, each at least
    MIN_BLOCK steps long.  The blocks may end past ``steps``."""
    blocks = max(1, min(steps // MIN_BLOCK, BLOCK_CELLS // max(lanes * model.n_contexts, 1)))
    # an odd block length keeps the column stores of sample_paths off a
    # power-of-two row stride, whose blocks all land on the same cache sets
    return blocks, (-(-steps // blocks) | 1) if blocks > 1 else steps


def _sample_run(model, tables, init, blocks: int, length: int, sink, overlap: int) -> None:
    """Sample ``blocks`` blocks of ``length`` kernel symbols per lane and
    hand them to ``sink`` (see ``_store``): lane g starts in its kernel's
    context code ``init[g]`` and draws its symbols at stream positions 1,
    2, ...; column g * blocks + b of each run holds block b of lane g.
    Every step of every block is handed on: those from the first pass's
    coalescence step on in increasing order, then the replay's, which
    hands on the first ``overlap`` of those again.

    A first pass steps every block from every start context of its lane's
    kernel at once and keeps the context each one ends in; composing these
    block maps (on the kernel's own codes 0..m**r - 1) gives every block's
    start from the lane's ``init``.  This is a scan over finite-state maps
    (Blelloch, "Prefix sums and their applications", 1990).  Once all start
    columns have coalesced, a block's symbols no longer depend on its start,
    so the first pass hands them on; a second pass replays each block from
    its start to ``overlap`` steps past it, at most to the block's end.
    """
    seeds, columns, base, offset = tables
    lanes, size = seeds.shape[0], model.n_contexts
    firsts = np.uint64(1) + np.uint64(length) * np.arange(blocks, dtype=np.uint64)
    rows = (np.repeat(seeds, blocks), np.tile(firsts, lanes))
    starts = np.repeat(init, blocks).reshape(lanes, blocks)
    runs = (sink, lanes * blocks, symbol_dtype(model.m))
    replay = length  # the steps before the start columns coalesce
    if blocks > 1:
        every = np.repeat(offset, blocks)[:, None] + np.arange(size)
        ends, replay = _store(_advance(columns, base, *rows, every, length), length, *runs)
    if blocks > 1 and replay:
        # compose the block maps by doubling, on each kernel's own codes
        # (each right-hand side is read whole before it is stored);
        # afterwards maps[:, b] sends a start context of block 0 to the end
        # context of block b
        maps = np.broadcast_to(ends, every.shape).reshape(lanes, blocks, size)
        maps = maps - offset[:, None, None]
        shift = 1
        while shift < blocks:
            maps[:, shift:] = np.take_along_axis(maps[:, shift:], maps[:, :-shift], axis=2)
            shift *= 2
        starts[:, 1:] = np.take_along_axis(maps[:, :-1], init[:, None, None], axis=2)[:, :, 0]
    if replay:
        steps = min(replay + overlap, length)
        starts = (starts + offset[:, None]).reshape(-1, 1)
        _store(_advance(columns, base, *rows, starts, steps), steps, *runs)


def sample_paths(model, n: int, seeds) -> np.ndarray:
    """Sample ``n`` symbols per seed: the first r from the initial law, the
    rest from the kernel.  Row i is a pure function of (model, n, seeds[i]),
    and its first k symbols do not depend on n.  The result has dtype
    ``symbol_dtype(m)``: uint8 for m <= 256.

    ``model`` is one ``MarkovModel`` for every seed, or a ``ModelStack``
    with one kernel per seed.  Such a stack of K kernels steps as one
    block-diagonal context chain: its thresholds are the K kernels' rows
    one after another, K * m**r rows, the code of context c of kernel g is
    ``g * m**r + c``, and it moves on symbol b to
    ``g * m**r + (c * m + b) % m**r``.  One model is the stack K = 1.

    Stream layout: uniform 0 picks the initial context block, uniform k >= 1
    picks the symbol at position r + k.  The n - r kernel steps are one
    ``_sample_run``, stored into the paths a run of steps at a time.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    tables, init = _lane_tables(model, seeds)
    lanes, r = init.shape[0], model.order
    blocks, length = _blocking(model, lanes, max(n - r, 0))
    out = np.empty((lanes, r + blocks * length), dtype=symbol_dtype(model.m))
    body = out[:, r:].reshape(lanes, blocks, length)

    def store(run, a):
        steps = run.shape[0]
        body[:, :, a : a + steps] = np.moveaxis(run.reshape(steps, lanes, blocks), 0, -1)

    _sample_run(model, tables, init, blocks, length, store, 0)
    out[:, :r] = block_digits(init, r, model.m)
    return out[:, :n]


def step_lanes(model: MarkovModel, n: int, seeds: np.ndarray, depth: int):
    """Yield ``(i, ctx, sym)`` for positions i = 1..n, vectorized over seeds:
    lane j steps through ``sample_paths(model, n, seeds[j])[0]`` without any
    lanes x n array being stored.

    ``ctx`` codes the min(i-1, D) most recent symbols before position i
    (low digits are the newest), D = max(depth, model.order), and ``sym``
    is the symbol at position i.  The kernel steps that depth-D code
    itself, on the kernel's threshold rows lifted to depth D (row c is the
    row of c mod m**r, so the symbols are those of ``sample_paths``) and
    on the shift ``c -> (c * m + b) % m**D``; at D = 0 it steps lifted to
    depth 1 and ``ctx`` stays 0.
    """
    m, r = model.m, model.order
    top = max(depth, r)
    columns, base = _step_tables(model.kernel[None], m, top)
    init = _initial_codes(model.initial[None], seeds)
    for i, sym in enumerate(block_digits(init, r, m).T[:n], start=1):
        yield i, init // m ** (r - i + 1), sym
    ctx = init
    steps = _advance(columns, base, seeds, np.ones_like(seeds), init[:, None], max(n - r, 0))
    for i, (nxt, sym) in enumerate(steps, start=r + 1):
        yield i, ctx, sym[:, 0]
        if top:
            ctx = nxt[:, 0]


def log_true_conditional_likelihood(model: MarkovModel, path, r: int) -> float:
    """log-probability of the path given its first r symbols, under the model.

    Equals the sum over i > r of ``log P(x_i | last true_order symbols)``;
    valid only for r at or above the true order.  Returns -inf (an explicit
    sentinel, never NaN) when the path hits a zero-probability transition.
    """
    symbols = np.asarray(path, dtype=np.int64)
    n = symbols.shape[0]
    r_true = true_order(model)
    if r < r_true:
        raise ValueError(
            f"conditioning order {r} is below the true order {r_true}"
        )
    if r >= n:
        raise ValueError(f"conditioning order {r} must be < path length {n}")
    m = model.m
    base = kernel_at_true_order(model)
    codes = context_codes(symbols, r_true, m)
    # windows ending at positions > r only
    offset = r - r_true
    probs = base[codes[offset:], symbols[r:]]
    if np.any(probs <= 0.0):
        return NEG_INF
    return float(np.log(probs).sum())


def random_kernels(m: int, order: int, seeds, floor: float = 0.05) -> np.ndarray:
    """Kernel tables of ``random_model`` for an array of seeds, of shape
    ``seeds.shape + (m**order, m)``: the table of seed s is the same
    whether drawn alone or with others.

    Rows are Dirichlet(1) draws pushed away from the simplex boundary by
    ``floor`` so that every transition has positive probability.
    """
    if not 0.0 <= floor < 1.0 / m:
        raise ValueError("floor must lie in [0, 1/m)")
    size = m**order
    u = uniform_block(seeds, 0, size * m).reshape(np.shape(seeds) + (size, m))
    expo = -np.log1p(-u)  # exponential spacings -> Dirichlet(1) rows
    rows = expo / expo.sum(axis=-1, keepdims=True)
    return floor + (1.0 - m * floor) * rows


def random_model(m: int, order: int, seed: int, floor: float = 0.05) -> MarkovModel:
    """Random fully supported (hence irreducible) chain: the table of
    ``random_kernels`` for the one seed."""
    return MarkovModel(random_kernels(m, order, seed, floor))
