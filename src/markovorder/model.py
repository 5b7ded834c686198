"""Finite-alphabet time-homogeneous Markov chains.

A chain of order r over symbols {0, .., m-1} is given by a kernel table of
shape (m**r, m) whose row for a length-r context holds the next-symbol
probabilities, plus an initial law over the m**r contexts (default: the
stationary law of the context chain).  Contexts are indexed as base-m
integers with the most recent symbol in the least significant digit.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from ._contexts import block_digits, context_codes
from .rng import _as_u64, raw53_block, uniform_block

ROW_SUM_TOL = 1e-12
KERNEL_EQ_TOL = 1e-12
DENSE_SOLVE_LIMIT = 4096
POWER_ITER_TOL = 1e-12
POWER_ITER_MAX = 10**6
# sample_paths cuts each lane into as many blocks as keep its first pass
# within BLOCK_CELLS contexts per numpy step, each at least MIN_BLOCK symbols
# long; its stepper draws up to UNIFORM_CELLS uniforms per call
BLOCK_CELLS = 1 << 14
MIN_BLOCK = 16
UNIFORM_CELLS = 1 << 16
# a draw k = raw53_block(...) is the uniform k * 2**-53; no draw reaches
# the threshold NEVER
NEVER = 1 << 53

NEG_INF = float("-inf")


class ReducibleChainError(ValueError):
    """The context chain has more than one closed communicating class."""


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
        rows, m = kernel.shape
        if m < 2:
            raise ValueError(f"alphabet size must be >= 2, got {m}")
        order = 0
        while m**order < rows:
            order += 1
        if m**order != rows:
            raise ValueError(f"kernel has {rows} rows, expected a power of {m}")
        if not np.all((kernel >= 0) & (kernel <= 1)):  # NaN fails too
            raise ValueError("kernel entries must lie in [0, 1]")
        row_sums = kernel.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(f"kernel row {bad} sums to {row_sums[bad]!r}, not 1")
        self._kernel = kernel
        self._kernel.setflags(write=False)
        self._m = m
        self._order = order
        self._stationary_cache = None
        if initial is None:
            self._initial = None  # resolved lazily to the stationary law
        else:
            initial = np.array(initial, dtype=np.float64)
            if initial.shape != (rows,):
                raise ValueError(f"initial law must have shape ({rows},)")
            if not (np.all(initial >= 0) and abs(initial.sum() - 1.0) <= ROW_SUM_TOL):
                raise ValueError("initial law must be a probability vector")
            initial.setflags(write=False)
            self._initial = initial

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
        digest = hashlib.sha1(self._kernel.tobytes()).hexdigest()[:8]
        return f"m{self._m}-r{self._order}-{digest}"

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MarkovModel(m={self._m}, order={self._order})"


def _shift_targets(m: int, order: int) -> np.ndarray:
    """targets[c, b] = context code after seeing symbol b in context c."""
    size = m**order
    return (np.arange(size, dtype=np.int64)[:, None] * m + np.arange(m)) % size


def _reach(step: np.ndarray, ok: np.ndarray, starts) -> np.ndarray:
    """Mask of the contexts reachable from ``starts``, where context c leads
    to ``step[c, j]`` for each j with ``ok[c, j]``."""
    seen = np.zeros(step.shape[0], dtype=bool)
    seen[starts] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        nxt = step[frontier][ok[frontier]]
        frontier = np.unique(nxt[~seen[nxt]])
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
    if size == 1:
        return np.zeros(1, dtype=np.int64)
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


def stationary_distribution(model: MarkovModel) -> np.ndarray:
    """Stationary law of the context chain, as a vector over A**r.

    Solves pi = pi Q restricted to the unique closed class (dense linear
    solve for m**r <= 4096, power iteration above); transient contexts get
    probability zero.

    Raises
    ------
    ReducibleChainError
        If the chain has several closed classes.
    """
    if model._stationary_cache is not None:
        return model._stationary_cache
    m, order = model.m, model.order
    size = m**order
    if order == 0:
        pi = np.ones(1)
    else:
        support = _closed_class(model)
        k = support.shape[0]
        targets = _shift_targets(m, order)[support]
        # positions of targets within the closed class; positive-probability
        # targets stay inside, zero-probability ones are clipped and ignored
        pos = np.clip(np.searchsorted(support, targets), 0, k - 1)
        probs = model.kernel[support]
        if size <= DENSE_SOLVE_LIMIT:
            q = np.zeros((k, k))
            rows = np.repeat(np.arange(k), m)
            np.add.at(q, (rows, pos.ravel()), probs.ravel())
            a = q.T - np.eye(k)
            a[-1, :] = 1.0
            rhs = np.zeros(k)
            rhs[-1] = 1.0
            sub = np.linalg.solve(a, rhs)
        else:
            sub = np.full(k, 1.0 / k)
            flat_pos = pos.ravel()
            flat_probs = probs.ravel()
            rows = np.repeat(np.arange(k), m)
            for _ in range(POWER_ITER_MAX):
                nxt = np.zeros(k)
                np.add.at(nxt, flat_pos, sub[rows] * flat_probs)
                nxt /= nxt.sum()
                if np.max(np.abs(nxt - sub)) <= POWER_ITER_TOL:
                    sub = nxt
                    break
                sub = nxt
            else:
                raise RuntimeError("power iteration did not converge")
        pi = np.zeros(size)
        pi[support] = np.clip(sub, 0.0, None)
        pi /= pi.sum()
    model._stationary_cache = pi
    pi.setflags(write=False)
    return pi


def stationary_block_law(model: MarkovModel, length: int) -> np.ndarray:
    """Stationary probability of every length-``length`` block, as a vector.

    For ``length`` below the model order this marginalizes the stationary
    context law onto the most recent symbols; above, it extends by kernel
    products.
    """
    if length < 0:
        raise ValueError("block length must be nonnegative")
    m, order = model.m, model.order
    pi = stationary_distribution(model)
    if length == order:
        return pi.copy()
    if length < order:
        # least significant digits are the most recent symbols
        return pi.reshape(m ** (order - length), m**length).sum(axis=0)
    law = pi.copy()
    for k in range(order, length):
        base = np.arange(m**k, dtype=np.int64) % (m**order)
        law = (law[:, None] * model.kernel[base]).ravel()
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
    """Kernel table of an order-s chain re-indexed over length-r contexts."""
    rows = kernel.shape[0]
    if m**r < rows:
        raise ValueError(f"cannot lift an order table of {rows} rows to order {r}")
    if m**r == rows:
        return np.array(kernel, dtype=np.float64)
    base = np.arange(m**r, dtype=np.int64) % rows
    return np.array(kernel, dtype=np.float64)[base]


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


def _initial_codes(model: MarkovModel, seeds: np.ndarray) -> np.ndarray:
    """Initial context code of every lane, from draw 0 of its stream."""
    k0 = raw53_block(seeds, 0, 1)[:, 0]
    return np.searchsorted(_thresholds(model.initial), k0, side="right")


def _advance(model: MarkovModel, seeds, positions, ctx, steps: int):
    """Move a (rows, width) array of contexts ``steps`` symbols forward.

    Row g steps on stream ``seeds[g]`` at positions ``positions[g]``,
    ``positions[g] + 1``, ..., one numpy step per symbol, and yields
    ``(ctx, sym)`` after each step.  Columns of one row read the same
    draws, so once they meet they stay together (a grand coupling); when
    all columns of every row agree the width collapses to one.
    """
    columns = _thresholds(model.kernel).T
    targets = _shift_targets(model.m, model.order).ravel()
    chunk = max(1, UNIFORM_CELLS // max(seeds.shape[0], 1))
    for j in range(0, steps, chunk):
        block = raw53_block(seeds, positions + np.uint64(j), min(chunk, steps - j))
        for k in block.T[:, :, None]:
            sym = sum(column[ctx] <= k for column in columns)
            ctx = targets[ctx * model.m + sym]
            if ctx.shape[1] > 1 and (ctx == ctx[:, :1]).all():
                ctx, sym = ctx[:, :1], sym[:, :1]
            yield ctx, sym
        del block, k  # free this chunk before the next one is drawn


def sample_paths(model: MarkovModel, n: int, seeds) -> np.ndarray:
    """Sample ``n`` symbols per seed: the first r from the initial law, the
    rest from the kernel.  Row i is a pure function of (model, n, seeds[i]).

    Stream layout: uniform 0 picks the initial context block, uniform k >= 1
    picks the symbol at position r + k.

    The n - r kernel steps of each lane are cut into equal blocks.  A first
    pass steps every block from every start context at once and keeps the
    context each one ends in; composing these block maps gives every
    block's start from the lane's initial context.  This is a scan over
    finite-state maps (Blelloch, "Prefix sums and their applications",
    1990).  Once all start columns have coalesced, a block's symbols no
    longer depend on its start, so the first pass writes them; a second
    pass replays each block from its start only up to that step.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    seeds = np.atleast_1d(_as_u64(seeds))
    lanes = seeds.shape[0]
    m, r, size = model.m, model.order, model.n_contexts
    init = _initial_codes(model, seeds)
    steps = max(n - r, 0)
    blocks = max(1, min(steps // MIN_BLOCK, BLOCK_CELLS // max(lanes * size, 1)))
    # an odd block length keeps the column stores body[:, :, j] off a
    # power-of-two row stride, whose blocks all land on the same cache sets
    length = (-(-steps // blocks) | 1) if blocks > 1 else steps
    firsts = np.uint64(1) + np.uint64(length) * np.arange(blocks, dtype=np.uint64)
    rows = (np.repeat(seeds, blocks), np.tile(firsts, lanes))
    starts = np.repeat(init, blocks).reshape(lanes, blocks)
    out = np.empty((lanes, r + blocks * length), dtype=np.int64)
    out[:, :r] = block_digits(init, r, m)
    body = out[:, r:].reshape(lanes, blocks, length)
    replay = length  # the steps before the start columns coalesce
    if blocks > 1:
        every = np.broadcast_to(np.arange(size), (lanes * blocks, size))
        for j, (ends, sym) in enumerate(_advance(model, *rows, every, length)):
            if ends.shape[1] == 1:  # coalesced, and it stays so
                body[:, :, j] = sym.reshape(lanes, blocks)
                replay = min(replay, j)
        # compose the block maps by doubling (each right-hand side is read
        # whole before it is stored); afterwards maps[:, b] sends a start
        # context of block 0 to the end context of block b
        maps = np.broadcast_to(ends, every.shape).reshape(lanes, blocks, size).copy()
        shift = 1
        while shift < blocks:
            maps[:, shift:] = np.take_along_axis(maps[:, shift:], maps[:, :-shift], axis=2)
            shift *= 2
        starts[:, 1:] = np.take_along_axis(maps[:, :-1], init[:, None, None], axis=2)[:, :, 0]
    for j, (_, sym) in enumerate(_advance(model, *rows, starts.reshape(-1, 1), replay)):
        body[:, :, j] = sym.reshape(lanes, blocks)
    return out[:, :n]


def step_lanes(model: MarkovModel, n: int, seeds: np.ndarray, depth: int):
    """Yield ``(i, ctx, sym)`` for positions i = 1..n, vectorized over seeds:
    lane j steps through ``sample_paths(model, n, seeds[j])[0]`` without any
    lanes x n array being stored.

    ``ctx`` codes the min(i-1, depth) most recent symbols before position i
    (low digits are the newest), and ``sym`` is the symbol at position i.
    """
    m, r = model.m, model.order
    init = _initial_codes(model, seeds)
    prefix = block_digits(init, r, m).T[:n]
    steps = _advance(model, seeds, np.ones_like(seeds), init[:, None], n - r)
    size = m ** max(depth, r)
    ctx = np.zeros(seeds.shape[0], dtype=np.int64)
    for i, sym in enumerate(itertools.chain(prefix, (s[:, 0] for _, s in steps)), start=1):
        yield i, ctx, sym
        ctx = (ctx * m + sym) % size


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


def random_model(m: int, order: int, seed: int, floor: float = 0.05) -> MarkovModel:
    """Random fully supported (hence irreducible) chain.

    Rows are Dirichlet(1) draws pushed away from the simplex boundary by
    ``floor`` so that every transition has positive probability.
    """
    if not 0.0 <= floor < 1.0 / m:
        raise ValueError("floor must lie in [0, 1/m)")
    size = m**order
    u = uniform_block(seed, 0, size * m).reshape(size, m)
    expo = -np.log1p(-u)  # exponential spacings -> Dirichlet(1) rows
    rows = expo / expo.sum(axis=1, keepdims=True)
    kernel = floor + (1.0 - m * floor) * rows
    return MarkovModel(kernel)


# ---------------------------------------------------------------------------
# plain-text model files
#
# Grammar (one key per line, '#' starts a comment, blank lines ignored):
#   alphabet_size: <int>
#   order: <int>
#   kernel:
#     <m floats>            one line per context, in context-code order
#     ... (m**order lines)
#   initial: <m**order floats>          optional; may continue on
#     following indented lines until enough numbers are read
# ---------------------------------------------------------------------------


def write_model_file(model: MarkovModel, path) -> None:
    """Write the model in the plain-text format described in the README."""
    lines = [
        f"alphabet_size: {model.m}",
        f"order: {model.order}",
        "kernel:",
    ]
    for row in model.kernel:
        lines.append("  " + " ".join(format(v, ".17g") for v in row))
    lines.append("initial: " + " ".join(format(v, ".17g") for v in model.initial))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_model_file(path) -> MarkovModel:
    """Parse a plain-text model file; see ``write_model_file`` for the grammar."""
    with open(path) as fh:
        raw = [ln.split("#", 1)[0].rstrip() for ln in fh]
    lines = [ln for ln in raw if ln.strip()]
    fields: dict[str, object] = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key in ("alphabet_size", "order"):
            least = 2 if key == "alphabet_size" else 0
            if not rest.isdecimal() or int(rest) < least:
                raise ValueError(f"model file {key}: expected an integer >= {least}, got {rest!r}")
            fields[key] = int(rest)
            i += 1
        elif key in ("kernel", "initial"):
            if "alphabet_size" not in fields or "order" not in fields:
                raise ValueError(f"model file {key}: must follow alphabet_size and order")
            m, order = fields["alphabet_size"], fields["order"]
            # context codes are int64; an order past that fits no kernel
            if order >= 63 or m**order >= 2**63:
                raise ValueError(f"model file order: {m}**{order} contexts overflow int64 codes")
            needed = m**order
            i += 1
            if key == "kernel":
                rows = []
                for k in range(needed):
                    if i >= len(lines):
                        raise ValueError("kernel section is truncated")
                    rows.append([float(v) for v in lines[i].split()])
                    if len(rows[k]) != m:
                        raise ValueError(f"kernel row {k} has {len(rows[k])} entries, not {m}")
                    i += 1
                fields["kernel"] = rows
            else:
                values = [float(v) for v in rest.split()]
                while len(values) < needed and i < len(lines) and ":" not in lines[i]:
                    values.extend(float(v) for v in lines[i].split())
                    i += 1
                if len(values) != needed:
                    raise ValueError(
                        f"initial law has {len(values)} entries, expected {needed}"
                    )
                fields["initial"] = values
        else:
            raise ValueError(f"unknown model file key: {key!r}")
    if "kernel" not in fields:
        raise ValueError("model file lacks a kernel section")
    return MarkovModel(fields["kernel"], initial=fields.get("initial"))
