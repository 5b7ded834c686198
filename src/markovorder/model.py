"""Finite-alphabet time-homogeneous Markov chains.

A chain of order r over symbols {0, .., m-1} is given by a kernel table of
shape (m**r, m) whose row for a length-r context holds the next-symbol
probabilities, plus an initial law over the m**r contexts (default: the
stationary law of the context chain).  Contexts are indexed as base-m
integers with the most recent symbol in the least significant digit.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._contexts import block_digits, context_codes
from .rng import uniform_block, uniforms_at

ROW_SUM_TOL = 1e-12
KERNEL_EQ_TOL = 1e-12
STATIONARY_TOL = 1e-10
DENSE_SOLVE_LIMIT = 4096
POWER_ITER_TOL = 1e-12
POWER_ITER_MAX = 10**6

NEG_INF = float("-inf")


class ReducibleChainError(ValueError):
    """The context chain has more than one closed communicating class."""


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {0, .., size-1}; at least two symbols."""

    size: int

    def __post_init__(self):
        if int(self.size) < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.size}")


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
        if np.any(kernel < 0) or np.any(kernel > 1):
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
            if np.any(initial < 0) or abs(initial.sum() - 1.0) > ROW_SUM_TOL:
                raise ValueError("initial law must be a probability vector")
            initial.setflags(write=False)
            self._initial = initial

    @property
    def m(self) -> int:
        return self._m

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self._m)

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
            self._initial = stationary_distribution(self)
            self._initial.setflags(write=False)
        return self._initial

    def label(self) -> str:
        """Opaque identifier derived from the kernel bytes."""
        digest = hashlib.sha1(self._kernel.tobytes()).hexdigest()[:8]
        return f"m{self._m}-r{self._order}-{digest}"

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"MarkovModel(m={self._m}, order={self._order})"


@dataclass(frozen=True)
class PathSample:
    """A sampled trajectory: symbol array plus the seed that produced it."""

    symbols: np.ndarray
    seed: int
    model_id: str = ""
    m: int = 0

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        if self.m and symbols.size and int(symbols.max()) >= self.m:
            raise ValueError("path contains a symbol outside the alphabet")

    def __len__(self):
        return int(self.symbols.shape[0])


def _shift_targets(m: int, order: int) -> np.ndarray:
    """targets[c, b] = context code after seeing symbol b in context c."""
    size = m**order
    codes = np.arange(size, dtype=np.int64)
    if order == 0:
        return np.zeros((1, m), dtype=np.int64)
    mod = m ** (order - 1)
    return (codes[:, None] % mod) * m + np.arange(m, dtype=np.int64)[None, :]


def _closed_class(model: MarkovModel) -> np.ndarray:
    """Context codes of the unique closed communicating class.

    Raises ReducibleChainError if the positive-transition digraph has more
    than one closed strongly connected component (no unique stationary law).
    """
    m, order = model.m, model.order
    size = m**order
    if size == 1:
        return np.zeros(1, dtype=np.int64)
    targets = _shift_targets(m, order)
    src, dst = np.nonzero(model.kernel > 0.0)
    graph = csr_matrix(
        (np.ones(src.shape[0], dtype=np.int8), (src, targets[src, dst])),
        shape=(size, size),
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    # a component is closed iff no positive transition leaves it
    leaves = labels[src] != labels[targets[src, dst]]
    open_comps = np.unique(labels[src[leaves]])
    closed = np.setdiff1d(np.arange(n_comp), open_comps)
    if closed.shape[0] != 1:
        raise ReducibleChainError(
            f"{closed.shape[0]} closed communicating classes; "
            "no unique stationary law"
        )
    return np.nonzero(labels == closed[0])[0]


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


def min_positive_transition(model: MarkovModel) -> float:
    """Smallest strictly positive kernel entry (the per-step floor lambda)."""
    positive = model.kernel[model.kernel > 0.0]
    return float(positive.min())


def kernel_at_true_order(model: MarkovModel) -> np.ndarray:
    """Kernel table re-indexed over length-``true_order`` contexts."""
    m = model.m
    s = true_order(model)
    if s == model.order:
        return model.kernel
    return model.kernel.reshape(-1, m**s, m)[0]


def sample_path(model: MarkovModel, n: int, seed: int, model_id: str | None = None) -> PathSample:
    """Sample ``n`` symbols: the first r from the initial law, the rest
    from the kernel.  Pure function of (model, n, seed).

    Stream layout: uniform 0 picks the initial context block, uniform k >= 1
    picks the symbol at position r + k.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    m, r = model.m, model.order
    init_cum = np.cumsum(model.initial)
    out = np.empty(n, dtype=np.int64)
    u0 = uniform_block(seed, 0, 1)[0]
    init_code = bisect_right(init_cum.tolist(), u0)
    if init_code >= m**r:
        init_code = m**r - 1
    head = block_digits(init_code, r, m)
    take = min(r, n)
    out[:take] = head[:take]
    if n > r:
        cum_rows = np.cumsum(model.kernel, axis=1).tolist()
        us = uniform_block(seed, 1, n - r).tolist()
        ctx = init_code
        mod = m ** (r - 1) if r >= 1 else 1
        last = m - 1
        if r == 0:
            row = cum_rows[0]
            for k in range(n):
                b = bisect_right(row, us[k])
                out[k] = b if b <= last else last
        else:
            for k in range(n - r):
                b = bisect_right(cum_rows[ctx], us[k])
                if b > last:
                    b = last
                out[r + k] = b
                ctx = (ctx % mod) * m + b
    return PathSample(out, seed=seed, model_id=model_id or model.label(), m=m)


def sample_paths(model: MarkovModel, n: int, seeds) -> np.ndarray:
    """Sample one path per seed, vectorized across seeds.

    Row ``i`` is bit-identical to ``sample_path(model, n, seeds[i]).symbols``.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    seeds = np.asarray(seeds, dtype=np.uint64)
    reps = seeds.shape[0]
    m, r = model.m, model.order
    out = np.empty((reps, n), dtype=np.int64)
    init_cum = np.cumsum(model.initial)
    u0 = uniforms_at(seeds, 0)
    init_code = np.searchsorted(init_cum, u0, side="right")
    np.clip(init_code, 0, m**r - 1, out=init_code)
    head = block_digits(init_code, r, m)
    take = min(r, n)
    if take:
        out[:, :take] = head[:, :take]
    if n > r:
        cum = np.cumsum(model.kernel, axis=1)
        ctx = init_code.astype(np.int64)
        mod = m ** (r - 1) if r >= 1 else 1
        for k in range(n - r):
            u = uniforms_at(seeds, k + 1)
            rows = cum[ctx]
            b = (rows <= u[:, None]).sum(axis=1)
            np.clip(b, 0, m - 1, out=b)
            out[:, r + k] = b
            if r >= 1:
                ctx = (ctx % mod) * m + b
    return out


def log_true_conditional_likelihood(model: MarkovModel, path, r: int) -> float:
    """log-probability of the path given its first r symbols, under the model.

    Equals the sum over i > r of ``log P(x_i | last true_order symbols)``;
    valid only for r at or above the true order.  Returns -inf (an explicit
    sentinel, never NaN) when the path hits a zero-probability transition.
    """
    symbols = np.asarray(getattr(path, "symbols", path), dtype=np.int64)
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
        if key == "alphabet_size":
            fields["m"] = int(rest)
            i += 1
        elif key == "order":
            fields["order"] = int(rest)
            i += 1
        elif key == "kernel":
            if "m" not in fields or "order" not in fields:
                raise ValueError("kernel section must follow alphabet_size and order")
            m, order = int(fields["m"]), int(fields["order"])
            rows = []
            i += 1
            for _ in range(m**order):
                if i >= len(lines):
                    raise ValueError("kernel section is truncated")
                rows.append([float(v) for v in lines[i].split()])
                i += 1
            fields["kernel"] = rows
        elif key == "initial":
            m, order = int(fields["m"]), int(fields["order"])
            needed = m**order
            values = [float(v) for v in rest.split()]
            i += 1
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
