"""Exact context and transition counts for every depth up to a cap.

For depth r the table counts, over window end positions i = r+1..n, how
often each length-r context precedes each next symbol.  Context counts are
the row sums of the transition table (every counted window has a next
symbol inside the path).

Only the deepest table is stored.  The depth-r table is the depth-(r+1)
table summed over its oldest symbol, plus the one window that ends at
position r+1; unrolled, it is the depth-cap table read modulo m**(r+1)
plus the windows that lie inside the first ``depth_cap`` symbols.  So a
table is one sorted pair: the distinct window codes ``ctx * m + next``
(newest symbol least significant) and their positive counts, next to the
first and the last ``depth_cap`` symbols of the path.

The windows come from symbol arrays in path order (``_extend``), or, in
``tally.sampled_counts``, from a sampler run that is never stored; both
code them with ``_contexts`` and tally them with ``_merge``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from functools import partial
from itertools import takewhile
from operator import is_not

import numpy as np

from ._contexts import symbol_dtype, window_code_chunks, window_codes

# _merge tallies codes by bincount up to this many cells, or this many
# cells per code; a sort of the codes is cheaper only past both
TALLY_CELLS = 1 << 16
TALLY_RATIO = 8


class ContextCounts:
    """Counts for all depths 0..depth_cap over a growing path."""

    def __init__(self, m: int, depth_cap: int, n: int, codes, counts, head, tail):
        self.m = int(m)
        self.depth_cap = int(depth_cap)
        self.n = int(n)
        self.codes = np.asarray(codes, dtype=np.int64)  # depth-cap window codes, increasing
        self.counts = np.asarray(counts, dtype=np.int64)  # their counts, all positive
        dt = symbol_dtype(self.m)
        self.head = np.asarray(head, dtype=dt)  # first depth_cap symbols
        self.tail = np.asarray(tail, dtype=dt)  # last depth_cap symbols

    def _depth_windows(self, r: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The stored codes read at depth r, the codes of the depth-r windows
        inside the head, and the size m**(r+1) of the code space."""
        if not 0 <= r <= self.depth_cap:
            raise ValueError(f"depth {r} outside tracked range 0..{self.depth_cap}")
        size = self.m ** (r + 1)
        return self.codes % size, window_codes(self.head, r + 1, self.m), size

    def window_counts(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct codes ``ctx * m + next`` of the length-(r+1) windows, in
        increasing order, and their positive counts."""
        codes, inside_head, size = self._depth_windows(r)
        return _merge(
            np.concatenate([codes, inside_head]),
            np.concatenate([self.counts, np.ones(inside_head.shape[0], dtype=np.int64)]),
            size,
        )

    def transition_counts(self, r: int) -> np.ndarray:
        """Transition table at depth r: ndarray (m**r, m)."""
        codes, inside_head, size = self._depth_windows(r)
        table = np.bincount(codes, self.counts, minlength=size).astype(np.int64)
        table += np.bincount(inside_head, minlength=size)
        return table.reshape(self.m**r, self.m)

    def context_counts(self, r: int) -> np.ndarray:
        """Context counts at depth r: ndarray (m**r,)."""
        return self.transition_counts(r).sum(axis=1)


def _merge(codes: np.ndarray, counts, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes below ``size`` in increasing order, and the summed
    positive ``counts`` of each (one per code when None).

    Tallies in a length-``size`` array when that is at most TALLY_RATIO
    times the input or TALLY_CELLS long, and sorts otherwise.  Weighted
    sums run in float64, exact for counts below 2**53.
    """
    if size <= max(TALLY_RATIO * codes.shape[0], TALLY_CELLS):
        tally = np.bincount(codes, counts, minlength=size)
        keys = np.flatnonzero(tally)
        return keys, tally[keys].astype(np.int64)
    keys, inverse = np.unique(codes, return_inverse=True)
    return keys.astype(np.int64), np.bincount(inverse, counts).astype(np.int64)


def _merge_pairs(pairs, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (codes, counts) ``pairs`` of ``_merge`` merged into one."""
    keys, tallies = zip(*pairs)
    return _merge(np.concatenate(keys), np.concatenate(tallies), size)


def _symbols(path, m: int, what: str) -> np.ndarray:
    """``path`` in the symbol dtype of m, after checking every symbol lies
    in {0, .., m-1}, so that no out-of-range value wraps."""
    x = np.asarray(path)
    if x.size and (x.min() < 0 or x.max() >= m):
        raise ValueError(f"{what} contains a symbol outside the alphabet")
    return x.astype(symbol_dtype(m), copy=False)


def _empty(m: int, depth_cap: int) -> ContextCounts:
    """The counts of the empty path, after checking m and that the
    depth-cap window codes fit int64."""
    if m < 2:
        raise ValueError(f"alphabet size m must be >= 2, got {m}")
    if m ** (depth_cap + 1) >= 2**63:
        raise ValueError(f"depth cap {depth_cap}: {m}**{depth_cap + 1} window codes overflow int64")
    none = np.zeros(0, dtype=np.int64)
    return ContextCounts(m, depth_cap, 0, none, none, none, none)


def _extend(counts: ContextCounts, pieces) -> ContextCounts:
    """Counts for the path extended by the symbol arrays ``pieces`` in
    turn; ``counts`` is left untouched.

    Only windows ending in a piece are added, read from the retained tail
    and the piece in place, and tallied a chunk of window codes at a time;
    all tallies are merged once.  A piece is never copied, and it is
    released before the next one is pulled.
    """
    m, cap = counts.m, counts.depth_cap
    size = m ** (cap + 1)
    n, head, tail = counts.n, counts.head, counts.tail
    pairs = [(counts.codes, counts.counts)]
    for piece in pieces:
        new = _symbols(piece, m, "path")
        seam = np.concatenate([tail, new[:cap]])
        pairs += [
            _merge(c, None, size)
            for part in (seam, new)
            for c in window_code_chunks(part, cap + 1, m)
        ]
        if head.size < cap:
            head = np.concatenate([head, new[: cap - head.size]])
        # the last cap symbols of tail and piece, copied out of the piece
        keep = max(cap - new.size, 0)
        tail = np.concatenate([tail[max(tail.size - keep, 0) :], new[max(new.size - cap, 0) :]])
        n += new.size
        del piece, new
    codes, totals = _merge_pairs(pairs, size) if len(pairs) > 1 else pairs[0]
    return ContextCounts(m, cap, n, codes, totals, head, tail)


def build_counts(path, depth_cap: int, m: int) -> ContextCounts:
    """Count all windows of every depth 0..depth_cap over the symbol array
    ``path`` on the alphabet {0, .., m-1}.  Requires depth_cap < n so that
    even the deepest table has at least one window.
    """
    empty = _empty(m, depth_cap)
    n = np.shape(path)[0]
    if depth_cap >= n:
        raise ValueError(f"depth cap {depth_cap} must be < path length {n}")
    return _extend(empty, (path,))


def extend_counts(counts: ContextCounts, new_symbols) -> ContextCounts:
    """Counts for the path extended by ``new_symbols``, one symbol array or
    an iterator of them in turn; the input is left untouched.

    Equivalent to rebuilding from scratch on the full path (see
    ``_extend``).
    """
    return _extend(counts, new_symbols if isinstance(new_symbols, Iterator) else (new_symbols,))


def _cut(chunks, lengths):
    """Yield the symbol arrays of ``chunks`` cut at the increasing
    ``lengths``, and None after the pieces up to each length; stop early
    when the chunks run out.  A chunk is pulled once the one before it has
    been yielded whole, with no reference to it kept.  The chunks past the
    last length are pulled and dropped before its None."""
    chunks = iter(chunks)
    rest, at = np.zeros(0), 0  # the part of the current chunk not yet yielded
    for end in lengths:
        while at < end:
            if not rest.size:
                rest = None  # an empty view would hold the spent chunk
                rest = next(chunks, None)
                if rest is None:
                    return
                rest = np.asarray(rest)
            k = min(rest.size, end - at)
            at += k
            yield rest[:k]
            rest = rest[k:]
        if end == lengths[-1]:
            rest = None  # not held while the rest of the chunks is read
            deque(chunks, maxlen=0)
        yield None


def prefix_counts(chunks, lengths, depth_cap: int, m: int):
    """Yield the counts of the prefixes x_{1:n} for the increasing
    ``lengths``, of a path given as the symbol arrays ``chunks`` in order
    (a whole array x as ``(x,)``): extended from one length to the next,
    never rebuilt, and never joined into one array.

    Each chunk is pulled once the one before it is counted, and dropped
    then; so a generator of chunks that keeps none of its own is held one
    chunk at a time.  They are pulled to their end before the last counts
    are yielded, so a path file is checked whole before any table is used.
    """
    counts = _empty(m, depth_cap)
    if depth_cap >= lengths[0]:
        raise ValueError(f"depth cap {depth_cap} must be < path length {lengths[0]}")
    pieces = _cut(chunks, lengths)
    for n in lengths:
        counts = extend_counts(counts, takewhile(partial(is_not, None), pieces))
        if counts.n < n:
            raise ValueError(f"the path ends after {counts.n} symbols, short of length {n}")
        yield counts
