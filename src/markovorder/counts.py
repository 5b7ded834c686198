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

One engine counts the windows, ``tally._WindowTally``: from a sampler
run that is never stored (``tally.sampled_counts``), or from symbol arrays
in path order, its one-block case (``prefix_counts``).
"""

from __future__ import annotations

import numpy as np

from ._contexts import CODE_CHUNK, symbol_dtype, window_codes

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


def build_counts(path, depth_cap: int, m: int) -> ContextCounts:
    """Count all windows of every depth 0..depth_cap over the symbol array
    ``path`` on the alphabet {0, .., m-1}.  Requires depth_cap < n so that
    even the deepest table has at least one window.
    """
    return next(prefix_counts((path,), (len(path),), depth_cap, m))


def extend_counts(counts: ContextCounts, new_symbols) -> ContextCounts:
    """Counts for the path extended by the symbol array ``new_symbols``, as
    rebuilt on the whole path, from the windows of the retained tail
    followed by them; the input is left untouched."""
    m, cap = counts.m, counts.depth_cap
    new = np.asarray(new_symbols)
    if not new.size:
        return counts
    seam = next(prefix_counts((counts.tail, new), (counts.tail.size + new.size,), cap, m))
    pairs = [(counts.codes, counts.counts), (seam.codes, seam.counts)]
    codes, totals = _merge_pairs(pairs, m ** (cap + 1))
    return ContextCounts(m, cap, counts.n + new.size, codes, totals, counts.head, seam.tail)


def prefix_counts(chunks, lengths, depth_cap: int, m: int):
    """Yield the counts of the prefixes x_{1:n} for the increasing
    ``lengths``, of a path given as the symbol arrays ``chunks`` in order
    (a whole array x as ``(x,)``), never joined into one array: the
    one-block case of the sampler's runs, counted CODE_CHUNK symbols at a
    time by ``tally._WindowTally``.

    Each chunk is pulled once the one before it is counted, and dropped
    then; so a generator of chunks that keeps none of its own is held one
    chunk at a time.  Every chunk is checked, also past the last length,
    before any counts are yielded: a path file is checked whole first.
    """
    from .tally import _WindowTally  # the tally imports this module

    end = lengths[-1]
    tally = _WindowTally(m, depth_cap, lengths, np.zeros(0, symbol_dtype(m)), 1, end)
    at = 0  # the symbols counted, up to the last length
    for chunk in chunks:
        piece = np.asarray(chunk)
        # checked before it is narrowed, so that no out-of-range value wraps
        if piece.size and (piece.min() < 0 or piece.max() >= m):
            raise ValueError("path contains a symbol outside the alphabet")
        # the symbols past the last length are not stored: no window of theirs counts
        piece = piece[: end - at].astype(symbol_dtype(m), copy=False)
        for a in range(0, piece.shape[0], CODE_CHUNK):
            tally.store(piece[a : a + CODE_CHUNK, None], at + a)
        at += piece.shape[0]
        del chunk, piece  # neither is held while the next chunk is read
    if at < end:
        raise ValueError(f"the path ends after {at} symbols, short of length {end}")
    yield from tally.counts()
