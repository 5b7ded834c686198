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
"""

from __future__ import annotations

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


def _symbols(path, m: int, what: str) -> np.ndarray:
    """``path`` in the symbol dtype of m, after checking every symbol lies
    in {0, .., m-1}, so that no out-of-range value wraps."""
    x = np.asarray(path)
    if x.size and (x.min() < 0 or x.max() >= m):
        raise ValueError(f"{what} contains a symbol outside the alphabet")
    return x.astype(symbol_dtype(m), copy=False)


def _tally(parts, m: int, cap: int, pairs=()) -> tuple[np.ndarray, np.ndarray]:
    """Merge the depth-``cap`` windows of each symbol array in ``parts``
    into the sorted (codes, counts) ``pairs``: each chunk of window codes
    is tallied alone, and all pairs are merged once."""
    size = m ** (cap + 1)
    chunks = (chunk for part in parts for chunk in window_code_chunks(part, cap + 1, m))
    pairs = [*pairs, *(_merge(chunk, None, size) for chunk in chunks)]
    if len(pairs) == 1:  # a short path: one chunk, already merged
        return pairs[0]
    keys, tallies = zip(*pairs)
    return _merge(np.concatenate(keys), np.concatenate(tallies), size)


def build_counts(path, depth_cap: int, m: int) -> ContextCounts:
    """Count all windows of every depth 0..depth_cap over the symbol array
    ``path`` on the alphabet {0, .., m-1}.  Requires depth_cap < n so that
    even the deepest table has at least one window.
    """
    if m < 2:
        raise ValueError(f"alphabet size m must be >= 2, got {m}")
    symbols = _symbols(path, m, "path")
    n = symbols.shape[0]
    if depth_cap >= n:
        raise ValueError(f"depth cap {depth_cap} must be < path length {n}")
    if m ** (depth_cap + 1) >= 2**63:
        raise ValueError(f"depth cap {depth_cap}: {m}**{depth_cap + 1} window codes overflow int64")
    codes, counts = _tally((symbols,), m, depth_cap)
    head = symbols[:depth_cap].copy()
    return ContextCounts(m, depth_cap, n, codes, counts, head, symbols[n - depth_cap :].copy())


def extend_counts(counts: ContextCounts, new_symbols) -> ContextCounts:
    """Counts for the concatenated path; the input is left untouched.

    Equivalent to rebuilding from scratch on the full path: only windows
    ending in the new segment are added, read from the retained tail and
    the segment in place; the segment itself is never copied.
    """
    m, cap = counts.m, counts.depth_cap
    new = _symbols(new_symbols, m, "extension")
    seam = np.concatenate([counts.tail, new[:cap]])
    codes, totals = _tally((seam, new), m, cap, [(counts.codes, counts.counts)])
    tail = np.concatenate([counts.tail[min(new.size, cap):], new[max(new.size - cap, 0):]])
    return ContextCounts(m, cap, counts.n + new.shape[0], codes, totals, counts.head, tail)


def prefix_counts(symbols, lengths, depth_cap: int, m: int):
    """Yield the counts of the prefixes x_{1:n} for the increasing
    ``lengths``: built at the first, then extended, never rebuilt."""
    counts = build_counts(symbols[: lengths[0]], depth_cap, m)
    yield counts
    for n in lengths[1:]:
        counts = extend_counts(counts, symbols[counts.n : n])
        yield counts
