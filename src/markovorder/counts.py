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

import struct

import numpy as np

from ._contexts import window_codes

_MAGIC = b"MKOC"
_VERSION = 2


class ContextCounts:
    """Counts for all depths 0..depth_cap over a growing path."""

    def __init__(self, m: int, depth_cap: int, n: int, codes, counts, head, tail):
        self.m = int(m)
        self.depth_cap = int(depth_cap)
        self.n = int(n)
        self.codes = np.asarray(codes, dtype=np.int64)  # depth-cap window codes, increasing
        self.counts = np.asarray(counts, dtype=np.int64)  # their counts, all positive
        self.head = np.asarray(head, dtype=np.int64)  # first depth_cap symbols
        self.tail = np.asarray(tail, dtype=np.int64)  # last depth_cap symbols

    def window_counts(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct codes ``ctx * m + next`` of the length-(r+1) windows, in
        increasing order, and their positive counts."""
        if not 0 <= r <= self.depth_cap:
            raise ValueError(f"depth {r} outside tracked range 0..{self.depth_cap}")
        size = self.m ** (r + 1)
        inside_head = window_codes(self.head, r + 1, self.m)
        return _merge(
            np.concatenate([self.codes % size, inside_head]),
            np.concatenate([self.counts, np.ones(inside_head.shape[0], dtype=np.int64)]),
            size,
        )

    def transition_counts(self, r: int) -> np.ndarray:
        """Transition table at depth r: ndarray (m**r, m)."""
        codes, counts = self.window_counts(r)
        table = np.zeros(self.m ** (r + 1), dtype=np.int64)
        table[codes] = counts
        return table.reshape(self.m**r, self.m)

    def context_counts(self, r: int) -> np.ndarray:
        """Context counts at depth r: ndarray (m**r,)."""
        return self.transition_counts(r).sum(axis=1)

    # -- binary checkpoint format (little-endian, layout in the README) ----

    def dump(self, path) -> None:
        """Write a versioned little-endian binary checkpoint."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<HHIIQ", _VERSION, 0, self.m, self.depth_cap, self.n))
            fh.write(self.head.astype("<u4").tobytes())
            fh.write(self.tail.astype("<u4").tobytes())
            fh.write(struct.pack("<Q", self.codes.shape[0]))
            fh.write(self.codes.astype("<u8").tobytes())
            fh.write(self.counts.astype("<u8").tobytes())

    @classmethod
    def load(cls, path) -> "ContextCounts":
        """Read a checkpoint of version 2, or of version 1 (one table per depth)."""
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise ValueError("not a counts checkpoint file")
            version, _, m, depth_cap, n = struct.unpack("<HHIIQ", fh.read(20))
            if version == 1:
                return _load_v1(fh, m, depth_cap, n)
            if version != _VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            head = _read_array(fh, "<u4", depth_cap)
            tail = _read_array(fh, "<u4", depth_cap)
            entries = _read_array(fh, "<u8", 1)[0]
            codes = _read_array(fh, "<u8", entries)
            counts = _read_array(fh, "<u8", entries)
        bad = (codes < 0) | (codes >= m ** (depth_cap + 1)) | (counts <= 0)
        if bad.any() or np.any(np.diff(codes) <= 0) or counts.sum() != n - depth_cap:
            raise ValueError("inconsistent counts checkpoint file")
        if np.any(head >= m) or np.any(tail >= m):
            raise ValueError("counts checkpoint holds a symbol outside the alphabet")
        return cls(m, depth_cap, n, codes, counts, head, tail)


def _read_array(fh, dtype: str, count: int) -> np.ndarray:
    size = np.dtype(dtype).itemsize * int(count)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("truncated counts checkpoint file")
    return np.frombuffer(raw, dtype=dtype).astype(np.int64)


def _load_v1(fh, m: int, depth_cap: int, n: int) -> ContextCounts:
    """Version 1 stored every depth, dense (kind 0) or as context rows (kind 1).

    The deepest table becomes the pair.  The depth-r table counts the next
    symbols x_{r+1..n} and the depth-(r+1) table x_{r+2..n}, so their
    next-symbol totals differ by x_{r+1}: that is head symbol r.
    """
    tail = _read_array(fh, "<u4", _read_array(fh, "<u4", 1)[0])
    totals = []
    for r in range(depth_cap + 1):
        if _read_array(fh, "<u1", 1)[0] == 0:
            rows = _read_array(fh, "<u8", m ** (r + 1)).reshape(m**r, m)
            ctx = np.arange(m**r)
        else:
            entries = _read_array(fh, "<u8", 1)[0]
            rows = _read_array(fh, "<u8", entries * (m + 1)).reshape(entries, m + 1)
            ctx, rows = rows[:, 0], rows[:, 1:]
        totals.append(rows.sum(axis=0))
    head = [int(np.argmax(a - b)) for a, b in zip(totals, totals[1:])]
    codes, counts = (ctx[:, None] * m + np.arange(m)).ravel(), rows.ravel()
    return ContextCounts(m, depth_cap, n, codes[counts > 0], counts[counts > 0], head, tail)


def _merge(codes: np.ndarray, counts, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes below ``size`` in increasing order, and the summed
    positive ``counts`` of each (one per code when None).

    Tallies in a length-``size`` array when that is no longer than the
    input, and sorts otherwise.  Weighted sums run in float64, exact for
    counts below 2**53.
    """
    if size <= codes.shape[0]:
        tally = np.bincount(codes, counts, minlength=size)
        keys = np.flatnonzero(tally)
        return keys, tally[keys].astype(np.int64)
    keys, inverse = np.unique(codes, return_inverse=True)
    return keys, np.bincount(inverse, counts).astype(np.int64)


def build_counts(path, depth_cap: int, m: int | None = None) -> ContextCounts:
    """Count all windows of every depth 0..depth_cap over the path.

    ``path`` may be a PathSample or a plain symbol array (then ``m`` is
    required).  Requires depth_cap < n so that even the deepest table has
    at least one window.
    """
    symbols = np.asarray(getattr(path, "symbols", path), dtype=np.int64)
    if m is None:
        m = getattr(path, "m", 0)
    if not m or m < 2:
        raise ValueError("alphabet size m must be given (>= 2)")
    n = symbols.shape[0]
    if depth_cap >= n:
        raise ValueError(f"depth cap {depth_cap} must be < path length {n}")
    if symbols.size and (symbols.min() < 0 or symbols.max() >= m):
        raise ValueError("path contains a symbol outside the alphabet")
    codes, counts = _merge(window_codes(symbols, depth_cap + 1, m), None, m ** (depth_cap + 1))
    head = symbols[:depth_cap].copy()
    return ContextCounts(m, depth_cap, n, codes, counts, head, symbols[n - depth_cap :].copy())


def extend_counts(counts: ContextCounts, new_symbols) -> ContextCounts:
    """Counts for the concatenated path; the input is left untouched.

    Equivalent to rebuilding from scratch on the full path: only windows
    whose end position lands in the new segment are added, reaching back
    into the retained tail for their contexts.
    """
    new = np.asarray(getattr(new_symbols, "symbols", new_symbols), dtype=np.int64)
    m, cap = counts.m, counts.depth_cap
    if new.size and (new.min() < 0 or new.max() >= m):
        raise ValueError("extension contains a symbol outside the alphabet")
    size = m ** (cap + 1)
    spliced = np.concatenate([counts.tail, new])
    added, added_counts = _merge(window_codes(spliced, cap + 1, m), None, size)
    codes, totals = _merge(
        np.concatenate([counts.codes, added]), np.concatenate([counts.counts, added_counts]), size
    )
    tail = spliced[spliced.shape[0] - cap :].copy()
    return ContextCounts(m, cap, counts.n + new.shape[0], codes, totals, counts.head, tail)


def prefix_counts(symbols, lengths, depth_cap: int, m: int):
    """Yield the counts of the prefixes x_{1:n} for the increasing
    ``lengths``: built at the first, then extended, never rebuilt."""
    counts = build_counts(symbols[: lengths[0]], depth_cap, m)
    yield counts
    for n in lengths[1:]:
        counts = extend_counts(counts, symbols[counts.n : n])
        yield counts
