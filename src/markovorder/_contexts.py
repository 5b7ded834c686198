"""Context-window codes shared by the counting and likelihood machinery.

A length-r window is encoded as a base-m integer whose least significant
digit is the most recent symbol, so sliding one step is
``code -> (code % m**(r-1)) * m + next_symbol``.
"""

from __future__ import annotations

import numpy as np

# window_codes runs its Horner passes over this many codes at a time, so
# that each pass reads and writes a chunk still in cache
CODE_CHUNK = 1 << 15


def window_codes(symbols: np.ndarray, length: int, m: int) -> np.ndarray:
    """Codes of every length-``length`` window of ``symbols``.

    Entry ``t`` encodes ``symbols[t:t+length]``; the result has
    ``n - length + 1`` entries (none when ``length > n``).  Computed by
    Horner's rule from the oldest symbol, in place, one chunk of
    ``CODE_CHUNK`` entries at a time.
    """
    x = np.asarray(symbols, dtype=np.int64)
    count = max(x.shape[0] - length + 1, 0)
    if not length:
        return np.zeros(count, dtype=np.int64)
    codes = np.empty(count, dtype=np.int64)
    for start in range(0, count, CODE_CHUNK):
        chunk = codes[start : start + CODE_CHUNK]
        chunk[:] = x[start : start + chunk.shape[0]]
        for j in range(start + 1, start + length):
            chunk *= m
            chunk += x[j : j + chunk.shape[0]]
    return codes


def context_codes(symbols: np.ndarray, r: int, m: int) -> np.ndarray:
    """Codes of the r-symbol windows preceding positions r..n-1 (0-based).

    Entry ``t`` encodes ``symbols[t:t+r]`` and is the context of the next
    symbol ``symbols[t+r]``; the result has length ``n - r`` (length ``n``
    for r = 0, where every position has the empty context).
    """
    x = np.asarray(symbols, dtype=np.int64)
    if not x.shape[0]:
        return np.zeros(0, dtype=np.int64)
    return window_codes(x[:-1], r, m)


def block_digits(code, r: int, m: int) -> np.ndarray:
    """Symbols a_1..a_r of the block encoded by ``code`` (a_r least significant)."""
    c = np.asarray(code, dtype=np.int64)
    out = np.empty(c.shape + (r,), dtype=np.int64)
    for j in range(r):
        out[..., r - 1 - j] = (c // m**j) % m
    return out
