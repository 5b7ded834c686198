"""Context-window codes shared by the counting and likelihood machinery.

A length-r window is encoded as a base-m integer whose least significant
digit is the most recent symbol, so sliding one step is
``code -> (code % m**(r-1)) * m + next_symbol``.
"""

from __future__ import annotations

import numpy as np


def window_codes(symbols: np.ndarray, length: int, m: int) -> np.ndarray:
    """Codes of every length-``length`` window of ``symbols``.

    Entry ``t`` encodes ``symbols[t:t+length]``; the result has
    ``n - length + 1`` entries (none when ``length > n``).  Computed by
    Horner's rule from the oldest symbol, in place.
    """
    x = np.asarray(symbols, dtype=np.int64)
    count = max(x.shape[0] - length + 1, 0)
    codes = np.zeros(count, dtype=np.int64)
    for j in range(length):
        codes *= m
        codes += x[j : j + count]
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
