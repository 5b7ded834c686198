"""Symbol dtypes and the context-window codes shared by the counting and
likelihood machinery.

Symbols over {0, .., m-1} are carried in ``symbol_dtype(m)``, the narrowest
unsigned type that holds m - 1 (uint8 for m <= 256, uint16 up to 65536),
from the sampler and the path-file decoder through counting.

A length-r window is encoded as a base-m integer whose least significant
digit is the most recent symbol, so sliding one step is
``code -> (code % m**(r-1)) * m + next_symbol``.
"""

from __future__ import annotations

import numpy as np

# the window tally codes this many windows at a time, and a path in order
# reaches it in pieces this long, so that each Horner pass reads and writes
# a chunk still in cache, and counting needs no path-length code array
CODE_CHUNK = 1 << 15


def symbol_dtype(m: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the symbols 0..m-1."""
    return np.min_scalar_type(m - 1)


def _horner(symbols: np.ndarray, length: int, m: int) -> np.ndarray:
    """Codes of every length-``length`` window along the last axis of the
    symbol array (length >= 1), by Horner's rule from the oldest symbol, in
    place, in the narrowest unsigned dtype that holds m**length - 1.

    Each operand is an array or a scalar of that dtype, so numpy 1.x
    value-based casting and numpy 2 (NEP 50) keep the same dtype.  Symbols
    must lie below m.  The codes keep the symbols' memory order, so the
    transpose of a step-major array is coded a step at a time.
    """
    dt = np.min_scalar_type(m**length - 1)
    span = symbols.astype(dt, copy=False)
    width = max(span.shape[-1] - length + 1, 0)
    codes = span[..., :width].copy(order="K")
    if length > 1:  # m itself may not fit dt when nothing is multiplied
        base = dt.type(m)
    for j in range(1, length):
        codes *= base
        codes += span[..., j : j + width]
    return codes


def window_codes(symbols: np.ndarray, length: int, m: int) -> np.ndarray:
    """Codes of every length-``length`` window of ``symbols``, as int64.

    Entry ``t`` encodes ``symbols[t:t+length]``; the result has
    ``n - length + 1`` entries (none when ``length > n``).  Each row of a
    2-d array of symbols is coded on its own, along the last axis.
    """
    x = np.asarray(symbols)
    if not length:
        return np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=np.int64)
    return _horner(x, length, m).astype(np.int64)


def context_codes(symbols: np.ndarray, r: int, m: int) -> np.ndarray:
    """Codes of the r-symbol windows preceding positions r..n-1 (0-based).

    Entry ``t`` encodes ``symbols[t:t+r]`` and is the context of the next
    symbol ``symbols[t+r]``; the result has length ``n - r`` (length ``n``
    for r = 0, where every position has the empty context).  Like
    ``window_codes``, it codes each row of a 2-d array along the last axis.
    """
    x = np.asarray(symbols)
    if not x.shape[-1]:
        return np.zeros(x.shape, dtype=np.int64)
    return window_codes(x[..., :-1], r, m)


def block_digits(code, r: int, m: int) -> np.ndarray:
    """Symbols a_1..a_r of the block encoded by ``code`` (a_r least significant)."""
    c = np.asarray(code, dtype=np.int64)
    out = np.empty(c.shape + (r,), dtype=np.int64)
    for j in range(r):
        out[..., r - 1 - j] = (c // m**j) % m
    return out
