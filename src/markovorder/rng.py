"""Deterministic counter-based random numbers.

Everything random in this package flows through a single splitmix64-style
counter generator: the value at stream position ``k`` for a given 64-bit
seed is obtained by applying the splitmix64 finalizer to
``seed + (k + 1) * PHI64`` (all arithmetic mod 2**64).  Because positions
are addressed directly, any block of the stream can be generated in one
vectorized call, and ``raw_at``, ``raw53_block`` and ``uniform_block``
broadcast an array of seeds against an array of positions, so batch
simulation over many seeds produces bit-identical values to one-at-a-time
generation.

Replication seeds are derived as ``master XOR scramble(i)`` where
``scramble`` is the same finalizer applied to ``(i + 1) * PHI64``, so
parallel replications never share a stream.

References: Steele, Lea & Flood, "Fast splittable pseudorandom number
generators" (OOPSLA 2013); Vigna's public-domain splitmix64.c.
"""

from __future__ import annotations

import numpy as np

PHI64 = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF

# 53-bit mantissa: (z >> 11) * 2**-53 is uniform on [0, 1).
_TO_UNIT = 2.0 ** -53


def _finalize(z: np.ndarray) -> np.ndarray:
    # splitmix64 output function, in place; z must be a fresh uint64 ndarray
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _as_u64(values) -> np.ndarray:
    if isinstance(values, int):
        values &= _MASK  # a Python int wraps mod 2**64
    # the dtype is given up front, so Python ints in [2**63, 2**64) convert
    # exactly even when mixed with smaller ones (np.asarray alone: float64)
    return np.asarray(values, dtype=np.uint64)


def raw_at(seed, positions) -> np.ndarray:
    """64-bit outputs of the stream ``seed`` at the given positions.

    An array of seeds broadcasts against the positions, so row ``g`` of
    ``raw_at(seeds[:, None], positions)`` reads stream ``seeds[g]``.
    """
    pos = np.atleast_1d(_as_u64(positions))
    counter = (pos + np.uint64(1)) * np.uint64(PHI64)
    return _finalize(counter + _as_u64(seed))


def raw53_block(seed, start, count: int) -> np.ndarray:
    """``count`` 53-bit integers ``raw_at(seed, pos) >> 11`` at stream
    positions start..start+count-1, as uint64; ``k * 2**-53`` is the
    uniform of ``uniform_block`` at the same position.

    ``seed`` and ``start`` may be arrays that broadcast together; the
    result then has their shape plus a trailing axis of length ``count``.
    Each row's counter is one base ``(start + 1) * PHI64 + seed`` plus
    ``i * PHI64``, which is exact mod 2**64.
    """
    base = (_as_u64(start)[..., None] + np.uint64(1)) * np.uint64(PHI64)
    base = base + _as_u64(seed)[..., None]
    z = _finalize(base + np.arange(count, dtype=np.uint64) * np.uint64(PHI64))
    z >>= np.uint64(11)
    return z


def uniform_block(seed, start, count: int) -> np.ndarray:
    """``count`` uniforms on [0, 1) at stream positions start..start+count-1,
    broadcast like ``raw53_block``."""
    return raw53_block(seed, start, count).astype(np.float64) * _TO_UNIT


def derive_seed(master, index):
    """Seed for replication ``index``: ``master XOR scramble(index)``, where
    ``scramble(i)``, the finalizer of ``(i + 1) * PHI64``, is ``raw_at(0, i)``.

    An index array, or a uint64 array of masters with one index, gives a
    uint64 array of seeds, equal element by element to the scalar calls,
    which return Python ints.
    """
    z = raw_at(0, index) ^ _as_u64(master)
    return int(z[0]) if np.ndim(index) == 0 and np.ndim(master) == 0 else z
