"""Deterministic counter-based random numbers.

Everything random in this package flows through a single splitmix64-style
counter generator: the value at stream position ``k`` for a given 64-bit
seed is obtained by applying the splitmix64 finalizer to
``seed + (k + 1) * PHI64`` (all arithmetic mod 2**64).  Because positions
are addressed directly, any block of the stream can be generated in one
vectorized call, and ``raw_at``, ``raw53_steps``, ``raw53_block`` and
``uniform_block`` broadcast an array of seeds against an array of
positions, so batch simulation over many seeds produces bit-identical
values to one-at-a-time generation.

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


def _finalize(z: np.ndarray, scratch=None) -> np.ndarray:
    # splitmix64 output function, in place on the uint64 ndarray z.  Every
    # shift lands in the one array scratch, shaped like z, so no step
    # allocates
    scratch = np.empty_like(z) if scratch is None else scratch
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MUL1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MUL2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
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


def raw53_steps(seed, start, count: int, out=None, scratch=None) -> np.ndarray:
    """``count`` 53-bit integers ``raw_at(seed, pos) >> 11`` at stream
    positions start..start+count-1, as uint64, step-major: entry ``[i]``
    holds position ``start + i`` of every stream as one contiguous row.
    ``k * 2**-53`` is the uniform of ``uniform_block`` at the same position.

    ``seed`` and ``start`` may be arrays that broadcast together; the
    result then has a leading axis of length ``count`` and their shape.
    Each stream's counter is one base ``(start + 1) * PHI64 + seed`` plus
    ``i * PHI64``, which is exact mod 2**64.  Given ``out`` and ``scratch``,
    two uint64 arrays of the result's shape, the draws are computed into
    ``out`` by way of ``scratch``, and nothing of that size is allocated.
    """
    # a leading axis makes every operand an array, which wraps silently
    bases = (_as_u64(start)[None] + np.uint64(1)) * np.uint64(PHI64) + _as_u64(seed)[None]
    steps = np.arange(count, dtype=np.uint64).reshape((count,) + (1,) * (bases.ndim - 1))
    z = np.add(steps * np.uint64(PHI64), bases, out=out)
    _finalize(z, scratch)
    z >>= np.uint64(11)
    return z


def raw53_block(seed, start, count: int) -> np.ndarray:
    """``raw53_steps`` with the positions on a trailing axis: the result has
    the broadcast shape of ``seed`` and ``start`` plus an axis of length
    ``count`` (a view of the step-major draws)."""
    return np.moveaxis(raw53_steps(seed, start, count), 0, -1)


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
