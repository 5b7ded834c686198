"""The vectorized counter generator against a plain-integer reference."""

import numpy as np
import pytest

from markovorder import rng

MASK = 0xFFFFFFFFFFFFFFFF


def reference_value(seed: int, position: int) -> int:
    """Scalar splitmix64 reference, all arithmetic on Python ints."""
    z = (seed + (position + 1) * rng.PHI64) & MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return (z ^ (z >> 31)) & MASK


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK])
def test_raw_matches_reference(seed):
    positions = [0, 1, 2, 17, 1000, 2**40]
    got = rng.raw_at(seed, positions)
    expected = [reference_value(seed, p) for p in positions]
    assert [int(v) for v in got] == expected


def test_seeds_wrap_mod_2_64():
    positions = [0, 5, 2**40]
    for seed in (-1, -(2**63), 2**64 + 5, 2**70 - 1):
        assert [int(v) for v in rng.raw_at(seed, positions)] == [
            reference_value(seed & MASK, p) for p in positions
        ]
        assert np.array_equal(rng.uniform_block(seed, 3, 4), rng.uniform_block(seed & MASK, 3, 4))


def test_uniform_block_values_and_range():
    us = rng.uniform_block(123, 0, 10_000)
    assert us.shape == (10_000,)
    assert np.all((0.0 <= us) & (us < 1.0))
    # positionally addressed: a shifted block is a slice of a longer one
    tail = rng.uniform_block(123, 100, 50)
    assert np.array_equal(tail, us[100:150])


def test_uniform_block_broadcasts_seeds_against_positions():
    seeds = [rng.derive_seed(7, i) for i in range(20)]
    starts = np.arange(20, dtype=np.uint64) * np.uint64(5)
    rows = rng.uniform_block(np.array(seeds, dtype=np.uint64), starts, 3)
    assert rows.shape == (20, 3)
    for pos in (0, 3, 99):
        lane = rng.uniform_block(seeds, pos, 1)[:, 0]
        for i, s in enumerate(seeds):
            assert lane[i] == rng.uniform_block(s, pos, 1)[0]
            assert np.array_equal(rows[i], rng.uniform_block(s, 5 * i, 3))


@pytest.mark.parametrize("count", [0, 1, 7])
def test_raw53_steps_are_the_block_step_major(count):
    # seeds on both sides of 2**63, each stream at its own start; drawn
    # into given arrays, the draws land in `out` and nothing else changes
    seeds = np.array([5, 2**63 + 11, MASK], dtype=np.uint64)
    starts = np.array([0, 2**40, MASK - 4], dtype=np.uint64)
    block = rng.raw53_block(seeds, starts, count)
    fresh = rng.raw53_steps(seeds, starts, count)
    assert fresh.shape == (count, 3) and fresh.flags.c_contiguous
    assert np.array_equal(fresh.T, block)
    out, scratch = np.full((2, count, 3), 7, dtype=np.uint64)
    assert rng.raw53_steps(seeds, starts, count, out, scratch) is out
    assert np.array_equal(out, fresh)


def test_derive_seed_is_scramble_xor():
    master = 0xDEADBEEF
    for i in range(5):
        expected = master ^ reference_value(0, i)  # scramble(i) = finalize((i+1)*PHI)
        assert rng.derive_seed(master, i) == expected


def test_derive_seed_index_array_matches_scalar_calls():
    master = 2**64 - 12345
    index = np.arange(3, 500)
    seeds = rng.derive_seed(master, index)
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == [rng.derive_seed(master, int(i)) for i in index]
    assert type(rng.derive_seed(master, 3)) is int


def test_derived_seeds_distinct():
    seeds = {rng.derive_seed(1234, i) for i in range(1000)}
    assert len(seeds) == 1000


BIG = 2**63 + 12345


@pytest.mark.parametrize(
    "seed, start",
    [
        (BIG, 0),
        (0, BIG),
        (MASK, MASK - 1),
        (np.array([1, BIG, MASK], dtype=np.uint64), BIG),
        ([BIG, 3], np.array([BIG, 7], dtype=np.uint64)),
        (np.array([[5], [BIG]], dtype=np.uint64), [0, BIG]),
    ],
)
def test_raw53_block_stays_uint64(seed, start):
    # numpy 1.x promotes uint64 mixed with int64 (or with a Python int
    # scalar) to float64, which would drop the low bits of the counter
    got = rng.raw53_block(seed, start, 3)
    assert got.dtype == np.uint64
    seeds, starts = np.broadcast_arrays(
        np.asarray(seed, dtype=np.uint64), np.asarray(start, dtype=np.uint64)
    )
    assert got.shape == seeds.shape + (3,)
    for idx in np.ndindex(seeds.shape):
        s, p = int(seeds[idx]), int(starts[idx])
        expected = [reference_value(s, (p + i) & MASK) >> 11 for i in range(3)]
        assert [int(v) for v in got[idx]] == expected
    assert np.array_equal(rng.uniform_block(seed, start, 3), got * 2.0**-53)
