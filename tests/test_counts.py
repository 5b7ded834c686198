"""Count tables against a brute-force window scanner."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovorder import MarkovModel, build_counts, extend_counts, random_model, sample_paths
from markovorder import model as model_mod
from markovorder import counts as counts_mod
from markovorder._contexts import CODE_CHUNK, context_codes, symbol_dtype, window_codes
from markovorder.counts import TALLY_CELLS, TALLY_RATIO, _merge, prefix_counts
from markovorder.estimator import evaluate_replication, required_depth_cap
from markovorder.penalty import parse_cutoff, parse_penalty
from markovorder.tally import sampled_counts


def scan_windows(symbols, r, m):
    """Brute-force oracle: walk every window end position and tally."""
    n = len(symbols)
    trans = np.zeros((m**r, m), dtype=np.int64)
    for i in range(r + 1, n + 1):  # 1-based end positions
        window = symbols[i - 1 - r : i - 1]
        code = 0
        for s in window:  # oldest first; newest ends least significant
            code = code * m + int(s)
        trans[code, int(symbols[i - 1])] += 1
    return trans


class TestBuild:
    def test_spec_path_depth_one(self):
        c = build_counts(np.array([0, 0, 1, 0]), 1, m=2)
        ctx = c.context_counts(1)
        assert ctx.tolist() == [2, 1]
        trans = c.transition_counts(1)
        assert trans[0, 0] == 1 and trans[0, 1] == 1 and trans[1, 0] == 1

    def test_spec_path_depth_zero(self):
        c = build_counts(np.array([0, 0, 1, 0]), 0, m=2)
        assert c.context_counts(0).tolist() == [4]
        assert c.transition_counts(0).tolist() == [[3, 1]]

    def test_constant_path_single_context(self):
        n = 37
        c = build_counts(np.zeros(n, dtype=int), 3, m=2)
        for r in range(4):
            ctx = c.context_counts(r)
            assert ctx[0] == n - r
            assert ctx[1:].sum() == 0

    def test_matches_scanner_on_random_paths(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(6, 40))
            d = int(rng.integers(0, min(4, n - 1)))
            symbols = rng.integers(0, m, n)
            c = build_counts(symbols, d, m=m)
            for r in range(d + 1):
                assert np.array_equal(c.transition_counts(r), scan_windows(symbols, r, m))

    def test_depth_cap_must_be_below_length(self):
        with pytest.raises(ValueError):
            build_counts(np.array([0, 1, 0]), 3, m=2)

    def test_out_of_alphabet_symbol_rejected(self):
        with pytest.raises(ValueError):
            build_counts(np.array([0, 2, 0, 1]), 1, m=2)

    def test_window_codes_must_fit_int64(self):
        symbols = np.arange(80) % 3
        with pytest.raises(ValueError, match="overflow int64"):
            build_counts(symbols % 2, 62, m=2)  # 2**63 window codes
        with pytest.raises(ValueError, match="overflow int64"):
            build_counts(symbols, 39, m=3)
        deepest = build_counts(symbols, 38, m=3)  # 3**39 < 2**63
        assert deepest.window_counts(38)[1].sum() == 80 - 38
        for r in range(4):
            assert np.array_equal(deepest.transition_counts(r), scan_windows(symbols, r, 3))


class TestExtend:
    def test_empty_extension_is_identity(self):
        c = build_counts(np.array([0, 1, 1, 0, 1]), 2, m=2)
        e = extend_counts(c, np.array([], dtype=int))
        assert e.n == c.n
        for r in range(3):
            assert np.array_equal(e.transition_counts(r), c.transition_counts(r))

    def test_input_not_mutated(self):
        c = build_counts(np.array([0, 1, 1, 0, 1]), 2, m=2)
        before = c.transition_counts(1).copy()
        extend_counts(c, np.array([1, 0, 1]))
        assert np.array_equal(c.transition_counts(1), before)
        assert c.n == 5

    def test_split_equals_rebuild_on_random_splits(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(5, 30))
            d = int(rng.integers(0, 4))
            if d >= n:
                d = n - 1
            symbols = rng.integers(0, m, n)
            cut = int(rng.integers(d + 1, n + 1))
            built = extend_counts(build_counts(symbols[:cut], d, m=m), symbols[cut:])
            full = build_counts(symbols, d, m=m)
            assert built.n == full.n
            for r in range(d + 1):
                assert np.array_equal(built.transition_counts(r), full.transition_counts(r))

    def test_one_symbol_increments_one_count_per_depth(self):
        symbols = np.array([0, 1, 0, 0, 1, 1])
        c = build_counts(symbols[:-1], 2, m=2)
        e = extend_counts(c, symbols[-1:])
        for r in range(3):
            diff = e.transition_counts(r) - c.transition_counts(r)
            assert diff.sum() == 1 and diff.max() == 1

    def test_bad_symbol_rejected(self):
        c = build_counts(np.array([0, 1, 0]), 1, m=2)
        with pytest.raises(ValueError):
            extend_counts(c, np.array([2]))


@given(
    data=st.data(),
    m=st.integers(2, 3),
    n=st.integers(5, 28),
)
@settings(max_examples=120, deadline=None)
def test_invariants_and_incremental_equivalence(data, m, n):
    symbols = np.array(
        data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    )
    d = data.draw(st.integers(0, min(3, n - 1)))
    cut = data.draw(st.integers(d + 1, n))
    built = extend_counts(build_counts(symbols[:cut], d, m=m), symbols[cut:])
    for r in range(d + 1):
        trans = built.transition_counts(r)
        ctx = built.context_counts(r)
        assert np.array_equal(trans.sum(axis=1), ctx)          # row sums
        assert ctx.sum() == max(n - r, 0)                      # total mass
        assert np.array_equal(trans, scan_windows(symbols, r, m))


class TestSparseFallback:
    """Code spaces larger than TALLY_RATIO times the window count and than
    TALLY_CELLS take the sort branch."""

    def test_sparse_depth_matches_scanner(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 3, 60)
        extra = rng.integers(0, 3, 20)
        assert 3**11 > max(TALLY_RATIO * (len(symbols) + len(extra)), TALLY_CELLS)
        sparse = extend_counts(build_counts(symbols, 10, m=3), extra)
        concat = np.concatenate([symbols, extra])
        for r in range(11):
            assert np.array_equal(sparse.transition_counts(r), scan_windows(concat, r, 3))
        assert sparse.context_counts(2).sum() == len(concat) - 2

    @pytest.mark.parametrize(
        "codes, size",
        [
            (1000, TALLY_CELLS),  # tallies: within TALLY_CELLS
            (1000, TALLY_CELLS + 1),  # sorts
            (10_000, TALLY_RATIO * 10_000),  # tallies: within TALLY_RATIO per code
            (10_000, TALLY_RATIO * 10_000 + 1),  # sorts
        ],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_tally_and_sort_agree_across_the_threshold(self, codes, size, weighted):
        rng = np.random.default_rng(size)
        keys = rng.integers(0, size, codes)
        keys[0] = size - 1  # the top cell is in use
        counts = rng.integers(1, 2**40, codes) if weighted else None
        got_keys, got_counts = _merge(keys, counts, size)
        want_keys, inverse = np.unique(keys, return_inverse=True)
        assert got_keys.dtype == got_counts.dtype == np.int64
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_counts, np.bincount(inverse, counts).astype(np.int64))


@given(
    data=st.data(),
    m=st.integers(2, 4),
    n=st.integers(2, 60),
)
@settings(max_examples=120, deadline=None)
def test_window_pair_invariants(data, m, n):
    symbols = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    d = data.draw(st.integers(0, min(6, n - 1)))
    cut = data.draw(st.integers(d + 1, n))
    built = extend_counts(build_counts(symbols[:cut], d, m=m), symbols[cut:])
    for r in range(d + 1):
        codes, counts = built.window_counts(r)
        assert np.all(np.diff(codes) > 0)
        assert np.all(counts > 0)
        assert counts.sum() == n - r


@given(
    symbols=st.lists(st.integers(0, 3), max_size=30),
    m=st.integers(2, 4),
    r=st.integers(0, 12),
)
@example(symbols=[], m=2, r=0)
@example(symbols=[], m=3, r=2)
@example(symbols=[1, 0, 1], m=2, r=3)
@example(symbols=[1, 0, 1], m=2, r=4)
@settings(max_examples=200, deadline=None)
def test_window_and_context_codes_match_slicing(symbols, m, r):
    symbols = np.array(symbols, dtype=np.int64) % m
    n = len(symbols)

    def code(window):  # oldest symbol first; newest ends least significant
        value = 0
        for s in window:
            value = value * m + int(s)
        return value

    windows = [code(symbols[t : t + r]) for t in range(n - r + 1)]
    assert window_codes(symbols, r, m).tolist() == windows
    contexts = [code(symbols[t : t + r]) for t in range(n - r)]
    assert context_codes(symbols, r, m).tolist() == contexts


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("extra", [-1, 0, "L", CODE_CHUNK + 3])
def test_window_codes_across_chunk_edges(m, extra):
    # paths ending just before, at and just past a chunk edge, and past two
    rng = np.random.default_rng(m)
    for length in range(13):
        n = CODE_CHUNK + (length if extra == "L" else extra)
        x = rng.integers(0, m, n)
        weights = m ** np.arange(length - 1, -1, -1, dtype=np.int64)
        expected = np.zeros(n - length + 1, dtype=np.int64)
        for i in range(length):  # sum of x[t + i] * m**(length - 1 - i)
            expected += x[i : i + n - length + 1] * weights[i]
        assert np.array_equal(window_codes(x, length, m), expected)


def test_extend_split_mid_chunk_equals_build():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 3, 2 * CODE_CHUNK + 3)
    whole = build_counts(x, 5, m=3)
    for cut in (CODE_CHUNK // 2, CODE_CHUNK + 1000):
        split = extend_counts(build_counts(x[:cut], 5, m=3), x[cut:])
        assert split.n == whole.n
        assert np.array_equal(split.codes, whole.codes)
        assert np.array_equal(split.counts, whole.counts)
        assert np.array_equal(split.tail, whole.tail)


def int64_window_codes(symbols, length, m):
    """Horner's rule in int64 over the whole path: the reference for the
    narrow-type chunks."""
    x = np.asarray(symbols, dtype=np.int64)
    count = max(x.shape[0] - length + 1, 0)
    codes = np.zeros(count, dtype=np.int64)
    for i in range(length):
        codes = codes * m + x[i : i + count]
    return codes


def same_counts(a, b):
    return (
        (a.m, a.depth_cap, a.n) == (b.m, b.depth_cap, b.n)
        and a.codes.dtype == b.codes.dtype == np.int64
        and all(
            np.array_equal(getattr(a, f), getattr(b, f)) for f in ("codes", "counts", "head", "tail")
        )
    )


@given(
    data=st.data(),
    m=st.sampled_from([2, 3, 255, 256, 257, 1000]),
    n=st.one_of(
        st.integers(1, 40),
        st.sampled_from([CODE_CHUNK - 1, CODE_CHUNK, CODE_CHUNK + 1, 2 * CODE_CHUNK + 5]),
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_narrow_symbols_match_int64(data, m, n, seed):
    # the deepest cap whose m**(cap+1) codes fit int64, at most 8
    deepest = max(c for c in range(9) if m ** (c + 1) < 2**63)
    cap = data.draw(st.integers(0, min(deepest, n - 1)))
    rng = np.random.default_rng(seed)
    wide = rng.integers(0, m, n)
    # a run of the largest symbol gives the largest code, m**(cap+1) - 1
    at = data.draw(st.integers(0, n - 1))
    wide[at : at + cap + 1] = m - 1
    narrow = wide.astype(symbol_dtype(m))
    assert narrow.dtype == (np.uint8 if m <= 256 else np.uint16)
    assert np.array_equal(narrow, wide)

    for length in range(cap + 2):
        assert np.array_equal(window_codes(narrow, length, m), int64_window_codes(wide, length, m))
    keys, tally = np.unique(int64_window_codes(wide, cap + 1, m), return_counts=True)
    built = build_counts(narrow, cap, m)
    assert np.array_equal(built.codes, keys) and np.array_equal(built.counts, tally)
    assert built.head.dtype == built.tail.dtype == narrow.dtype
    assert same_counts(built, build_counts(wide, cap, m))

    cut = data.draw(st.integers(cap + 1, n))
    split = [extend_counts(build_counts(x[:cut], cap, m), x[cut:]) for x in (narrow, wide)]
    assert same_counts(split[0], built) and same_counts(split[1], built)

    lengths = sorted({cap + 1, cut, n})
    for a, b in zip(prefix_counts((narrow,), lengths, cap, m), prefix_counts((wide,), lengths, cap, m)):
        assert same_counts(a, b)


@given(
    data=st.data(),
    m=st.integers(2, 4),
    top=st.integers(1, 80),
)
@settings(max_examples=150, deadline=None)
def test_prefix_counts_over_any_chunking(data, m, top):
    # a path cut anywhere into chunks, among them an empty one, a first one
    # of at most depth_cap symbols (too short for a window), one that
    # straddles the last length and is longer than CODE_CHUNK, and one
    # wholly past that length, counts at each length what a scan of its
    # windows counts, and what build_counts and extend_counts count
    cap = data.draw(st.integers(0, min(4, top - 1)))
    lengths = sorted({top, *data.draw(st.lists(st.integers(cap + 1, top), max_size=3))})
    n = top + data.draw(st.integers(2, 6))
    symbols = np.array(
        data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)), dtype=symbol_dtype(m)
    )
    first = data.draw(st.integers(0, cap))
    lo, hi = data.draw(st.integers(first, top - 1)), data.draw(st.integers(top + 1, n - 1))
    cuts = data.draw(st.lists(st.integers(first, n), max_size=6))
    edges = sorted({0, first, lo, hi, n, *(c for c in cuts if not lo < c < hi)})
    chunks = [symbols[a:b] for a, b in zip(edges, edges[1:])]
    chunks.insert(data.draw(st.integers(0, len(chunks))), symbols[:0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counts_mod, "CODE_CHUNK", data.draw(st.integers(1, hi - lo - 1)))
        tables = list(prefix_counts((chunk for chunk in chunks), lengths, cap, m))
    assert [c.n for c in tables] == lengths
    start = build_counts(symbols[: lengths[0]], cap, m)
    for length, counts in zip(lengths, tables):
        windows = int64_window_codes(symbols[:length], cap + 1, m)
        keys, tally = np.unique(windows, return_counts=True)
        assert np.array_equal(counts.codes, keys) and np.array_equal(counts.counts, tally)
        assert np.array_equal(counts.head, symbols[:cap])
        assert np.array_equal(counts.tail, symbols[length - cap : length])
        assert same_counts(counts, build_counts(symbols[:length], cap, m))
        assert same_counts(counts, extend_counts(start, symbols[lengths[0] : length]))


def test_prefix_counts_check_every_chunk():
    # a chunk past the last length is checked too, before any counts
    good, bad = np.array([0, 1, 1, 0], dtype=np.uint8), np.array([0, 2])
    with pytest.raises(ValueError, match="outside the alphabet"):
        list(prefix_counts((good, bad), [3, 4], 1, 2))


def test_prefix_counts_reject_a_path_short_of_the_lengths():
    symbols = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    with pytest.raises(ValueError, match="ends after 5 symbols, short of length 6"):
        list(prefix_counts((symbols[:2], symbols[2:]), [3, 6], 1, 2))
    with pytest.raises(ValueError, match="must be < path length 2"):
        list(prefix_counts((symbols,), [2, 4], 2, 2))


@pytest.mark.parametrize("m", [256, 257])
def test_out_of_range_symbol_rejected_before_narrowing(m):
    # m and 300 would wrap to 0 and 44 in uint8
    for bad in (m, 300, -1):
        with pytest.raises(ValueError, match="outside the alphabet"):
            build_counts(np.array([0, 1, bad, 2]), 1, m)
        with pytest.raises(ValueError, match="outside the alphabet"):
            extend_counts(build_counts(np.array([0, 1, 2]), 1, m), np.array([bad]))


def test_prefix_counts_hold_no_path_length_array():
    # the path reaches the window tally CODE_CHUNK symbols at a time and the
    # symbols are bytes, so nothing as long as the path is held (0.37 MB
    # traced; handing the tally the 2**20 symbols as one run peaked at 6.3 MB)
    path = sample_paths(MarkovModel([[0.7, 0.3], [0.2, 0.8]]), 2**20, 7)[0]
    lengths = [2**k for k in range(14, 21)]
    list(prefix_counts((path,), lengths[:2], 7, 2))
    tracemalloc.start()
    try:
        tables = list(prefix_counts((path,), lengths, 7, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables[-1].n == 2**20
    assert peak < 600_000


@given(
    data=st.data(),
    m=st.integers(2, 4),
    order=st.integers(0, 3),
    cap=st.integers(0, 6),
    kind=st.sampled_from(["full", "zeros", "never-coalesces"]),
    model_seed=st.integers(0, 2**32),
    seed=st.integers(0, 2**64 - 1),
    block_cells=st.sampled_from([1, 5, 65, 1 << 14]),
    flush_cells=st.sampled_from([1, 7, 65, 1 << 18]),
)
@settings(max_examples=200, deadline=None)
def test_sampled_counts_equal_prefix_counts(
    data, m, order, cap, kind, model_seed, seed, block_cells, flush_cells
):
    # the tally of the sampler's runs counts what prefix_counts counts on
    # the sampled path, at every length: lengths anywhere in a block, just
    # above the depth cap, runs short enough for one block, blocks and
    # runs of steps of small odd sizes, and a chain whose start columns
    # never coalesce, so the second pass replays every step
    if kind == "never-coalesces":  # the symbols cycle 0, 1, .., m - 1
        order = 1
        kernel = np.roll(np.eye(m), 1, axis=1)
    else:
        kernel = random_model(m, order, model_seed).kernel.copy()
        if kind == "zeros":  # zero entries, never a whole row
            mask = np.arange(kernel.size).reshape(kernel.shape) % 3 == model_seed % 3
            mask[:, 0] = False
            kernel[mask] = 0.0
            kernel /= kernel.sum(axis=1, keepdims=True)
    model = MarkovModel(kernel, initial=np.full(m**order, m**-order))
    top = data.draw(st.one_of(st.integers(cap + 1, cap + 4), st.integers(cap + 1, 3000)))
    lengths = sorted({top, *data.draw(st.lists(st.integers(cap + 1, top), max_size=4))})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_mod, "BLOCK_CELLS", block_cells)
        patch.setattr(model_mod, "FLUSH_CELLS", flush_cells)
        tallied = list(sampled_counts(model, seed, lengths, cap))
    path = sample_paths(model, top, seed)[0]
    counted = list(prefix_counts((path,), lengths, cap, m))
    assert len(tallied) == len(counted) == len(lengths)
    for a, b in zip(tallied, counted):
        assert same_counts(a, b) and a.head.dtype == b.head.dtype and a.tail.dtype == b.tail.dtype


def sampler_runs(model, seed, n, overlap):
    """The block count and length of one lane of n symbols, and the (first
    step, steps) of each run of steps the sampler hands on for it."""
    tables, init = model_mod._lane_tables(model, seed)
    blocks, length = model_mod._blocking(model, 1, n - model.order)
    runs = []
    model_mod._sample_run(
        model, tables, init, blocks, length, lambda run, a: runs.append((a, run.shape[0])), overlap
    )
    return blocks, length, runs


@pytest.mark.parametrize(
    "kernel, passes",
    [
        # its start columns meet anywhere in a block, or never
        ([[0.9, 0.1], [0.1, 0.9]], {"one", "clamped", "within"}),
        ([[0.3, 0.7]], {"one"}),  # order 0: one start column, so no replay
        (np.roll(np.eye(3), 1, axis=1), {"one"}),  # a cycle: they never meet
    ],
    ids=["sticky", "order-0", "never-coalesces"],
)
def test_sampled_counts_across_the_replay_seams(monkeypatch, kernel, passes):
    # blocks of 7 or 11 steps: the replay runs cap = 4 steps past the first
    # pass's coalescence step, clamped to the block when that step is less
    # than cap steps before the block's end
    monkeypatch.setattr(model_mod, "BLOCK_CELLS", 16)
    monkeypatch.setattr(model_mod, "MIN_BLOCK", 4)
    model = MarkovModel(kernel, initial=np.full(len(kernel), 1 / len(kernel)))
    n, cap, lengths = 81, 4, (5, 40, 81)
    seen = set()
    for seed in range(40):
        blocks, length, runs = sampler_runs(model, seed, n, cap)
        assert blocks > 1
        if len(runs) == 1:  # coalesced at step 0, or never: the whole block at once
            assert runs == [(0, length)]
            seen.add("one")
        else:  # a first pass from step a, then a replay up to cap steps past it
            (a, _), replay = runs
            assert 0 < a < length and replay == (0, min(a + cap, length))
            seen.add("clamped" if a + cap > length else "within")
        tallied = list(sampled_counts(model, seed, lengths, cap))
        counted = list(prefix_counts((sample_paths(model, n, seed)[0],), lengths, cap, model.m))
        assert len(tallied) == 3 and all(same_counts(x, y) for x, y in zip(tallied, counted))
    assert seen == passes


def test_inline_replication_holds_no_path():
    # one replication of the two-state chain sampled inline hands the
    # sampler's runs of steps straight to the counts: 2.2 MB traced at
    # n = 2**23 and as much at 2**20, against 3.8 MB at 2**23 when it held
    # a 2 MB path segment and 10.0 MB when the 8 MB path was sampled whole
    model = MarkovModel([[0.7, 0.3], [0.2, 0.8]])
    pen, cut = parse_penalty("loglog C=5"), parse_cutoff("sublog")
    peaks = []
    for top in (20, 23):
        grid = [2**k for k in range(16, top + 1)]
        cap = required_depth_cap(cut, grid, 2)
        evaluate_replication(model, (pen,), cut, grid[:2], cap, None, (0, 5, None))
        tracemalloc.start()
        try:
            (rows,) = evaluate_replication(model, (pen,), cut, grid, cap, None, (0, 5, None))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [row.n for row in rows] == grid
    assert peaks[1] < 2_500_000
    assert abs(peaks[1] - peaks[0]) < 250_000, peaks
