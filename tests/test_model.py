"""Chain construction, stationary laws, sampling, and true-law likelihoods."""

import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovorder import (
    MarkovModel,
    ReducibleChainError,
    log_true_conditional_likelihood,
    random_model,
    read_model_file,
    sample_paths,
    stationary_block_law,
    stationary_distribution,
    true_order,
    write_model_file,
)
from markovorder import model as model_mod
from markovorder._contexts import block_digits
from markovorder.model import ModelStack, lift_kernel, random_kernels, step_lanes
from markovorder.rng import derive_seed, uniform_block

TWO_STATE = MarkovModel([[0.7, 0.3], [0.2, 0.8]])  # P(1|0)=0.3, P(1|1)=0.8


def reference_path(model, n, seed):
    """Scalar reference sampler: one ``bisect`` per symbol on Python floats,
    reading the documented stream layout (uniform 0 picks the initial
    context, uniform k >= 1 the symbol at position r + k)."""
    m, r = model.m, model.order
    init_cum = np.cumsum(model.initial)
    out = np.empty(n, dtype=np.int64)
    u0 = uniform_block(seed, 0, 1)[0]
    init_code = bisect_right(init_cum.tolist(), u0)
    if init_code >= m**r:
        init_code = m**r - 1
    head = block_digits(init_code, r, m)
    take = min(r, n)
    out[:take] = head[:take]
    if n > r:
        cum_rows = np.cumsum(model.kernel, axis=1).tolist()
        us = uniform_block(seed, 1, n - r).tolist()
        ctx = init_code
        mod = m ** (r - 1) if r >= 1 else 1
        last = m - 1
        if r == 0:
            row = cum_rows[0]
            for k in range(n):
                b = bisect_right(row, us[k])
                out[k] = b if b <= last else last
        else:
            for k in range(n - r):
                b = bisect_right(cum_rows[ctx], us[k])
                if b > last:
                    b = last
                out[r + k] = b
                ctx = (ctx % mod) * m + b
    return out


def power_iteration_oracle(kernel, m, order, iters=200_000, tol=1e-13):
    """Independent stationary-law oracle: brute-force iteration of the
    context-chain map, no linear solve involved."""
    size = m**order
    pi = np.full(size, 1.0 / size)
    mod = m ** (order - 1) if order >= 1 else 1
    targets = (np.arange(size)[:, None] % mod) * m + np.arange(m)[None, :]
    for _ in range(iters):
        nxt = np.zeros(size)
        np.add.at(nxt, targets.ravel(), (pi[:, None] * kernel).ravel())
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    return pi


class TestStationary:
    def test_chain_with_a_zero_entry_leaves_numpy_ma_unloaded(self):
        # the closed-class search of such a chain once called np.unique,
        # which imports numpy.ma (a megabyte); numpy 1.x loads it with numpy
        script = (
            "import sys\n"
            "import numpy\n"
            "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
            "from markovorder import MarkovModel, stationary_distribution\n"
            "assert list(stationary_distribution(MarkovModel([[1, 0], [0.5, 0.5]]))) == [1, 0]\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode == 3:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert done.returncode == 0, done.stderr

    def test_iid_uniform_two_symbols(self):
        model = MarkovModel([[0.5, 0.5], [0.5, 0.5]])
        assert stationary_distribution(model) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_two_state_balance_equation(self):
        p, q = 0.3, 0.2  # P(1|0), P(0|1)
        pi = stationary_distribution(TWO_STATE)
        assert pi == pytest.approx([q / (p + q), p / (p + q)], abs=1e-12)

    def test_random_order2_matches_power_iteration(self):
        model = random_model(2, 2, seed=314)
        pi = stationary_distribution(model)
        oracle = power_iteration_oracle(model.kernel, 2, 2)
        assert np.abs(pi - oracle).max() < 1e-10

    def test_fixed_point_property(self):
        for seed in range(5):
            model = random_model(3, 1, seed=seed)
            pi = stationary_distribution(model)
            nxt = np.zeros_like(pi)
            targets = (np.arange(3)[:, None] % 1) * 0  # order 1, m=3: target = symbol
            for c in range(3):
                for b in range(3):
                    nxt[b] += pi[c] * model.kernel[c, b]
            assert np.abs(nxt - pi).max() < 1e-10
            assert pi.min() >= 0 and abs(pi.sum() - 1.0) < 1e-12

    def test_reducible_chain_raises(self):
        # two absorbing states: two closed classes
        model = MarkovModel([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReducibleChainError):
            stationary_distribution(model)

    def test_transient_context_gets_zero_mass(self):
        # state 1 always moves to 0, 0 stays: unique closed class {0}
        model = MarkovModel([[1.0, 0.0], [1.0, 0.0]], initial=[0.5, 0.5])
        assert stationary_distribution(model) == pytest.approx([1.0, 0.0])

    def test_power_iteration_branch_matches_product_law(self):
        # 2^13 contexts exceeds the dense-solve limit; the stationary law of a
        # lifted order-1 chain factorizes, giving an independent oracle
        base = TWO_STATE
        lifted = MarkovModel(lift_kernel(base.kernel, 2, 13))
        pi = stationary_distribution(lifted)
        pi_base = stationary_distribution(base)
        digits = (np.arange(2**13)[:, None] >> np.arange(12, -1, -1)[None, :]) & 1
        oracle = pi_base[digits[:, 0]]
        for j in range(1, 13):
            oracle = oracle * base.kernel[digits[:, j - 1], digits[:, j]]
        assert np.abs(pi - oracle).max() < 1e-10

    def test_periodic_class_in_a_wide_chain(self):
        # 2**13 contexts, past the dense solve, but a closed class of 29:
        # the law is solved densely on the class, where a power iteration
        # over it never converges (its period is 2)
        model, members = periodic_chain()
        assert model_mod._closed_class(model).tolist() == members
        size = 2**13
        # the contexts entered at even and at odd steps from one in the class
        seen = [set(), set()]
        frontier = {members[0]}
        for t in range(64):
            seen[t % 2] |= frontier
            frontier = {(c * 2 + b) % size for c in frontier for b in (0, 1) if model.kernel[c, b]}
        assert not seen[0] & seen[1] and sorted(map(len, seen)) == [14, 15]
        pi = stationary_distribution(model)
        nxt = np.zeros(size)
        for b in (0, 1):
            np.add.at(nxt, (np.arange(size) * 2 + b) % size, pi * model.kernel[:, b])
        assert np.abs(nxt - pi).sum() < 1e-12
        off = np.ones(size, dtype=bool)
        off[members] = False
        assert (pi[off] == 0.0).all() and abs(pi.sum() - 1.0) < 1e-12

    def test_periodic_class_past_the_dense_solve_converges(self, monkeypatch):
        # 0 -> 1 -> 0 or 2 -> 1: period 2, the parity classes {1} and {0, 2}
        # hold (1/2, 1/2).  Every class now passes the dense-solve limit, so
        # the law comes from the power iteration, whose iterates from the
        # uniform law would swing between the classes for ever on the chain
        # itself; on the lazy chain they converge in a few dozen steps
        monkeypatch.setattr(model_mod, "DENSE_SOLVE_LIMIT", 1)
        monkeypatch.setattr(model_mod, "POWER_ITER_MAX", 1000)
        model = MarkovModel([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        pi = stationary_distribution(model)
        assert pi == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert [pi[1], pi[0] + pi[2]] == pytest.approx([0.5, 0.5], abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(2, 4),
        order=st.integers(1, 3),
        kernel_seed=st.integers(0, 2**32),
        zero_share=st.sampled_from([0.2, 0.5, 0.7, 0.9]),
    )
    def test_closed_class_matches_reachability_closure(
        self, m, order, kernel_seed, zero_share
    ):
        # kernels with zeroed entries (never a whole row); the oracle takes the
        # transitive closure of the positive-transition digraph by squaring
        rng = np.random.default_rng(kernel_seed)
        size = m**order
        kernel = rng.random((size, m))
        kernel[rng.random((size, m)) < zero_share] = 0.0
        empty = kernel.sum(axis=1) == 0.0
        kernel[empty, rng.integers(0, m, int(empty.sum()))] = 1.0
        model = MarkovModel(kernel / kernel.sum(axis=1, keepdims=True))

        step = np.zeros((size, size), dtype=bool)
        for c in range(size):
            for b in range(m):
                if model.kernel[c, b] > 0.0:
                    step[c, (c * m + b) % size] = True
        reach = step | np.eye(size, dtype=bool)
        for _ in range(size.bit_length()):
            reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        mutual = reach & reach.T
        # a class is closed when everything it reaches reaches back into it
        closed = {
            tuple(np.flatnonzero(mutual[c]))
            for c in range(size)
            if not (reach[c] & ~mutual[c]).any()
        }
        if len(closed) == 1:
            assert model_mod._closed_class(model).tolist() == list(closed.pop())
        else:
            with pytest.raises(ReducibleChainError):
                model_mod._closed_class(model)


def periodic_chain():
    """An order-13 chain on two symbols, and the codes of its one closed
    class: the 13-symbol windows of endless runs of the blocks below, 14 and
    16 symbols long (so of period 2).  In the class each next symbol is
    forced, except after the block-end context, which both blocks share;
    that row and every row outside the class are 0.5/0.5."""
    blocks = ("01111000001100", "1011111000001100")
    after = {}
    for first in blocks:
        for second in blocks:
            run = first + second
            for i in range(len(run) - 13):
                after.setdefault(int(run[i : i + 13], 2), set()).add(int(run[i + 13]))
    # the block end is the one context of the class with two next symbols
    end = int(blocks[0][-13:], 2)
    assert [code for code, nexts in after.items() if len(nexts) > 1] == [end]
    kernel = np.full((2**13, 2), 0.5)
    for code, nexts in after.items():
        if code != end:
            kernel[code] = np.eye(2)[min(nexts)]
    return MarkovModel(kernel), sorted(after)


def dense_law_reference(kernel, m, order):
    """The stationary law of one fully supported kernel by one dense solve
    with a 1-d right-hand side, as the one-model solver computes it."""
    size = m**order
    targets = (np.arange(size)[:, None] * m + np.arange(m)) % size
    q = np.zeros((size, size))
    np.add.at(q, (np.repeat(np.arange(size), m), targets.ravel()), kernel.ravel())
    a = q.T - np.eye(size)
    a[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, rhs), 0.0, None)
    return pi / pi.sum()


class TestStacks:
    """Kernel stacks give each kernel the tables it has alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 3),
        order=st.integers(0, 2),
        seeds=st.lists(
            st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1)),
            min_size=1,
            max_size=7,
        ),
        floor=st.sampled_from([0.0, 0.05, 0.15]),
        zero=st.none() | st.tuples(st.integers(0, 6), st.integers(0, 8), st.integers(0, 2)),
    )
    # a kernel with a zero entry sends the stack's laws down the
    # closed-class path, one kernel at a time
    @example(m=2, order=1, seeds=[5, 6, 7], floor=0.05, zero=(1, 0, 1))
    @example(m=3, order=2, seeds=[1, 2**63 + 9], floor=0.0, zero=(0, 4, 2))
    def test_random_kernels_and_stationary_laws(self, m, order, seeds, floor, zero):
        kernels = random_kernels(m, order, np.array(seeds, dtype=np.uint64), floor)
        assert kernels.shape == (len(seeds), m**order, m)
        for kernel, seed in zip(kernels, seeds):
            assert (kernel == random_model(m, order, seed, floor).kernel).all()
        if zero is not None:
            g, c, b = zero[0] % len(seeds), zero[1] % m**order, zero[2] % m
            kernels[g, c, b] = 0.0
            kernels[g, c] /= kernels[g, c].sum()
        laws = stationary_distribution(ModelStack(kernels))
        assert laws.shape == (len(seeds), m**order)
        for kernel, law in zip(kernels, laws):
            assert (law == stationary_distribution(MarkovModel(kernel))).all()
            if order and (kernel > 0.0).all():
                assert (law == dense_law_reference(kernel, m, order)).all()

    def test_stack_block_laws_and_items(self):
        seeds = derive_seed(3, np.arange(5))
        stack = ModelStack(random_kernels(3, 1, seeds))
        assert stack.kernel.shape[0] == 5
        for g, seed in enumerate(seeds):
            model = random_model(3, 1, seed)
            assert (stack.kernel[g] == model.kernel).all()
            assert (stack.initial[g] == stationary_distribution(model)).all()
            for length in range(4):
                law = stationary_block_law(stack, length)[g]
                assert (law == stationary_block_law(model, length)).all()

    @pytest.mark.parametrize(
        "kernels, match",
        [
            (np.full((2, 2), 0.5), "3-d"),
            (np.full((2, 3, 2), 0.5), "power of 2"),
            (np.array([[[0.5, 0.5]], [[0.5, 0.6]]]), "kernel 1 row 0 sums to"),
        ],
    )
    def test_stack_validation(self, kernels, match):
        with pytest.raises(ValueError, match=match):
            ModelStack(kernels)


class TestBlockLaw:
    def test_marginal_consistency(self):
        model = random_model(2, 2, seed=9)
        law3 = stationary_block_law(model, 3)
        law2 = stationary_block_law(model, 2)
        law1 = stationary_block_law(model, 1)
        # summing out the newest symbol recovers the shorter law of the prefix;
        # summing out the oldest symbol uses stationarity
        assert law3.reshape(4, 2).sum(axis=1) == pytest.approx(law2, abs=1e-12)
        assert law3.reshape(2, 4).sum(axis=0) == pytest.approx(law2, abs=1e-12)
        assert law2.reshape(2, 2).sum(axis=0) == pytest.approx(law1, abs=1e-12)

    def test_prefix_probability_exceeds_lambda_power(self):
        model = random_model(2, 1, seed=21)
        lam = model.kernel[model.kernel > 0.0].min()  # the per-step floor lambda
        law = stationary_block_law(model, 5)
        positive = law[law > 0.0]
        assert np.all(positive > lam**5)

    def test_prefix_floor_on_sampled_prefixes(self):
        model = random_model(3, 1, seed=4)
        lam = model.kernel[model.kernel > 0.0].min()
        law = stationary_block_law(model, 5)
        paths = sample_paths(model, 5, [derive_seed(5, i) for i in range(100)])
        weights = 3 ** np.arange(4, -1, -1)
        codes = paths @ weights
        assert np.all(law[codes] > lam**5)


class TestTrueOrder:
    def test_identical_rows_collapse_to_iid(self):
        assert true_order(MarkovModel([[0.3, 0.7], [0.3, 0.7]])) == 0

    def test_distinct_rows_are_order_one(self):
        assert true_order(MarkovModel([[0.3, 0.7], [0.8, 0.2]])) == 1

    def test_lifted_order_one_detected_inside_order_two(self):
        base = np.array([[0.3, 0.7], [0.8, 0.2]])
        lifted = lift_kernel(base, 2, 2)
        model = MarkovModel(lifted)
        assert model.order == 2
        assert true_order(model) == 1

    def test_lifting_preserves_true_order(self):
        base = random_model(2, 1, seed=77)
        for r in (2, 3):
            assert true_order(MarkovModel(lift_kernel(base.kernel, 2, r))) == 1


class TestSamplePath:
    def test_deterministic_kernel_forces_path(self):
        # cycle 0 -> 1 -> 0 from a forced start
        model = MarkovModel([[0.0, 1.0], [1.0, 0.0]], initial=[1.0, 0.0])
        path = sample_paths(model, 9, 1)[0]
        assert path.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_same_seed_identical(self):
        a = sample_paths(TWO_STATE, 500, 99)[0]
        b = sample_paths(TWO_STATE, 500, 99)[0]
        assert np.array_equal(a, b)

    def test_lln_against_stationary_law(self):
        n = 10**6
        path = sample_paths(TWO_STATE, n, 2024)[0]
        freq1 = path.mean()
        assert abs(freq1 - 0.6) < 3.0 / math.sqrt(n)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sample_paths(TWO_STATE, 0, 1)

    def test_batch_matches_scalar_sampler(self):
        for model in (TWO_STATE, random_model(3, 2, seed=8)):
            seeds = [derive_seed(11, i) for i in range(6)]
            batch = sample_paths(model, 40, seeds)
            for i, s in enumerate(seeds):
                assert np.array_equal(batch[i], sample_paths(model, 40, s)[0])
            assert sample_paths(model, 40, []).shape == (0, 40)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 4),
        order=st.integers(0, 3),
        n=st.integers(1, 5000),
        model_seed=st.integers(0, 2**32),
        seeds=st.lists(
            st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1)),
            min_size=1,
            max_size=8,
        ),
        zeros=st.integers(0, 2**16),
        stacked=st.booleans(),
    )
    def test_every_lane_matches_reference(self, m, order, n, model_seed, seeds, zeros, stacked):
        # some kernels get zero entries (never a whole row), with a uniform
        # initial law since such chains may be reducible; a stack gives each
        # lane its own kernel and its own initial law
        def lane_model(k):
            kernel = random_model(m, order, model_seed + k).kernel.copy()
            if zeros % 2:
                mask = (np.arange(kernel.size).reshape(kernel.shape) * (zeros + k)) % 3 == 0
                mask[:, 0] = False
                kernel[mask] = 0.0
                kernel /= kernel.sum(axis=1, keepdims=True)
            weights = uniform_block(model_seed + k, 0, m**order) + 0.1 if stacked else 1.0
            initial = np.broadcast_to(weights, m**order)
            return MarkovModel(kernel, initial=initial / initial.sum())

        models = [lane_model(k) for k in range(len(seeds))] if stacked else [lane_model(0)]
        stack = ModelStack([one.kernel for one in models], [one.initial for one in models])
        batch = sample_paths(stack if stacked else models[0], n, seeds)
        assert batch.shape == (len(seeds), n)
        for i, s in enumerate(seeds):
            assert np.array_equal(batch[i], reference_path(models[i % len(models)], n, s))

    @pytest.mark.parametrize(
        "kernels, match",
        [
            ([TWO_STATE.kernel], "one per seed"),
            ([TWO_STATE.kernel] * 3, "one per seed"),
            ([TWO_STATE.kernel, [[0.5, 0.5]]], None),
            ([TWO_STATE.kernel, [[0.5, 0.5, 0.0]] * 3], None),
        ],
        ids=["one-kernel-two-seeds", "three-kernels-two-seeds", "other-order", "other-alphabet"],
    )
    def test_stack_needs_one_model_per_seed_of_one_shape(self, kernels, match):
        # a stack of kernels of two shapes is refused before any sampling
        with pytest.raises(ValueError, match=match):
            sample_paths(ModelStack(kernels), 10, [1, 2])

    def test_never_emits_a_zero_probability_symbol(self, monkeypatch):
        # the row sums to 1 - 1e-13, inside the tolerance, so the largest
        # uniform 1 - 2**-53 lies above it; clipping it to the last symbol
        # would emit a symbol (and an initial context) of probability 0
        row = [0.5, 0.4999999999999, 0.0]
        model = MarkovModel([row] * 3, initial=row)
        # every draw, the initial one too, comes through raw53_steps
        monkeypatch.setattr(
            model_mod,
            "raw53_steps",
            lambda seed, start, count, out=None, scratch=None: np.full(
                (count,) + np.broadcast(np.asarray(seed), np.asarray(start)).shape,
                2**53 - 1,
                dtype=np.uint64,
            ),
        )
        path = sample_paths(model, 200, 1)[0]
        assert path[0] != 2
        assert math.isfinite(log_true_conditional_likelihood(model, path, 1))

    @pytest.mark.parametrize("m, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_paths_come_in_the_narrowest_symbol_type(self, m, dtype):
        # a fixed kernel that puts mass on the largest symbol m - 1
        kernel = np.full((m, m), 0.5 / (m - 1))
        kernel[:, m - 1] = 0.5
        model = MarkovModel(kernel)
        batch = sample_paths(model, 600, [3, 2**63 + 5])
        assert batch.dtype == dtype
        assert batch.max() == m - 1
        for row, s in zip(batch, [3, 2**63 + 5]):
            assert np.array_equal(row, reference_path(model, 600, s))

    def test_path_shorter_than_order(self):
        model = random_model(2, 3, seed=15)
        path = sample_paths(model, 2, 3)[0]
        assert len(path) == 2

    @pytest.mark.parametrize("lanes", [2, 3, 5])
    @pytest.mark.parametrize(
        "case", ["never-coalesces", "identical-rows", "order-0", "one-block"]
    )
    def test_coalescence_edge_cases_match_reference(self, case, lanes):
        if case == "never-coalesces":  # the start columns swap places forever
            model = MarkovModel([[0.0, 1.0], [1.0, 0.0]], initial=[0.5, 0.5])
        elif case == "identical-rows":  # every start column meets by step 2
            model = MarkovModel(lift_kernel(np.array([[0.3, 0.7]]), 2, 2))
        elif case == "order-0":  # one column from the start: nothing to replay
            model = MarkovModel([[0.2, 0.5, 0.3]])
        else:
            model = MarkovModel(
                random_model(2, 13, seed=4).kernel, initial=np.full(2**13, 2.0**-13)
            )
            assert lanes * model.n_contexts >= model_mod.BLOCK_CELLS  # so blocks == 1
        # seeds on both sides of 2**63
        seeds = [2**63 + (-1) ** i * (1 + 7919 * i) for i in range(lanes)]
        n = 300 if case == "one-block" else 1500
        batch = sample_paths(model, n, seeds)
        for i, s in enumerate(seeds):
            assert np.array_equal(batch[i], reference_path(model, n, s))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 3),
        order=st.integers(0, 2),
        n=st.integers(1, 400),
        model_seed=st.integers(0, 2**32),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        depth=st.integers(0, 3),
        uniform_cells=st.sampled_from([1, 3, 7, 33]),
        flush_cells=st.sampled_from([1, 3, 7, 65]),
        block_cells=st.sampled_from([1, 5, 9, 65, 257]),
    )
    def test_batching_never_changes_a_sample(
        self, m, order, n, model_seed, seeds, depth, uniform_cells, flush_cells, block_cells
    ):
        # draw chunks, stored runs and blocks of small odd sizes cut the
        # steps anywhere; step_lanes' yielded arrays are kept uncopied, so
        # one written after it is yielded would show
        model = random_model(m, order, model_seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_mod, "UNIFORM_CELLS", uniform_cells)
            patch.setattr(model_mod, "FLUSH_CELLS", flush_cells)
            patch.setattr(model_mod, "BLOCK_CELLS", block_cells)
            batch = sample_paths(model, n, seeds)
            lanes = list(step_lanes(model, n, np.array(seeds, dtype=np.uint64), depth))
        for row, s in zip(batch, seeds):
            assert np.array_equal(row, reference_path(model, n, s))
        assert [i for i, _, _ in lanes] == list(range(1, n + 1))
        assert np.array_equal(np.stack([sym for _, _, sym in lanes], axis=1), batch)
        top = max(depth, order)
        for i, ctx, _ in lanes:
            window = batch[:, max(i - 1 - top, 0) : i - 1].astype(np.int64)
            assert np.array_equal(ctx, window @ m ** np.arange(window.shape[1])[::-1])

    def test_one_chunk_of_draws_alive_at_a_time(self):
        # one 131072-symbol lane of an m = 4, order-2 chain: the first pass
        # steps 1024 blocks of 129 steps from 16 start columns, draws 32
        # steps (256 KB) per chunk into one array reused by every chunk,
        # beside the finalizer's 256 KB scratch, and holds up to 129 steps
        # of symbols (132 KB) before it stores them
        model = random_model(4, 2, seed=7)
        sample_paths(model, 1000, [1])
        tracemalloc.start()
        try:
            out = sample_paths(model, 131072, [12345])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 1_400_000


# thresholds t where the integer rule is easiest to get wrong, each with
# its two floating-point neighbours
EDGE_THRESHOLDS = [
    v
    for t in (0.5, 0.25, 1.0 - 2.0**-53, 0.5 + 0.4999999999999)
    for v in (np.nextafter(t, 0.0), t, np.nextafter(t, 2.0))
]


class TestIntegerThresholds:
    """The sampler compares a draw k with ceil(t * 2**53) in place of its
    uniform k * 2**-53 with t; the two must agree for every k."""

    @staticmethod
    def check(t, tick):
        for k in (tick - 1, tick, tick + 1):
            if 0 <= k < 2**53:
                assert (k >= tick) == (t <= k * 2.0**-53)

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_rule_is_exact(self, t):
        self.check(t, int(model_mod._thresholds(np.array([t, 1.0]))[0]))

    @pytest.mark.parametrize("t", [0.0, 1.0] + EDGE_THRESHOLDS)
    def test_rule_is_exact_at_edges(self, t):
        self.check(t, int(model_mod._thresholds(np.array([t, 1.0]))[0]))

    def test_row_short_of_one(self):
        row = np.array([0.5, 0.4999999999999, 0.0])
        ticks = model_mod._thresholds(row)
        self.check(0.5, int(ticks[0]))
        # the threshold from the last positive entry on is the sentinel,
        # which no draw reaches
        assert ticks[1] == model_mod.NEVER
        assert not ticks[1] <= 2**53 - 1
        assert not model_mod._thresholds(np.array([1.0, 0.0]))[0] <= 2**53 - 1


class TestTrueConditionalLikelihood:
    def test_deterministic_chain_gives_zero(self):
        model = MarkovModel([[0.0, 1.0], [1.0, 0.0]], initial=[1.0, 0.0])
        path = sample_paths(model, 8, 1)[0]
        assert log_true_conditional_likelihood(model, path, 1) == 0.0

    def test_impossible_transition_gives_neg_inf_sentinel(self):
        model = MarkovModel([[1.0, 0.0], [1.0, 0.0]], initial=[1.0, 0.0])
        value = log_true_conditional_likelihood(model, np.array([0, 0, 1, 0]), 1)
        assert value == float("-inf")
        assert not math.isnan(value)

    def test_hand_product_iid(self):
        model = MarkovModel([[0.75, 0.25]])  # order 0, P(1) = 0.25
        value = log_true_conditional_likelihood(model, np.array([0, 0, 1, 0]), 0)
        assert value == pytest.approx(3 * math.log(0.75) + math.log(0.25), abs=1e-12)

    def test_below_true_order_rejected(self):
        with pytest.raises(ValueError):
            log_true_conditional_likelihood(TWO_STATE, np.array([0, 1, 0, 1]), 0)

    def test_conditioning_order_only_shifts_start(self):
        path = sample_paths(TWO_STATE, 50, 5)[0]
        l1 = log_true_conditional_likelihood(TWO_STATE, path, 1)
        l3 = log_true_conditional_likelihood(TWO_STATE, path, 3)
        # dropping the first two sampled factors
        codes = path[:-1]
        steps = np.log(TWO_STATE.kernel[codes, path[1:]])
        assert l1 == pytest.approx(steps.sum(), abs=1e-10)
        assert l3 == pytest.approx(steps[2:].sum(), abs=1e-10)


class TestValidation:
    def test_alphabet_size_bound(self):
        with pytest.raises(ValueError, match="alphabet size"):
            MarkovModel([[1.0]])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel([[0.5, 0.6], [0.5, 0.5]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel([[-0.1, 1.1], [0.5, 0.5]])

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel([[0.5, 0.5], [0.5, 0.5]], initial=[0.7, 0.7])

    def test_immutability(self):
        model = MarkovModel([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            model.kernel[0, 0] = 0.9

    def test_tables_past_the_cell_limit_rejected(self):
        # 2**25 cells pass TABLE_CELLS = 2**24; an order of 10**12 is
        # rejected without forming its power
        model = MarkovModel([[0.5, 0.5], [0.5, 0.5]])
        for r in (24, 10**12):
            with pytest.raises(ValueError, match="passes 16777216 cells"):
                lift_kernel(model.kernel, 2, r)
            with pytest.raises(ValueError, match="passes 16777216 cells"):
                stationary_block_law(model, r + 1)
        assert model_mod.table_fits(2, 24) and not model_mod.table_fits(3, 16)


class TestLabel:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 4), order=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_label_is_the_sha1_of_the_kernel_bytes(self, m, order, seed):
        import hashlib

        model = random_model(m, order, seed)
        digest = hashlib.sha1(model.kernel.tobytes()).hexdigest()
        assert model.label() == f"m{m}-r{order}-{digest[:8]}"

    def test_label_without_the_builtin_sha1(self):
        # where CPython has no _sha1 module, label() falls back on hashlib
        script = (
            "import sys; sys.modules['_sha1'] = None\n"
            "from markovorder import MarkovModel\n"
            "print(MarkovModel([[0.7, 0.3], [0.2, 0.8]]).label())\n"
            "assert 'hashlib' in sys.modules\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == TWO_STATE.label() == "m2-r1-d82a3296"


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        model = random_model(3, 2, seed=1)
        target = tmp_path / "chain.model"
        write_model_file(model, target)
        loaded = read_model_file(target)
        assert loaded.m == 3 and loaded.order == 2
        assert np.abs(loaded.kernel - model.kernel).max() < 1e-11
        assert np.abs(loaded.initial - model.initial).max() < 1e-11
        for seed in range(200):
            model = random_model(4, 2, seed)
            write_model_file(model, target)
            loaded = read_model_file(target)
            assert np.array_equal(loaded.kernel, model.kernel)
            assert loaded.label() == model.label()

    def test_comments_and_blank_lines(self, tmp_path):
        target = tmp_path / "chain.model"
        target.write_text(
            "# two-state chain\n"
            "alphabet_size: 2\n\n"
            "order: 1\n"
            "kernel:\n"
            "  0.7 0.3   # context 0\n"
            "  0.2 0.8\n"
        )
        model = read_model_file(target)
        assert model.kernel[1, 1] == 0.8

    def test_truncated_kernel_rejected(self, tmp_path):
        target = tmp_path / "bad.model"
        target.write_text("alphabet_size: 2\norder: 1\nkernel:\n  0.7 0.3\n")
        with pytest.raises(ValueError):
            read_model_file(target)
