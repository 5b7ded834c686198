"""Order selection, recovery experiments, and the analytic accuracy gap."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from markovorder import (
    LogLogPenalty,
    MarkovModel,
    SubLogCutoff,
    build_counts,
    consistency_experiment,
    estimate_order,
    random_model,
    sample_paths,
    true_order,
    underestimation_gap,
)
from markovorder.counts import prefix_counts
from markovorder.estimator import argmax_score, grid_logliks, required_depth_cap
from markovorder.model import ModelStack, lift_kernel, stationary_distribution
from markovorder.penalty import cutoff_value
from markovorder.rng import derive_seed

TWO_STATE = MarkovModel([[0.7, 0.3], [0.2, 0.8]])


def entropy(row):
    return -sum(p * math.log(p) for p in row if p > 0)


class TestArgmax:
    def test_injected_score_table(self):
        assert argmax_score([10.0, 12.0, 12.5], [1.0, 2.0, 4.0]) == 1

    def test_tie_breaks_to_smaller(self):
        assert argmax_score([5.0, 6.0, 7.0], [1.0, 2.0, 3.0]) == 0
        # a tie among losing orders does not move the winner
        assert argmax_score([0.0, 0.0, 5.0], [0.0, 0.0, 0.0]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            argmax_score([], [])


class TestEstimateOrder:
    def test_constant_path_chooses_zero(self):
        counts = build_counts(np.zeros(4096, dtype=int), 6, m=2)
        result = estimate_order(counts, LogLogPenalty(5.0), SubLogCutoff(), 2)
        assert result.chosen_order == 0
        assert all(entry.loglik == 0.0 for entry in result.table)

    def test_never_reaches_cutoff(self):
        models = [random_model(2, 1, seed=derive_seed(90, i)) for i in range(20)]
        stack = ModelStack([model.kernel for model in models])
        for path in sample_paths(stack, 2048, derive_seed(91, np.arange(20))):
            counts = build_counts(path, 6, m=2)
            result = estimate_order(counts, LogLogPenalty(5.0), SubLogCutoff(), 2)
            kappa = cutoff_value(SubLogCutoff(), 2048, 2)
            assert result.chosen_order < kappa == len(result.table)

    def test_depth_cap_error_names_requirement(self):
        counts = build_counts(np.zeros(4096, dtype=int), 2, m=2)
        with pytest.raises(ValueError, match="depth"):
            estimate_order(counts, LogLogPenalty(5.0), SubLogCutoff(), 2)

    def test_penalty_dominance_never_increases_order(self):
        # a pointwise-larger penalty with gaps growing in r can only push the
        # argmax down
        models = [random_model(2, 2, seed=derive_seed(92, i)) for i in range(30)]
        stack = ModelStack([model.kernel for model in models])
        for path in sample_paths(stack, 1024, derive_seed(93, np.arange(30))):
            counts = build_counts(path, 5, m=2)
            small = estimate_order(counts, LogLogPenalty(3.0), SubLogCutoff(), 2)
            big = estimate_order(counts, LogLogPenalty(7.0), SubLogCutoff(), 2)
            assert big.chosen_order <= small.chosen_order


class TestConsistencyExperiment:
    def test_deterministic_chain_full_recovery(self):
        model = MarkovModel([[0.0, 1.0], [1.0, 0.0]])
        result = consistency_experiment(
            model, LogLogPenalty(5.0), SubLogCutoff(), [64, 256], 5, seed=1
        )
        assert true_order(model) == 1
        for summary in result.summary:
            assert summary.recovery == 1.0

    def test_same_seed_reproducible(self):
        a = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [128, 512], 4, seed=9
        )
        b = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [128, 512], 4, seed=9
        )
        assert a == b

    def test_jobs_do_not_change_results(self):
        a = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [128, 512], 4, seed=9
        )
        c = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [128, 512], 4, seed=9, jobs=2
        )
        assert a == c

    def test_rows_carry_derived_seeds(self):
        result = consistency_experiment(
            TWO_STATE, LogLogPenalty(5.0), SubLogCutoff(), [128], 3, seed=123
        )
        seeds = sorted({row.seed for row in result.rows})
        assert seeds == sorted(derive_seed(123, i) for i in range(3))

    def test_depth_cap_covers_grid(self):
        grid = [2**10, 2**14]
        cap = required_depth_cap(SubLogCutoff(), grid, 2)
        # the deepest table the largest cutoff reads: its largest order
        assert cap == cutoff_value(SubLogCutoff(), 2**14, 2) - 1

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_extra_depth_leaves_logliks_unchanged(self, m):
        grid = [64, 512, 4096]
        cap = required_depth_cap(SubLogCutoff(), grid, m)
        path = sample_paths(random_model(m, 2, seed=m), grid[-1], 17)[0]
        at_cap = list(grid_logliks(prefix_counts((path,), grid, cap, m), m, SubLogCutoff(), grid))
        deeper = prefix_counts((path,), grid, cap + 2, m)
        assert at_cap == list(grid_logliks(deeper, m, SubLogCutoff(), grid))


class TestUnderestimationGap:
    def test_zero_at_or_above_true_order(self):
        assert underestimation_gap(TWO_STATE, 1) == 0.0
        assert underestimation_gap(TWO_STATE, 5) == 0.0

    def test_iid_truth_zero_at_zero(self):
        model = MarkovModel([[0.3, 0.7], [0.3, 0.7]])
        assert underestimation_gap(model, 0) == 0.0

    def test_two_state_closed_form(self):
        # conditional entropy difference, by hand
        pi = stationary_distribution(TWO_STATE)
        h_marginal = entropy(pi)  # next-symbol law equals the stationary law
        h_cond = pi[0] * entropy([0.7, 0.3]) + pi[1] * entropy([0.2, 0.8])
        expected = h_marginal - h_cond
        assert underestimation_gap(TWO_STATE, 0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1284244922, abs=1e-9)

    def test_strictly_positive_below_true_order(self):
        for i in range(25):
            model = random_model(2, 2, seed=derive_seed(94, i))
            r_star = 2  # random order-2 kernels have distinct rows a.s.
            for r in range(r_star):
                assert underestimation_gap(model, r) > 0.0

    def test_lifted_model_keeps_gap_of_base(self):
        lifted = MarkovModel(lift_kernel(TWO_STATE.kernel, 2, 3))
        assert underestimation_gap(lifted, 0) == pytest.approx(
            underestimation_gap(TWO_STATE, 0), abs=1e-12
        )

    def test_empirical_slope_converges(self):
        # (ML_1 - ML_0)/n approaches the analytic gap along growing prefixes
        gap = underestimation_gap(TWO_STATE, 0)
        path = sample_paths(TWO_STATE, 2**18, 31415)[0]
        errors = []
        from markovorder import max_loglik

        for n in (2**14, 2**16, 2**18):
            counts = build_counts(path[:n], 2, m=2)
            slope = (max_loglik(counts, 1) - max_loglik(counts, 0)) / n
            errors.append(abs(slope - gap))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.005


def test_readme_library_sketch_runs(capsys):
    # every name the README's library sketch uses must exist and run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(sketch, {})
    assert capsys.readouterr().out.count("\n") == 2
