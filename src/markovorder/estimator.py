"""The penalized-likelihood order estimator and its recovery experiments.

The estimated order maximizes ``max_loglik(r) - pen(n, r)`` over
0 <= r < kappa(n); ties break to the smallest order.  Recovery experiments
evaluate every n in a grid along a single growing path per replication, so
the reported trajectory matches the almost-sure convergence statement and
count tables are extended rather than rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .counts import ContextCounts, prefix_counts
from .likelihood import lil_from_logliks, masked_log_ratio, max_loglik_vector
from .model import MarkovModel, sample_paths, stationary_block_law, true_order
from .penalty import CutoffSpec, PenaltySpec, cutoff_value, penalty_value
from .rng import derive_seed


@dataclass(frozen=True)
class OrderScore:
    order: int
    loglik: float
    penalty: float

    @property
    def score(self) -> float:
        return self.loglik - self.penalty


@dataclass(frozen=True)
class EstimateResult:
    """Chosen order plus the full per-order score table."""

    chosen_order: int
    table: tuple[OrderScore, ...]


def argmax_score(logliks, penalties) -> int:
    """Index of the largest loglik - penalty; ties go to the smallest index."""
    if len(logliks) != len(penalties) or not logliks:
        raise ValueError("score table must be nonempty and aligned")
    scores = [ll - p for ll, p in zip(logliks, penalties)]
    return max(range(len(scores)), key=scores.__getitem__)


def _score_orders(logliks, pen: PenaltySpec, n: int, m: int) -> EstimateResult:
    """Score the orders 0..len(logliks)-1 under one penalty at sample size n."""
    pens = [penalty_value(pen, n, r, m) for r in range(len(logliks))]
    chosen = argmax_score(logliks, pens)
    table = tuple(OrderScore(r, ll, p) for r, (ll, p) in enumerate(zip(logliks, pens)))
    return EstimateResult(chosen, table)


def estimate_order(
    counts: ContextCounts,
    pen: PenaltySpec,
    cut: CutoffSpec,
    m: int,
) -> EstimateResult:
    """Penalized-likelihood order estimate from a count table, at its path
    length ``counts.n``."""
    n = counts.n
    return _score_orders(max_loglik_vector(counts, cutoff_value(cut, n, m)), pen, n, m)


def required_depth_cap(cut: CutoffSpec, n_grid, m: int) -> int:
    """Depth cap for an experiment grid: max kappa over the grid, plus one."""
    return max(cutoff_value(cut, n, m) for n in n_grid) + 1


@dataclass(frozen=True)
class ReplicationRow:
    """One (replication, n) estimate; ``table`` is its per-order score table."""

    n: int
    replication: int
    seed: int
    chosen_order: int
    lil_stat: float
    table: tuple[OrderScore, ...]


@dataclass(frozen=True)
class RecoverySummary:
    n: int
    recovery: float
    under: int
    over: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ReplicationRow, ...]
    summary: tuple[RecoverySummary, ...]


def grid_logliks(symbols: np.ndarray, m: int, cut: CutoffSpec, n_grid, depth_cap: int):
    """Yield ``(n, logliks)`` along one growing path, where ``logliks[r]`` is
    ``max_loglik`` of the prefix x_{1:n} for every order r < kappa(n).

    Counts are extended from one grid length to the next, never rebuilt.
    """
    for n, counts in zip(n_grid, prefix_counts(symbols, n_grid, depth_cap, m)):
        yield n, max_loglik_vector(counts, cutoff_value(cut, n, m))


def evaluate_replication(
    model: MarkovModel, pens, cut: CutoffSpec, n_grid, depth_cap: int, load, task
) -> list[list[ReplicationRow]]:
    """Score one ``(replication, seed, source)`` task at every grid length
    under every penalty in ``pens``; returns one list of rows per penalty.

    The path is sampled from the seed when the source is None, and read by
    ``load(source, m, seed, n_max)`` otherwise.  Each length's
    ``max_loglik`` vector is scored against every penalty and also gives
    the LIL statistic.
    """
    replication, seed, source = task
    if source is None:
        symbols = sample_paths(model, n_grid[-1], seed)[0]
    else:
        symbols = load(source, model.m, seed, n_grid[-1])
    m, r_star = model.m, true_order(model)
    rows = [[] for _ in pens]
    for n, logliks in grid_logliks(symbols, m, cut, n_grid, depth_cap):
        lil = lil_from_logliks(logliks[r_star:], r_star, m)
        for out, pen in zip(rows, pens):
            result = _score_orders(logliks, pen, n, m)
            out.append(
                ReplicationRow(n, replication, seed, result.chosen_order, lil, result.table)
            )
    return rows


def evaluate_replications(
    model: MarkovModel,
    pens,
    cut: CutoffSpec,
    n_grid,
    tasks,
    jobs: int = 1,
    load=None,
) -> list[list[list[ReplicationRow]]]:
    """``evaluate_replication`` for every task, in task order whatever
    ``jobs`` is; workers receive a task, never a symbol array.  The pool
    starts no more workers than there are tasks."""
    n_grid = sorted(int(n) for n in n_grid)
    depth_cap = required_depth_cap(cut, n_grid, model.m)
    worker = partial(evaluate_replication, model, tuple(pens), cut, n_grid, depth_cap, load)
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=1))
    return [worker(task) for task in tasks]


def recovery_summary(rows, n_grid, r_star: int) -> tuple[RecoverySummary, ...]:
    """Exact, under- and over-estimates per grid length, from one penalty's rows."""
    summary = []
    for n in n_grid:
        at_n = [row for row in rows if row.n == n]
        exact = sum(1 for row in at_n if row.chosen_order == r_star)
        under = sum(1 for row in at_n if row.chosen_order < r_star)
        over = sum(1 for row in at_n if row.chosen_order > r_star)
        summary.append(RecoverySummary(n, exact / len(at_n), under, over))
    return tuple(summary)


def consistency_experiment(
    model: MarkovModel,
    pen: PenaltySpec,
    cut: CutoffSpec,
    n_grid,
    replications: int,
    seed: int,
    jobs: int = 1,
) -> ExperimentResult:
    """Recovery-rate experiment: fraction of replications whose estimate hits
    the true order at each grid length.

    Replication i runs on its own derived seed, so results are independent
    of ``jobs`` and deterministic in (model, grid, replications, seed).
    """
    n_grid = sorted(int(n) for n in n_grid)
    if replications < 1:
        raise ValueError("need at least one replication")
    stationary_block_law(model, model.order)  # fail fast on reducible chains
    r_star = true_order(model)
    tasks = [(i, derive_seed(seed, i), None) for i in range(replications)]
    per_rep = evaluate_replications(model, (pen,), cut, n_grid, tasks, jobs)
    rows = tuple(row for (rep_rows,) in per_rep for row in rep_rows)
    return ExperimentResult(rows, recovery_summary(rows, n_grid, r_star))


def underestimation_gap(model: MarkovModel, r: int) -> float:
    """Per-symbol likelihood loss of conditioning on only r past symbols.

    The stationary expectation ``E[log P(X | last r_true symbols)] -
    E[log Q_r(X | last r symbols)]`` where Q_r is the stationary conditional
    law; a conditional mutual information, zero exactly when r reaches the
    true order.
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    r_star = true_order(model)
    if r >= r_star:
        return 0.0

    def mean_log_conditional(k: int) -> float:
        joint = stationary_block_law(model, k + 1).reshape(model.m**k, model.m)
        ctx = joint.sum(axis=1)
        return float((joint * masked_log_ratio(joint, ctx[:, None])).sum())

    return max(mean_log_conditional(r_star) - mean_log_conditional(r), 0.0)
