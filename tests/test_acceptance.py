"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria
use seeds frozen after pilot runs; every tolerance is stated inline.
"""

import itertools
import math
import os
import time

import numpy as np

import markovorder as mo
from markovorder import build_counts, cli, extend_counts, max_loglik
from markovorder.diagnostics import (
    bernstein_mc_check,
    bracket_battery,
    bracket_count_check,
    deviation_tail_mc,
    hellinger_sandwich_battery,
    hellinger_stationary_distance,
    lil_trajectory,
    norm_bound_battery,
)
from markovorder.modelfile import write_model_file
from markovorder.rng import derive_seed

TEST_CHAIN = mo.MarkovModel([[0.7, 0.3], [0.2, 0.8]])  # P(1|0)=0.3, P(1|1)=0.8


def verdict(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


class Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.start = time.monotonic()

    def within_budget(self):
        return time.monotonic() - self.start < self.limit


def test_criterion_01_likelihood_grid_oracle():
    clock = Stopwatch(10)
    grid = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(grid), np.log(1.0 - grid)

    def oracle(symbols, r):
        total = 0.0
        for code in range(2**r):
            n0 = n1 = 0
            for i in range(r, len(symbols)):
                ctx = 0
                for s in symbols[i - r : i]:
                    ctx = ctx * 2 + s
                if ctx == code:
                    n1 += symbols[i]
                    n0 += 1 - symbols[i]
            if n0 + n1 == 0:
                continue
            vals = np.zeros_like(grid)
            if n0:
                vals = vals + n0 * log_q
            if n1:
                vals = vals + n1 * log_p
            total += vals.max()
        return total

    worst = 0.0
    for bits in itertools.product((0, 1), repeat=8):
        counts = build_counts(np.array(bits), 2, m=2)
        for r in (0, 1, 2):
            worst = max(worst, abs(max_loglik(counts, r) - oracle(bits, r)))
    verdict(
        1,
        f"max_loglik vs 1e-3 grid search on all length-8 paths (worst gap {worst:.2e} <= 1e-4)",
        worst <= 1e-4 and clock.within_budget(),
    )


def test_criterion_02_count_identities_exhaustive():
    clock = Stopwatch(10)
    ok = True
    for n in range(2, 11):
        cap = min(3, n - 1)
        for bits in itertools.product((0, 1), repeat=n):
            symbols = np.array(bits)
            full = build_counts(symbols, cap, m=2)
            for cut in range(cap + 1, n + 1):
                stitched = extend_counts(build_counts(symbols[:cut], cap, m=2), symbols[cut:])
                for r in range(cap + 1):
                    trans = stitched.transition_counts(r)
                    ctx = stitched.context_counts(r)
                    ok &= bool(np.array_equal(trans.sum(axis=1), ctx))
                    ok &= int(ctx.sum()) == max(n - r, 0)
                    ok &= bool(np.array_equal(trans, full.transition_counts(r)))
            if not ok:
                break
    verdict(
        2,
        "row-sum/total-mass identities and split/rebuild equality, all binary paths n <= 10, depths <= 3",
        ok and clock.within_budget(),
    )


def test_criterion_03_bernstein_norm_domination():
    clock = Stopwatch(60)
    report = norm_bound_battery(1000, seed=1003)
    verdict(
        3,
        f"predictable norm <= 8x Hellinger on 1000 instances (worst ratio {report.worst_ratio:.3f}, "
        f"{report.violations} violations, rel tol 1e-9)",
        report.violations == 0 and report.instances == 1000 and clock.within_budget(),
    )


def test_criterion_04_hellinger_sandwich_on_event():
    clock = Stopwatch(120)
    report = hellinger_sandwich_battery(1000, eta=0.5, n=256, rho=3, seed=1004)
    verdict(
        4,
        f"doubling/stationary sandwich with C3=12, C4=2 on 1000 event-conditioned instances "
        f"({report.violations} violations)",
        report.instances == 1000 and report.violations == 0 and clock.within_budget(),
    )


def test_criterion_05_bracketing():
    clock = Stopwatch(60)
    battery = bracket_battery(TEST_CHAIN, 100, 100, 128, beta=0.05, r=1, seed=1005)
    count = bracket_count_check(TEST_CHAIN, r=1, sigma=0.01, n=64, samples=10**4, seed=1006)
    verdict(
        5,
        f"bracket containment/gap on 100 kernels x 100 paths and count {count.distinct} <= "
        f"exp({count.log_bound:.2f})",
        battery.violations == 0 and count.passed and clock.within_budget(),
    )


def test_criterion_06_bernstein_tail_mc():
    clock = Stopwatch(300)
    candidate = mo.MarkovModel([[0.55, 0.45], [0.35, 0.65]])
    r, n = 1, 512
    h_stat = hellinger_stationary_distance(
        TEST_CHAIN,
        mo.mixture_kernel(candidate, TEST_CHAIN, r),
        mo.mixture_kernel(TEST_CHAIN, TEST_CHAIN, r),
    )
    cap = 12.0 * (n - r) * h_stat
    alphas = np.linspace(0.5 * math.sqrt(cap), 3.0 * math.sqrt(cap), 10)
    report = bernstein_mc_check(TEST_CHAIN, candidate, r, n, alphas, cap, 10**5, seed=271828)
    margin_ok = all(row.empirical <= row.bound + row.margin for row in report.rows)
    verdict(
        6,
        "martingale-maximum tail under the exp(-a^2/(2(2a+R))) bound at 10 alphas, 1e5 reps, n=512",
        report.all_passed and margin_ok and clock.within_budget(),
    )


def test_criterion_07_deviation_tail_shape():
    clock = Stopwatch(600)
    eps = np.linspace(0.0, 15.0, 16)
    report = deviation_tail_mc(
        TEST_CHAIN, r=2, n=256, eps_grid=eps, replications=10**5, eta=0.5, rho=4, seed=314159
    )
    verdict(
        7,
        f"overshoot tail log-linear in eps (slope {report.slope:.3f} < 0, "
        f"R^2 {report.r_squared:.3f} >= 0.9 over {report.usable_points} points)",
        report.slope < 0.0 and report.r_squared >= 0.9 and clock.within_budget(),
    )


def test_criterion_08_lil_boundedness():
    clock = Stopwatch(600)
    checkpoints = [2**k for k in range(10, 23)]
    series = np.zeros((20, len(checkpoints)))
    finite = True
    for i in range(20):
        report = lil_trajectory(TEST_CHAIN, checkpoints, 1, mo.SubLogCutoff(), derive_seed(777, i))
        series[i] = [p.normalized for p in report.points]
        finite &= math.isfinite(report.max_normalized)
    mean_series = series.mean(axis=0)
    slope = float(np.polyfit(np.log2(checkpoints), mean_series, 1)[0])
    verdict(
        8,
        f"normalized order-supremum statistic over 2^10..2^22, 20 seeds: trend slope "
        f"{slope:.4f} <= 0.01, finite max {series.max():.3f}",
        slope <= 0.01 and finite and clock.within_budget(),
    )


def test_criterion_09_recovery_at_desk_scale():
    clock = Stopwatch(900)
    grid = [2**12, 2**14, 2**16, 2**18]
    result = mo.consistency_experiment(
        TEST_CHAIN, mo.LogLogPenalty(5.0), mo.SubLogCutoff(), grid, 100, seed=20240810
    )
    recoveries = [s.recovery for s in result.summary]
    nondecreasing = all(b >= a for a, b in zip(recoveries, recoveries[1:]))
    verdict(
        9,
        f"recovery {['%.2f' % r for r in recoveries]} nondecreasing and >= 0.95 at 2^18 "
        "(loglog C=5, sublog cutoff, 100 reps)",
        nondecreasing and recoveries[-1] >= 0.95 and clock.within_budget(),
    )


def test_criterion_10_underestimation_gap():
    clock = Stopwatch(120)
    analytic = mo.underestimation_gap(TEST_CHAIN, 0)
    path = mo.sample_paths(TEST_CHAIN, 2**20, 5050)[0]
    counts = build_counts(path, 2, m=2)
    empirical = (max_loglik(counts, 1) - max_loglik(counts, 0)) / 2**20
    err = abs(empirical - analytic)
    verdict(
        10,
        f"-(ML_0 - ML_1)/n at n=2^20 vs conditional-information oracle (|err| {err:.2e} <= 0.005)",
        err <= 0.005 and clock.within_budget(),
    )


def test_criterion_11_cli_determinism(tmp_path):
    def tree_bytes(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for name in files:
                full = os.path.join(dirpath, name)
                out[os.path.relpath(full, root)] = open(full, "rb").read()
        return out

    write_model_file(TEST_CHAIN, tmp_path / "chain.model")
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[model]\nfile = chain.model\n"
        "[experiment]\nn_grid = 256 1024\nreplications = 3\nseed = 99\n"
        f"out = {tmp_path / 'out'}\n"
        "[penalty]\nspec = loglog C=5\nspecs = loglog C=5, bic\n"
        "[cutoff]\nspec = sublog\n"
        "[verify]\nchecks = norm-bound bernstein\ninstances = 10\n"
        "bernstein_replications = 10000\nbernstein_n = 64\n"
    )
    ok = True
    for command in ("simulate", "estimate", "sweep", "verify"):
        rc1 = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}1")])
        rc2 = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}2")])
        ok &= rc1 == rc2 == 0
        ok &= tree_bytes(tmp_path / f"{command}1") == tree_bytes(tmp_path / f"{command}2")
    verdict(11, "simulate/estimate/sweep/verify byte-identical across repeated runs", ok)
