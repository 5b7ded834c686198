"""The checks ``verify`` runs, one spec each.

A spec names its check, says whether it gates the exit code, which CSV
grid (file name, header) it writes, if any, and whether it reads the
model's stationary law (``verify`` resolves it first), and holds two
functions.  ``validate(settings, model, candidate)`` raises ConfigError
naming ``verify.<key>`` for a setting the check cannot run with, mirroring
the ValueError conditions that the diagnostics and model functions keep
for library callers; it allocates no array larger than the model's law.
``run(config, model, candidate)`` returns the verdict, the detail and the
grid rows (None without a grid), and imports the diagnostics suite on
first use, so ``config`` loads this module without it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import rng
from .model import TABLE_CELLS, stationary_block_law, table_fits, true_order


class CheckSpec(NamedTuple):
    name: str
    gating: bool
    validate: Callable
    run: Callable
    grid: tuple[str, tuple[str, ...]] | None = None
    reads_law: bool = True


def _require(ok: bool, key: str, need: str, got) -> None:
    if not ok:
        from .config import ConfigError  # config imports this module

        raise ConfigError(f"verify.{key}: must be {need}, got {got}")


def _require_table(m: int, length: int, key: str, got) -> None:
    """Mirror of ``model.check_table``: a table over the m**length blocks of
    ``length`` symbols keeps within TABLE_CELLS cells."""
    need = f"small enough that {m}**{length} table cells stay within {TABLE_CELLS}"
    _require(table_fits(m, length), key, need, got)


def _mirror(key: str, check, *args) -> None:
    """``check(*args)``, a library check whose ValueError fails naming
    ``verify.<key>``."""
    try:
        check(*args)
    except ValueError as exc:
        from .config import ConfigError

        raise ConfigError(f"verify.{key}: {exc}")


def _plain(value):
    """A record (a NamedTuple) as the dict of its fields in order, and a
    tuple as a list, each entry converted in turn; other values as they are."""
    if hasattr(value, "_fields"):
        return {name: _plain(item) for name, item in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _detail(report, verdict: str | None = None) -> dict:
    """A check's detail: the report's fields, plus the verdict property of
    the report named by ``verdict``."""
    detail = _plain(report)
    if verdict:
        detail[verdict] = getattr(report, verdict)
    return detail


def _any_settings(settings, model, candidate) -> None:
    """norm-bound reads only ``instances``, which parsing keeps at 1 or more."""


def _norm_bound(config, model, candidate):
    from . import diagnostics as dg

    report = dg.norm_bound_battery(config.verify.instances, rng.derive_seed(config.seed, 101))
    return report.passed, _detail(report, "passed"), None


def _sandwich_settings(s, model, candidate) -> None:
    half = s.sandwich_n // 2
    _require(s.rho <= half, "rho", f"at most verify.sandwich_n / 2 = {half}", s.rho)
    _require(s.sandwich_n > 2, "sandwich_n", "above the kernels' order 2", s.sandwich_n)
    # the battery tallies windows of max(rho, 3) - 1 of the kernels' two symbols
    _require_table(2, max(s.rho, 3) - 1, "rho", s.rho)


def _sandwich(config, model, candidate):
    from . import diagnostics as dg

    s = config.verify
    report = dg.hellinger_sandwich_battery(
        s.instances, s.eta, s.sandwich_n, s.rho, rng.derive_seed(config.seed, 102)
    )
    # the battery gives up after 20 attempts per instance: fewer
    # instances than asked for is a failure, not a smaller test
    detail = _detail(report, "passed")
    detail["passed"] = report.passed and report.instances == s.instances
    return detail["passed"], detail, None


def _bernstein_settings(s, model, candidate) -> None:
    reps = s.bernstein_replications
    _require(reps >= 10**4, "bernstein_replications", "at least 10000", reps)
    _require(
        candidate.m == model.m, "candidate_file",
        f"a chain on the model's {model.m} symbols", f"one on {candidate.m}",
    )
    orders = f"the model's order {model.order} and the candidate's {candidate.order}"
    r = s.bernstein_r
    _require(r >= max(model.order, candidate.order), "bernstein_r", f"at least {orders}", r)
    _require(s.bernstein_n > r, "bernstein_n", f"above verify.bernstein_r = {r}", s.bernstein_n)
    _require_table(model.m, r + 1, "bernstein_r", r)


def _bernstein(config, model, candidate):
    from . import diagnostics as dg, likelihood

    s = config.verify
    r = s.bernstein_r
    h_stat = dg.hellinger_stationary_distance(
        model,
        likelihood.mixture_kernel(candidate, model, r),
        likelihood.mixture_kernel(model, model, r),
    )
    cap = 12.0 * (s.bernstein_n - r) * max(h_stat, 1e-12)
    alphas = np.linspace(0.5 * math.sqrt(cap), 3.0 * math.sqrt(cap), 10)
    report = dg.bernstein_mc_check(
        model, candidate, r, s.bernstein_n, alphas, cap, s.bernstein_replications,
        rng.derive_seed(config.seed, 103),
    )
    rows = [(row.alpha, row.empirical, row.bound, row.margin, row.passed) for row in report.rows]
    return report.all_passed, _detail(report, "all_passed"), rows


def _bracket_settings(s, model, candidate) -> None:
    from .diagnostics.core import check_envelopes, count_pitch
    from .diagnostics.mc import bracket_path_bytes, bracket_sample_bytes

    _require(s.bracket_beta > 0, "bracket_beta", "> 0", s.bracket_beta)
    _require(s.bracket_sigma > 0, "bracket_sigma", "> 0", s.bracket_sigma)
    # the entropy bound's tolerance is positive only on paths longer than
    # half the brackets' order
    n = s.bracket_path_len
    order = model.order
    _require(2 * n > order, "bracket_path_len", f"above half the model's order {order}", n)
    r = max(order, 1)  # the order _bracket runs both parts at
    _mirror("bracket_beta", check_envelopes, stationary_block_law(model, r), s.bracket_beta)
    _mirror("bracket_sigma", count_pitch, model.m, r, n, s.bracket_sigma, s.eta)
    # one path past the budget names its length, the paths together their number
    _mirror("bracket_path_len", bracket_path_bytes, model.m, r, 1, n)
    _mirror("bracket_paths", bracket_path_bytes, model.m, r, s.bracket_paths, n)
    _mirror("bracket_samples", bracket_sample_bytes, model.m ** (r + 1), s.bracket_samples)


def _bracket(config, model, candidate):
    from . import diagnostics as dg

    s = config.verify
    # the brackets' order must reach the declared one, to which the
    # truth's kernel table is lifted
    r = max(model.order, 1)
    battery = dg.bracket_battery(
        model, s.bracket_kernels, s.bracket_paths, s.bracket_path_len, s.bracket_beta, r,
        rng.derive_seed(config.seed, 104),
    )
    count = dg.bracket_count_check(
        model, r, s.bracket_sigma, s.bracket_path_len, s.bracket_samples,
        rng.derive_seed(config.seed, 105), eta=s.eta,
    )
    detail = {"battery": _detail(battery, "passed"), "count": _detail(count, "passed")}
    return battery.passed and count.passed, detail, None


def _deviation_settings(s, model, candidate) -> None:
    from .diagnostics.mc import DEVIATION_EPS, deviation_lane_cells

    r, r_true = s.deviation_r, true_order(model)
    _require(r > r_true, "deviation_r", f"above the model's true order {r_true}", r)
    half = s.deviation_n // 2
    _require(s.rho <= half, "rho", f"at most verify.deviation_n / 2 = {half}", s.rho)
    _require_table(model.m, r + 1, "deviation_r", r)
    _require_table(model.m, s.rho - 1, "rho", s.rho)
    # past r + 1 symbols, rho's typicality window is a lane's largest table
    key = "rho" if s.rho - 1 > r + 1 else "deviation_r"
    _mirror(key, deviation_lane_cells, model.m, r, s.rho, s.deviation_replications)
    count = s.deviation_eps_count
    _require(count <= DEVIATION_EPS, "deviation_eps_count", f"at most {DEVIATION_EPS}", count)


def _deviation(config, model, candidate):
    from . import diagnostics as dg

    s = config.verify
    eps = np.linspace(0.0, s.deviation_eps_max, s.deviation_eps_count)
    report = dg.deviation_tail_mc(
        model, s.deviation_r, s.deviation_n, eps, s.deviation_replications, s.eta, s.rho,
        rng.derive_seed(config.seed, 106),
    )
    rows = [(row.eps, row.frequency) for row in report.rows]
    return bool(report.slope < 0.0), _detail(report), rows


def _lil_settings(s, model, candidate) -> None:
    first, last = s.lil_checkpoints[0], s.lil_checkpoints[-1]
    _require(first >= 16, "lil_checkpoints", "16 or more at the first checkpoint", first)
    # the path is sampled straight into its counts, so nothing else bounds its length
    _require(last < 2**48, "lil_checkpoints", "below 2**48 at the last checkpoint", last)


def _lil(config, model, candidate):
    from . import diagnostics as dg

    s = config.verify
    r_star = true_order(model)
    rows = []
    slopes = []
    for i in range(s.lil_seeds):
        report = dg.lil_trajectory(
            model, s.lil_checkpoints, r_star, config.cutoff, rng.derive_seed(config.seed, 1000 + i)
        )
        slopes.append(report.slope)
        rows.extend((i, p.n, p.kappa, p.value, p.normalized) for p in report.points)
    mean_slope = float(np.mean(slopes))
    return bool(mean_slope <= 0.01), {"mean_slope": mean_slope, "seeds": s.lil_seeds}, rows


def _typicality_settings(s, model, candidate) -> None:
    from .diagnostics.mc import typicality_lane_bytes

    small, large = s.typicality_n_small, s.typicality_n_large
    _require(
        small < large, "typicality_n_small", f"below verify.typicality_n_large = {large}", small
    )
    # the typicality event reads depths below rho of the shorter path
    _require(s.rho < small, "rho", f"below verify.typicality_n_small = {small}", s.rho)
    _require_table(model.m, s.rho - 1, "rho", s.rho)
    _mirror("typicality_n_large", typicality_lane_bytes, model.m, s.rho, large)


def _typicality(config, model, candidate):
    from . import diagnostics as dg

    s = config.verify
    report = dg.typicality_trend(
        model, s.eta, s.rho, s.typicality_n_small, s.typicality_n_large, s.typicality_seeds,
        rng.derive_seed(config.seed, 107),
    )
    return report.improving, _detail(report, "improving"), None


CHECKS = (
    CheckSpec("norm-bound", True, _any_settings, _norm_bound, reads_law=False),
    CheckSpec("hellinger-sandwich", True, _sandwich_settings, _sandwich, reads_law=False),
    CheckSpec(
        "bernstein", True, _bernstein_settings, _bernstein,
        ("bernstein.csv", ("alpha", "empirical", "bound", "margin", "passed")),
    ),
    CheckSpec("bracket", True, _bracket_settings, _bracket),
    CheckSpec(
        "deviation", False, _deviation_settings, _deviation,
        ("deviation.csv", ("eps", "frequency")),
    ),
    CheckSpec(
        "lil", False, _lil_settings, _lil,
        ("lil.csv", ("seed_index", "n", "kappa", "value", "normalized")),
    ),
    CheckSpec("typicality", False, _typicality_settings, _typicality),
)
