"""Penalty and cutoff families for the penalized-likelihood estimator.

Penalties (natural log throughout):

* ``loglog``:  C * m**r * log log n, consistent once C exceeds twice the
  alphabet size when an order bound is imposed; default C = 2m + 1.
* ``bic``:     (1/2) * m**r * (m - 1) * log n.
* ``csiszar``: c * m**r * log n, consistent for every c > 0 without a cutoff.
* ``loglogf``: m**r * f(n) * log log n for a user-supplied f.
* ``custom``:  explicit (n, r) -> value table.

Cutoffs bound the orders searched at sample size n; every cutoff is
additionally capped at floor(log n / log m), the depth beyond which
per-sample likelihood gains are bounded and count tables are empty anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

N_MIN = 3
LOGLOG_CLAMP_N = math.exp(math.e)  # ~15.15, where log log n reaches 1


def _loglog(n: float) -> float:
    # clamp just below 16 so small-n penalties never go negative
    return math.log(math.log(max(float(n), LOGLOG_CLAMP_N)))


def default_loglog_constant(m: int) -> float:
    """Smallest integer margin above twice the alphabet size."""
    return 2.0 * m + 1.0


@dataclass(frozen=True)
class LogLogPenalty:
    C: float

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("loglog constant C must be > 0")

    def value(self, n: float, r: int, m: int) -> float:
        return self.C * m**r * _loglog(n)

    def describe(self) -> str:
        return f"loglog(C={self.C:g})"


@dataclass(frozen=True)
class LogLogFPenalty:
    f: Callable[[float], float]
    label: str = "f"

    def value(self, n: float, r: int, m: int) -> float:
        return m**r * float(self.f(n)) * _loglog(n)

    def describe(self) -> str:
        return f"loglogf({self.label})"


@dataclass(frozen=True)
class BICPenalty:
    def value(self, n: float, r: int, m: int) -> float:
        return 0.5 * m**r * (m - 1) * math.log(n)

    def describe(self) -> str:
        return "bic"


@dataclass(frozen=True)
class CsiszarPenalty:
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("csiszar constant c must be > 0")

    def value(self, n: float, r: int, m: int) -> float:
        return self.c * m**r * math.log(n)

    def describe(self) -> str:
        return f"csiszar(c={self.c:g})"


@dataclass(frozen=True)
class CustomPenalty:
    table: Mapping[tuple[int, int], float]
    label: str = "custom"

    def __post_init__(self):
        if any(v < 0 for v in self.table.values()):
            raise ValueError("custom penalty table must be nonnegative")

    def value(self, n: float, r: int, m: int) -> float:
        try:
            return float(self.table[(int(n), int(r))])
        except KeyError:
            raise ValueError(f"custom penalty has no entry for (n={n}, r={r})")

    def describe(self) -> str:
        return self.label


PenaltySpec = LogLogPenalty | LogLogFPenalty | BICPenalty | CsiszarPenalty | CustomPenalty


def penalty_value(spec: PenaltySpec, n: float, r: int, m: int) -> float:
    """pen(n, r) for the given family; requires n >= 3."""
    if n < N_MIN:
        raise ValueError(f"penalties need n >= {N_MIN}, got {n}")
    if r < 0:
        raise ValueError("order must be nonnegative")
    return spec.value(n, r, m)


def implied_f(spec: PenaltySpec, n: float, m: int) -> float:
    """The factor f(n) when the penalty is written m**r * f(n) * log log n."""
    return penalty_value(spec, n, 0, m) / _loglog(n)


# -- cutoffs ----------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCutoff:
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("constant cutoff must be >= 1")

    def raw(self, n: float, m: int) -> float:
        return float(self.K)

    def describe(self) -> str:
        return f"constant(K={self.K})"


@dataclass(frozen=True)
class AlphaLogCutoff:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")

    def raw(self, n: float, m: int) -> float:
        return self.alpha * math.log(n)  # floored by cutoff_value

    def describe(self) -> str:
        return f"alphalog(alpha={self.alpha:g})"


@dataclass(frozen=True)
class SubLogCutoff:
    """ceil(log n / log log n): grows without bound but is o(log n)."""

    def raw(self, n: float, m: int) -> float:
        return math.ceil(math.log(n) / math.log(math.log(max(n, LOGLOG_CLAMP_N))))

    def describe(self) -> str:
        return "sublog"


CutoffSpec = ConstantCutoff | AlphaLogCutoff | SubLogCutoff


def cutoff_value(spec: CutoffSpec, n: float, m: int) -> int:
    """kappa(n): the number of orders searched (estimator scans r < kappa)."""
    if n < N_MIN:
        raise ValueError(f"cutoffs need n >= {N_MIN}, got {n}")
    value = min(spec.raw(n, m), math.floor(math.log(n) / math.log(m)))
    return max(int(value), 1)


@dataclass(frozen=True)
class CorollaryReport:
    """Numeric check of the consistency conditions on a finite grid."""

    n_grid: tuple[int, ...]
    f_values: tuple[float, ...]
    ratio_values: tuple[float, ...]  # f(n) log log n / n
    kappa_values: tuple[int, ...]
    liminf_ok: bool
    ratio_ok: bool
    kappa_nondecreasing: bool
    kappa_bound_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.liminf_ok
            and self.ratio_ok
            and self.kappa_nondecreasing
            and self.kappa_bound_ok
        )


def corollary_conditions_check(
    pen: PenaltySpec,
    cut: CutoffSpec,
    f_floor: float,
    kappa_slope: float,
    n_grid,
    m: int,
) -> CorollaryReport:
    """Evaluate the penalty/cutoff consistency conditions on an n grid.

    Checks, numerically: the implied f(n) stays at or above f_floor (the
    corollary's C*) on the upper half of the grid; f(n) log log n / n
    decreases along the grid and falls below 1e-3 at the top; kappa is
    nondecreasing; and kappa(n) <= kappa_slope * log n (its alpha*) everywhere.
    """
    grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n grid must be strictly increasing")
    f_vals = [implied_f(pen, n, m) for n in grid]
    ratios = [f * _loglog(n) / n for f, n in zip(f_vals, grid)]
    kappas = [cutoff_value(cut, n, m) for n in grid]
    tail = f_vals[len(f_vals) // 2 :]
    liminf_ok = all(f >= f_floor - 1e-12 for f in tail)
    ratio_ok = (
        all(b <= a + 1e-15 for a, b in zip(ratios, ratios[1:]))
        and ratios[-1] < 1e-3
    )
    nondec = all(b >= a for a, b in zip(kappas, kappas[1:]))
    bound_ok = all(k <= kappa_slope * math.log(n) for k, n in zip(kappas, grid))
    return CorollaryReport(
        tuple(grid),
        tuple(f_vals),
        tuple(ratios),
        tuple(kappas),
        liminf_ok,
        ratio_ok,
        nondec,
        bound_ok,
    )


# -- spec strings used by config files and CSV columns ----------------------


PENALTY_PARAMS = {"loglog": ("C",), "bic": (), "csiszar": ("c",)}
CUTOFF_PARAMS = {"sublog": (), "constant": ("K",), "alphalog": ("alpha",)}


def _parse_spec(kind: str, text: str, families) -> tuple[str, dict[str, str]]:
    """Split ``family name=value ...`` into the family and its parameters,
    each of which ``families[family]`` must name, and at most once."""
    parts = text.strip().split()
    if not parts:
        raise ValueError(f"empty {kind} spec")
    name, args = parts[0].lower(), {}
    if name not in families:
        raise ValueError(f"unknown {kind} family: {name!r}")
    for token in parts[1:]:
        key, sep, value = token.partition("=")
        if not (key and sep and value):
            raise ValueError(f"{name} {kind}: malformed parameter {token!r}, expected name=value")
        if key not in families[name]:
            known = ", ".join(families[name]) or "none"
            raise ValueError(f"{name} {kind}: unknown parameter {key!r}; known: {known}")
        if key in args:
            raise ValueError(f"{name} {kind}: parameter {key!r} given twice")
        args[key] = value
    return name, args


def _param(kind: str, name: str, args: dict[str, str], key: str, cast):
    if key not in args:
        raise ValueError(f"{name} {kind} needs {key}=<value>")
    try:
        value = cast(args[key])
    except ValueError:
        raise ValueError(f"{name} {kind}: expected {cast.__name__} {key}, got {args[key]!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} {kind}: {key} must be finite, got {args[key]!r}")
    return value


def parse_penalty(text: str) -> PenaltySpec:
    """Parse a penalty spec string: ``loglog C=5``, ``bic``, ``csiszar c=1``."""
    name, args = _parse_spec("penalty", text, PENALTY_PARAMS)
    if name == "loglog":
        return LogLogPenalty(C=_param("penalty", name, args, "C", float))
    if name == "bic":
        return BICPenalty()
    return CsiszarPenalty(c=_param("penalty", name, args, "c", float))


def parse_cutoff(text: str) -> CutoffSpec:
    """Parse a cutoff spec string: ``sublog``, ``constant K=3``, ``alphalog alpha=0.2``."""
    name, args = _parse_spec("cutoff", text, CUTOFF_PARAMS)
    if name == "sublog":
        return SubLogCutoff()
    if name == "constant":
        return ConstantCutoff(K=_param("cutoff", name, args, "K", int))
    return AlphaLogCutoff(alpha=_param("cutoff", name, args, "alpha", float))
