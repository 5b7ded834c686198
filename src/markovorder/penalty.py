"""Penalty and cutoff families for the penalized-likelihood estimator.

Penalties (natural log throughout):

* ``loglog``:  C * m**r * log log n, consistent once C exceeds twice the
  alphabet size when an order bound is imposed.
* ``bic``:     (1/2) * m**r * (m - 1) * log n.
* ``csiszar``: c * m**r * log n, consistent for every c > 0 without a cutoff.

Cutoffs bound the orders searched at sample size n; every cutoff is
additionally capped at floor(log n / log m), the depth beyond which
per-sample likelihood gains are bounded and count tables are empty anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

N_MIN = 3
LOGLOG_CLAMP_N = math.exp(math.e)  # ~15.15, where log log n reaches 1


def _loglog(n: float) -> float:
    # clamp just below 16 so small-n penalties never go negative
    return math.log(math.log(max(float(n), LOGLOG_CLAMP_N)))


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


PenaltySpec = LogLogPenalty | BICPenalty | CsiszarPenalty


def penalty_value(spec: PenaltySpec, n: float, r: int, m: int) -> float:
    """pen(n, r) for the given family; requires n >= 3."""
    if n < N_MIN:
        raise ValueError(f"penalties need n >= {N_MIN}, got {n}")
    if r < 0:
        raise ValueError("order must be nonnegative")
    return spec.value(n, r, m)


# -- cutoffs ----------------------------------------------------------------


@dataclass(frozen=True)
class ConstantCutoff:
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("constant cutoff must be >= 1")

    def raw(self, n: float, m: int) -> float:
        return self.K

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
        finite = math.isfinite(value)
    except ValueError:
        raise ValueError(f"{name} {kind}: expected {cast.__name__} {key}, got {args[key]!r}")
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} {kind}: {key} is too large, got {args[key]!r}")
    if not finite:
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
