"""Experiment configuration files.

INI-style key/value sections parsed with the standard library; the full
grammar with defaults is documented in the README.  Field errors raise
ConfigError naming the offending section.key.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from functools import partial

from .checks import CHECKS
from .penalty import CutoffSpec, PenaltySpec, parse_cutoff, parse_penalty


class ConfigError(ValueError):
    """A config field is missing, malformed, or violates an invariant."""


@dataclass
class VerifySettings:
    """The ``[verify]`` section.  Every key other than ``checks`` and
    ``candidate_file`` is parsed by the type of its default here."""

    checks: tuple[str, ...] = ()
    eta: float = 0.5
    rho: int = 3
    instances: int = 50
    sandwich_n: int = 256
    bernstein_replications: int = 10**4
    bernstein_n: int = 128
    bernstein_r: int = 1
    deviation_replications: int = 10**4
    deviation_n: int = 64
    deviation_r: int = 2
    deviation_eps_max: float = 8.0
    deviation_eps_count: int = 9
    lil_checkpoints: tuple[int, ...] = (1024, 4096, 16384)
    lil_seeds: int = 3
    typicality_n_small: int = 1024
    typicality_n_large: int = 16384
    typicality_seeds: int = 20
    bracket_beta: float = 0.05
    bracket_kernels: int = 20
    bracket_paths: int = 10
    bracket_path_len: int = 128
    bracket_sigma: float = 0.01
    bracket_samples: int = 500
    candidate_file: str | None = None


@dataclass
class ExperimentConfig:
    model_file: str
    n_grid: tuple[int, ...]
    penalty: PenaltySpec
    penalties: tuple[PenaltySpec, ...]
    cutoff: CutoffSpec
    replications: int
    seed: int
    jobs: int
    out_dir: str
    verify: VerifySettings


KNOWN_CHECKS = tuple(spec.name for spec in CHECKS)


def _get(parser, section, key, default=None, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if required:
        raise ConfigError(f"{section}.{key}: required field is missing")
    return default


def _parse_int(section, key, raw, minimum=None):
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{section}.{key}: must be >= {minimum}, got {value}")
    return value


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}")
    return value


def _parse_int_list(section, key, raw, increasing=False):
    try:
        values = tuple(int(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected whitespace-separated integers")
    if not values:
        raise ConfigError(f"{section}.{key}: must be nonempty")
    if increasing and any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{section}.{key}: must be strictly increasing")
    return values


def _existing_file(config_path, key, raw):
    """``raw`` resolved against the config file's directory (an absolute
    path stays as it is); it must name an existing file."""
    resolved = os.path.join(os.path.dirname(os.path.abspath(config_path)), raw)
    if not os.path.exists(resolved):
        raise ConfigError(f"{key}: no such file: {resolved}")
    return resolved


# parser per type of a VerifySettings default: floats, integers of at least
# 1, and strictly increasing integer lists
_VERIFY_PARSERS = {
    float: _parse_float,
    int: partial(_parse_int, minimum=1),
    tuple: partial(_parse_int_list, increasing=True),
}


# every key load_config reads, by section
KNOWN_KEYS = {
    "model": ("file",),
    "experiment": ("n_grid", "replications", "seed", "jobs", "out"),
    "penalty": ("spec", "specs"),
    "cutoff": ("spec",),
    "verify": tuple(setting.name for setting in fields(VerifySettings)),
}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file; a section or key that is
    not read here is rejected."""
    # no interpolation, so a "%" is taken as written; no default section, so
    # "[DEFAULT]" is an unknown section like any other ("[]" is no header)
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
    )
    with open(path) as fh:  # OSError propagates to the CLI as an IO failure
        try:
            parser.read_file(fh)
        except configparser.DuplicateOptionError as exc:
            raise ConfigError(f"{exc.section}.{exc.option}: repeated on line {exc.lineno}")
        except configparser.Error as exc:  # a repeated section, a line outside a section
            raise ConfigError(str(exc))
    for section in parser.sections():
        known = KNOWN_KEYS.get(section)
        if known is None:
            raise ConfigError(f"[{section}]: unknown section; known: {', '.join(KNOWN_KEYS)}")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key; known: {', '.join(known)}")

    model_file = _existing_file(path, "model.file", _get(parser, "model", "file", required=True))

    n_grid = _parse_int_list(
        "experiment", "n_grid", _get(parser, "experiment", "n_grid", required=True),
        increasing=True,
    )
    if n_grid[0] < 1:
        raise ConfigError(f"experiment.n_grid: path lengths must be >= 1, got {n_grid[0]}")
    # 2**48 one-byte symbols pass what an address space holds; a path is
    # sampled straight into its counts, so nothing else would stop the run
    if n_grid[-1] >= 2**48:
        raise ConfigError(f"experiment.n_grid: path lengths must be below 2**48, got {n_grid[-1]}")
    replications = _parse_int(
        "experiment", "replications",
        _get(parser, "experiment", "replications", "1"), minimum=1,
    )
    # simulate derives every replication's seed in one array, 8 bytes each
    if replications > 2**24:
        raise ConfigError(f"experiment.replications: must be at most 2**24, got {replications}")
    seed = _parse_int("experiment", "seed", _get(parser, "experiment", "seed", "0"))
    jobs = _parse_int("experiment", "jobs", _get(parser, "experiment", "jobs", "1"), minimum=1)
    out_dir = _get(parser, "experiment", "out", "out")

    try:
        pen = parse_penalty(_get(parser, "penalty", "spec", "loglog C=5"))
    except ValueError as exc:
        raise ConfigError(f"penalty.spec: {exc}")
    pens_raw = _get(parser, "penalty", "specs")
    penalties = ()
    if pens_raw:
        try:
            penalties = tuple(parse_penalty(tok) for tok in pens_raw.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"penalty.specs: {exc}")
    try:
        cutoff = parse_cutoff(_get(parser, "cutoff", "spec", "sublog"))
    except ValueError as exc:
        raise ConfigError(f"cutoff.spec: {exc}")

    verify = VerifySettings()
    if parser.has_section("verify"):
        checks_raw = _get(parser, "verify", "checks", "")
        checks = tuple(tok for tok in checks_raw.split())
        for check in checks:
            if check not in KNOWN_CHECKS:
                raise ConfigError(
                    f"verify.checks: unknown check {check!r}; known: {', '.join(KNOWN_CHECKS)}"
                )
        verify.checks = checks
        for setting in fields(VerifySettings):
            raw = _get(parser, "verify", setting.name)
            if raw is not None and setting.name not in ("checks", "candidate_file"):
                parse = _VERIFY_PARSERS[type(setting.default)]
                setattr(verify, setting.name, parse("verify", setting.name, raw))
        raw = _get(parser, "verify", "candidate_file")
        if raw is not None:
            verify.candidate_file = _existing_file(path, "verify.candidate_file", raw)
        if not 0.0 < verify.eta < 1.0:
            raise ConfigError("verify.eta: must lie in (0, 1)")

    return ExperimentConfig(
        model_file=model_file,
        n_grid=n_grid,
        penalty=pen,
        penalties=penalties,
        cutoff=cutoff,
        replications=replications,
        seed=seed,
        jobs=jobs,
        out_dir=out_dir,
        verify=verify,
    )
