"""Command-line front end: simulate, estimate, sweep, verify.

Every command is a deterministic function of (config file, master seed):
outputs carry no timestamps, floats are printed with 12 significant
digits, and replication ordering is by index regardless of --jobs.

Exit codes: 0 success, 1 config/validation/check failure, 2 IO failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .estimator import evaluate_replications, recovery_summary
from .likelihood import mixture_kernel
from .model import MarkovModel, read_model_file, sample_paths, true_order
from .rng import derive_seed

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
# simulate samples its replications together, as many per sample_paths
# call as this many bytes of int64 symbols hold (at least one): a lone
# lane's blocks are short, and each runs at full width until its start
# columns couple
SIMULATE_BATCH_BYTES = 2 << 20


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _round_floats(obj):
    """Floats to 12 significant digits; non-finite floats, which JSON cannot
    hold, to None (written as null)."""
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and rename it into place,
    so ``path`` never holds a partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path, payload) -> None:
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(path, (text + "\n").encode())


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, buf.getvalue().encode())


def _path_filename(replication: int) -> str:
    return f"path_{replication:05d}.txt"


# Path files hold the symbols on one line, in decimal, separated by single
# spaces.  One routine each way covers every alphabet size; neither builds
# an array of byte positions, and every temporary the size of the line is
# one byte per byte.
def _encode_symbols(symbols: np.ndarray, m: int) -> bytes:
    """The symbols as ``" ".join(str(s) for s in symbols)``, in bytes.

    Each symbol becomes its record of ``w + 1`` bytes, w the width of m - 1:
    NUL padding, its digits and a space; dropping the NULs and the last
    space leaves the line.
    """
    w = len(str(m - 1))
    records = "".join(str(s).rjust(w, "\0") + " " for s in range(m)).encode()
    flat = np.take(np.frombuffer(records, np.uint8).reshape(m, w + 1), symbols, axis=0).ravel()
    return flat[flat != 0][:-1].tobytes()


def _decode_symbols(source, text: bytes, m: int) -> np.ndarray:
    """Inverse of ``_encode_symbols``; rejects, naming ``source``, any text
    that encoding a path over ``m`` symbols cannot produce."""
    if not text:
        return np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(text, dtype=np.uint8)
    code = raw - np.uint8(ord("0"))
    space = raw == ord(" ")
    digits = np.count_nonzero(code <= 9)
    if digits + np.count_nonzero(space) != raw.size:
        at = int(np.argmax((code > 9) & ~space))
        raise ConfigError(
            f"{source}: symbols: byte {text[at:at + 1]!r} at offset {at} "
            "is not a digit or a space"
        )
    # last: the byte ends a symbol (it precedes a space or ends the line);
    # a symbol is empty where a space leads the line or ends a symbol
    last = np.empty_like(space)
    last[:-1] = space[1:]
    last[-1] = True
    empty = space & last
    if space[0] or empty.any():
        at = 0 if space[0] else np.count_nonzero(space[:np.argmax(empty) + 1])
        raise ConfigError(
            f"{source}: symbols: symbol {at} is empty "
            "(a leading, trailing or repeated space)"
        )
    # digit k of a symbol lies k bytes before its last byte, if the bytes
    # between are digits too; w digits hold every symbol below m
    w = len(str(m - 1))
    symbols = np.compress(last, code).astype(np.int64)
    more = True
    for k in range(1, w):
        # the first `head` symbols end before byte k: no digit k
        head = np.count_nonzero(last[:k])
        digit = np.append(np.full(head, 255, np.uint8), np.compress(last[k:], code[:-k]))
        more &= digit <= 9
        symbols += np.where(more, digit, 0).astype(np.int64) * 10**k
    # a symbol takes at least as many digits on the line as its decimal
    # form, and more with a leading zero or a digit past the w-th; so all
    # are written in that form exactly when the form widths (1 plus the
    # number of k >= 1 with 10**k <= s) add up to the digits on the line
    width_sum = symbols.size + sum(np.count_nonzero(symbols >= 10**k) for k in range(1, w))
    if symbols.max() >= m or width_sum != digits:
        at, token = next(
            (i, t) for i, t in enumerate(text.split(b" "))
            if len(t) > w or int(t) >= m or t != b"%d" % int(t)
        )
        raise ConfigError(
            f"{source}: symbol {at} is {token.decode()!r}, not one of 0..{m - 1} in decimal"
        )
    return symbols


def _write_path_file(path, symbols, m: int, seed: int) -> None:
    symbols = np.asarray(symbols, dtype=np.int64)
    header = f"alphabet_size: {m}\nn: {symbols.shape[0]}\nseed: {seed}\nsymbols: "
    _write_atomic(path, b"".join((header.encode(), _encode_symbols(symbols, m), b"\n")))


def _check_run_fields(source, fields: dict, expected: dict) -> None:
    """Reject a manifest or path file written by another run, naming the
    field; an expected type (say ``str``) only requires a value of that type,
    and an expected value requires that value, of its type."""
    for key, value in expected.items():
        if key not in fields:
            raise ConfigError(f"{source}: the {key} field is missing")
        if isinstance(value, type):
            if not isinstance(fields[key], value):
                raise ConfigError(f"{source}: {key} is {fields[key]!r}, not a {value.__name__}")
        elif type(fields[key]) is not type(value) or fields[key] != value:
            raise ConfigError(f"{source}: {key} is {fields[key]!r}, this run has {value!r}")


def _read_path_file(path, m: int, seed: int, n_max: int) -> np.ndarray:
    """Symbols of a path file, checked against the run that reads it."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    fields = {}
    for line in lines:
        key, _, rest = line.partition(b":")
        key = key.strip().decode("latin-1")
        # the symbols payload stays bytes, as _decode_symbols reads it
        fields[key] = rest if key == "symbols" else rest.strip().decode("latin-1")
    _check_run_fields(
        path, fields,
        {"alphabet_size": str(m), "n": str, "seed": str(seed), "symbols": bytes},
    )
    if not fields["symbols"].startswith(b" "):
        raise ConfigError(f"{path}: symbols: no space after 'symbols:'")
    symbols = _decode_symbols(path, fields["symbols"][1:], m)
    if fields["n"] != str(symbols.shape[0]):
        raise ConfigError(
            f"{path}: n is {fields['n']!r}, the symbols line holds {symbols.shape[0]}"
        )
    if symbols.shape[0] < n_max:
        raise ConfigError(
            f"experiment.n_grid: stored path {path} has "
            f"{symbols.shape[0]} symbols, grid needs {n_max}"
        )
    return symbols


def _replication_tasks(config: ExperimentConfig, model: MarkovModel):
    """(replication, seed, path file or None) per replication: the simulate
    output when its manifest is in the output directory, inline sampling
    otherwise."""
    manifest_file = os.path.join(config.out_dir, "manifest.json")
    if not os.path.exists(manifest_file):
        return [(i, derive_seed(config.seed, i), None) for i in range(config.replications)]
    with open(manifest_file) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{manifest_file}: not a JSON file: {exc}")
    _check_run_fields(
        manifest_file,
        manifest if isinstance(manifest, dict) else {},
        {
            "master_seed": config.seed,
            "model_label": model.label(),
            "replications": config.replications,
            "paths": list,
        },
    )
    if len(manifest["paths"]) != config.replications:
        raise ConfigError(
            f"{manifest_file}: paths holds {len(manifest['paths'])} entries, "
            f"this run has {config.replications} replications"
        )
    for j, entry in enumerate(manifest["paths"]):
        _check_run_fields(
            f"{manifest_file} paths[{j}]",
            entry if isinstance(entry, dict) else {},
            {"replication": j, "seed": derive_seed(config.seed, j), "file": str},
        )
        name = entry["file"]
        # a path file lies in the output directory: a plain file name only
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigError(
                f"{manifest_file} paths[{j}]: file is {name!r}, not a file name "
                "in the output directory"
            )
    return [
        (entry["replication"], entry["seed"], os.path.join(config.out_dir, entry["file"]))
        for entry in manifest["paths"]
    ]


def cmd_simulate(config: ExperimentConfig) -> int:
    model = read_model_file(config.model_file)
    os.makedirs(config.out_dir, exist_ok=True)
    # the manifest is removed first and written last, so a run cut short
    # never leaves one naming missing path files or those of another run
    manifest_file = os.path.join(config.out_dir, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_file)
    n_max = max(config.n_grid)
    seeds = derive_seed(config.seed, np.arange(config.replications))
    batch = max(1, SIMULATE_BATCH_BYTES // (8 * n_max))
    entries = []
    for first in range(0, config.replications, batch):
        paths = sample_paths(model, n_max, seeds[first:first + batch])
        for i, symbols in enumerate(paths, start=first):
            seed, filename = int(seeds[i]), _path_filename(i)
            _write_path_file(os.path.join(config.out_dir, filename), symbols, model.m, seed)
            entries.append({"replication": i, "seed": seed, "file": filename})
        del paths, symbols  # free this batch before sampling the next
    _write_json(
        manifest_file,
        {
            "command": "simulate",
            "master_seed": config.seed,
            "model_file": os.path.basename(config.model_file),
            "model_label": model.label(),
            "n": n_max,
            "replications": config.replications,
            "paths": entries,
        },
    )
    return EXIT_OK


ESTIMATE_HEADER = (
    "n", "penalty", "cutoff", "replication", "chosen_order", "true_order",
    "lil_stat", "seed",
)
SCORES_HEADER = ("n", "replication", "r", "loglik", "penalty_value", "score")
RECOVERY_HEADER = ("n", "penalty", "cutoff", "replications", "recovery", "under", "over")


def _estimate_tables(config: ExperimentConfig, pens):
    """Score every penalty in one pass over each replication's path.

    Returns the sweep tables (estimates, scores, recovery), penalty first;
    rows run by penalty as configured, then replication, then n.
    """
    model = read_model_file(config.model_file)
    os.makedirs(config.out_dir, exist_ok=True)
    r_star = true_order(model)
    cutoff = config.cutoff.describe()
    per_rep = evaluate_replications(
        model, pens, config.cutoff, config.n_grid,
        _replication_tasks(config, model), config.jobs, load=_read_path_file,
    )
    est, scores, recovery = [], [], []
    for p, pen in enumerate(pens):
        label = pen.describe()
        rows = [row for rep in per_rep for row in rep[p]]
        est += [
            (label, row.n, cutoff, row.replication, row.chosen_order, r_star,
             row.lil_stat, row.seed)
            for row in rows
        ]
        scores += [
            (label, row.n, row.replication, s.order, s.loglik, s.penalty, s.score)
            for row in rows
            for s in row.table
        ]
        recovery += [
            (label, s.n, cutoff, len(per_rep), s.recovery, s.under, s.over)
            for s in recovery_summary(rows, config.n_grid, r_star)
        ]
    return est, scores, recovery


def _swap_first(row):
    return (row[1], row[0]) + row[2:]


def cmd_estimate(config: ExperimentConfig) -> int:
    est, scores, recovery = _estimate_tables(config, (config.penalty,))
    out = config.out_dir
    _write_csv(os.path.join(out, "estimates.csv"), ESTIMATE_HEADER, map(_swap_first, est))
    _write_csv(os.path.join(out, "scores.csv"), SCORES_HEADER, (row[1:] for row in scores))
    _write_csv(os.path.join(out, "recovery.csv"), RECOVERY_HEADER, map(_swap_first, recovery))
    return EXIT_OK


def cmd_sweep(config: ExperimentConfig) -> int:
    if len(config.penalties) < 2:
        raise ConfigError("penalty.specs: a sweep needs at least two penalties")
    est, scores, recovery = _estimate_tables(config, config.penalties)
    out = config.out_dir
    _write_csv(os.path.join(out, "sweep.csv"), _swap_first(ESTIMATE_HEADER), est)
    _write_csv(os.path.join(out, "sweep_scores.csv"), ("penalty",) + SCORES_HEADER, scores)
    _write_csv(os.path.join(out, "sweep_recovery.csv"), _swap_first(RECOVERY_HEADER), recovery)
    return EXIT_OK


def _default_candidate(truth: MarkovModel) -> MarkovModel:
    """Comparison kernel used when the config names none: the truth shifted
    3/10 of the way toward the uniform kernel."""
    uniform = np.full_like(truth.kernel, 1.0 / truth.m)
    return MarkovModel(0.7 * truth.kernel + 0.3 * uniform)


def cmd_verify(config: ExperimentConfig) -> int:
    from . import diagnostics as dg

    settings = config.verify
    if not settings.checks:
        raise ConfigError("verify.checks: select at least one check")
    model = read_model_file(config.model_file)
    os.makedirs(config.out_dir, exist_ok=True)
    seed = config.seed
    checks = []
    grids = {}

    for name in settings.checks:
        if name == "norm-bound":
            report = dg.norm_bound_battery(settings.instances, derive_seed(seed, 101))
            checks.append(_check_entry(name, True, report.passed, _detail(report, "passed")))
        elif name == "hellinger-sandwich":
            report = dg.hellinger_sandwich_battery(
                settings.instances,
                settings.eta,
                settings.sandwich_n,
                settings.rho,
                derive_seed(seed, 102),
            )
            checks.append(_check_entry(name, True, report.passed, _detail(report, "passed")))
        elif name == "bernstein":
            candidate = (
                read_model_file(settings.candidate_file)
                if settings.candidate_file
                else _default_candidate(model)
            )
            r = settings.bernstein_r
            h_stat = dg.hellinger_stationary_distance(
                model,
                mixture_kernel(candidate, model, r),
                mixture_kernel(model, model, r),
            )
            cap = 12.0 * (settings.bernstein_n - r) * max(h_stat, 1e-12)
            alphas = np.linspace(0.5 * math.sqrt(cap), 3.0 * math.sqrt(cap), 10)
            report = dg.bernstein_mc_check(
                model,
                candidate,
                r,
                settings.bernstein_n,
                alphas,
                cap,
                settings.bernstein_replications,
                derive_seed(seed, 103),
            )
            checks.append(
                _check_entry(name, True, report.all_passed, _detail(report, "all_passed"))
            )
            grids["bernstein.csv"] = (
                ("alpha", "empirical", "bound", "margin", "passed"),
                [(row.alpha, row.empirical, row.bound, row.margin, row.passed) for row in report.rows],
            )
        elif name == "bracket":
            # the brackets' order must reach the declared one, to which the
            # truth's kernel table is lifted
            r = max(model.order, 1)
            battery = dg.bracket_battery(
                model,
                settings.bracket_kernels,
                settings.bracket_paths,
                settings.bracket_path_len,
                settings.bracket_beta,
                r,
                derive_seed(seed, 104),
            )
            count = dg.bracket_count_check(
                model,
                r,
                settings.bracket_sigma,
                settings.bracket_path_len,
                settings.bracket_samples,
                derive_seed(seed, 105),
                eta=settings.eta,
            )
            passed = battery.passed and count.passed
            checks.append(
                _check_entry(
                    name, True, passed,
                    {"battery": _detail(battery, "passed"), "count": _detail(count, "passed")},
                )
            )
        elif name == "deviation":
            eps = np.linspace(0.0, settings.deviation_eps_max, settings.deviation_eps_count)
            report = dg.deviation_tail_mc(
                model,
                settings.deviation_r,
                settings.deviation_n,
                eps,
                settings.deviation_replications,
                settings.eta,
                settings.rho,
                derive_seed(seed, 106),
            )
            shape_ok = bool(report.slope < 0.0)
            checks.append(_check_entry(name, False, shape_ok, _detail(report)))
            grids["deviation.csv"] = (
                ("eps", "frequency"),
                [(row.eps, row.frequency) for row in report.rows],
            )
        elif name == "lil":
            r_star = true_order(model)
            rows = []
            slopes = []
            for i in range(settings.lil_seeds):
                report = dg.lil_trajectory(
                    model,
                    settings.lil_checkpoints,
                    r_star,
                    config.cutoff,
                    derive_seed(seed, 1000 + i),
                )
                slopes.append(report.slope)
                rows.extend(
                    (i, p.n, p.kappa, p.value, p.normalized) for p in report.points
                )
            mean_slope = float(np.mean(slopes))
            checks.append(
                _check_entry(
                    name,
                    False,
                    bool(mean_slope <= 0.01),
                    {"mean_slope": mean_slope, "seeds": settings.lil_seeds},
                )
            )
            grids["lil.csv"] = (("seed_index", "n", "kappa", "value", "normalized"), rows)
        elif name == "typicality":
            report = dg.typicality_trend(
                model,
                settings.eta,
                settings.rho,
                settings.typicality_n_small,
                settings.typicality_n_large,
                settings.typicality_seeds,
                derive_seed(seed, 107),
            )
            checks.append(
                _check_entry(name, False, report.improving, _detail(report, "improving"))
            )

    all_gating = all(c["passed"] for c in checks if c["gating"])
    _write_json(
        os.path.join(config.out_dir, "verification.json"),
        {"version": 1, "checks": checks, "all_gating_passed": all_gating},
    )
    for filename, (header, rows) in grids.items():
        _write_csv(os.path.join(config.out_dir, filename), header, rows)
    return EXIT_OK if all_gating else EXIT_FAIL


def _check_entry(name, gating, passed, detail) -> dict:
    return {"name": name, "gating": gating, "passed": bool(passed), "detail": detail}


def _detail(report, verdict: str | None = None) -> dict:
    """A check's detail: the report's fields, plus the verdict property of
    the report named by ``verdict``."""
    detail = dataclasses.asdict(report)
    if verdict:
        detail[verdict] = getattr(report, verdict)
    return detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="markovorder",
        description="Penalized-likelihood Markov order estimation and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "estimate", "sweep", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--jobs", type=int, default=None, help="replication parallelism")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.jobs is not None:
            if args.jobs < 1:
                raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
            config.jobs = args.jobs
        if args.out is not None:
            config.out_dir = args.out
        handler = {
            "simulate": cmd_simulate,
            "estimate": cmd_estimate,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
        }[args.command]
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
