"""Command-line front end: simulate, estimate, sweep, verify.

Every command is a deterministic function of (config file, master seed):
outputs carry no timestamps, floats are printed with 12 significant
digits, and replication ordering is by index regardless of --jobs.  Nor
do they depend on the core count or on OPENBLAS_NUM_THREADS: a command
runs BLAS on one thread (below).

Exit codes: 0 success, 1 config/validation/check failure or an array past
memory, 2 IO failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys

# numpy's bundled OpenBLAS starts a thread pool when numpy loads; one
# thread saves each command process about 0.07 s and keeps the dense
# stationary solve's bits off the thread count.  An inherited value is
# overridden, --jobs workers inherit the pin, and a program that loaded
# numpy first keeps its own pool.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from ._contexts import symbol_dtype
from .checks import CHECKS
from .config import ConfigError, ExperimentConfig, load_config
from .model import MarkovModel, sample_paths, stationary_distribution, true_order
from .modelfile import read_model_file
from .penalty import N_MIN
from .rng import derive_seed

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
# simulate samples its replications together, as many per sample_paths
# call as this many bytes of symbol_dtype(m) symbols hold (at least one):
# a lone lane's blocks are short and run at full width until they couple,
# and a 2 MiB batch peaked 0.7 MB higher than 1 MiB at the same speed
SIMULATE_BATCH_BYTES = 1 << 20
# path files are written this many symbols and read this many bytes at a time
ENCODE_CHUNK = 1 << 14
DECODE_CHUNK = 1 << 16


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


def _write_atomic(path, parts) -> None:
    """Write the byte strings ``parts``, in turn, to a temp file beside
    ``path`` and rename it into place, so ``path`` never holds a partial
    file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path, payload) -> None:
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(path, [(text + "\n").encode()])


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, [buf.getvalue().encode()])


def _path_filename(replication: int) -> str:
    return f"path_{replication:05d}.txt"


# Path files hold the symbols on one line, in decimal, separated by single
# spaces.  One routine each way covers every alphabet size; neither builds
# an array of byte positions the size of the line, and every temporary the
# size of the line is one byte per byte.  Files are written and read a
# window of the line at a time, so neither way holds the line whole.
def _encode_symbols(symbols: np.ndarray, m: int) -> bytes:
    """The symbols as ``" ".join(str(s) for s in symbols)``, in bytes.

    Each symbol becomes its record of ``w + 1`` bytes, w the width of m - 1:
    NUL padding, its digits and a space; dropping the NULs and the last
    space leaves the line.  np.take casts the symbols to int64 indices, so
    ``_write_path_file`` hands it ENCODE_CHUNK symbols at a time.
    """
    w = len(str(m - 1))
    table = "".join(str(s).rjust(w, "\0") + " " for s in range(m)).encode()
    table = np.frombuffer(table, np.uint8).reshape(m, w + 1)
    flat = np.take(table, symbols, axis=0).ravel()
    if w > 1:  # one-digit records hold no NUL
        flat = flat[flat != 0]
    return flat[:-1].tobytes()


def _decode_span(code: np.ndarray, space: np.ndarray, m: int):
    """Decode a span of the symbols line cut before a separating space,
    whose bytes are digits and spaces, from its bytes less ord("0") and its
    space mask.  Returns the symbols, in a type that holds 10**w - 1 (w the
    width of m - 1), and the span's first problem of two kinds, each None
    when there is none: the index of an empty symbol (then there are no
    symbols), and the index and token of a symbol not written as one of
    0..m-1 in decimal."""
    if not code.size:  # a cut space followed by a space or the line's end
        return None, 0, None
    # last: the byte ends a symbol (it precedes a space or ends the span);
    # a symbol is empty where a space leads the span or ends a symbol
    last = np.append(space[1:], True)
    empty = space & last
    if space[0] or empty.any():
        at = 0 if space[0] else np.count_nonzero(space[:np.argmax(empty) + 1])
        return None, at, None
    digits = code.size - np.count_nonzero(space)
    del empty
    # digit k of a symbol lies k bytes before its last byte, if the bytes
    # between are digits too; w digits hold every symbol below m.  They
    # add up in a type that holds 10**w - 1, so that a symbol of m or more
    # is still seen (in uint8, 256 would wrap to 0)
    w = len(str(m - 1))
    acc = np.min_scalar_type(10**w - 1)
    # np.compress gathers a 64 KB span in 90 us, a boolean mask in 270 us
    symbols = np.compress(last, code).astype(acc, copy=False)
    more = True
    for k in range(1, w):
        # the first `head` symbols end before byte k: no digit k
        head = np.count_nonzero(last[:k])
        digit = np.append(np.full(head, 255, np.uint8), np.compress(last[k:], code[:-k]))
        more &= digit <= 9
        symbols += np.where(more, digit, np.uint8(0)).astype(acc) * acc.type(10**k)
    # a symbol takes at least as many digits on the line as its decimal
    # form, and more with a leading zero or a digit past the w-th; so all
    # are written in that form exactly when the form widths (1 plus the
    # number of k >= 1 with 10**k <= s) add up to the digits on the line
    width_sum = symbols.size + sum(np.count_nonzero(symbols >= 10**k) for k in range(1, w))
    if symbols.max() < m and width_sum == digits:
        return symbols, None, None
    tokens = (code + np.uint8(ord("0"))).tobytes().split(b" ")
    bad = next(
        i for i, t in enumerate(tokens) if len(t) > w or int(t) >= m or t != b"%d" % int(t)
    )
    return symbols, None, (bad, tokens[bad])


def _decode_line(source, fh, size: int, m: int):
    """Yield the symbols on the next ``size`` bytes of the binary file
    ``fh`` a span at a time, in ``symbol_dtype(m)``, and return how many
    there are; rejects, naming ``source``, any line that encoding a path
    over ``m`` symbols cannot produce.

    One pass reads the line DECODE_CHUNK bytes at a time into one reused
    buffer.  It checks each window's bytes, after those carried over from
    the windows before, then decodes the span up to its last space from the
    same byte codes and space mask; the bytes after that space carry over.
    So every temporary is a few times DECODE_CHUNK bytes.  The first
    problem of the line is reported, with its offset or symbol index on the
    line: a byte that is no digit or space, else an empty symbol, else a
    symbol not written as one of 0..m-1 in decimal; the spans from the first
    such symbol's on are not yielded, and the rest of the line is checked.
    """
    done = 0  # the symbols decoded so far
    empty = None  # the index of the first empty symbol
    wrong = None  # the first symbol not in decimal form: (index, token)
    carry = np.zeros(0, dtype=np.uint8)  # the bytes read after the last cut space
    buf = memoryview(bytearray(DECODE_CHUNK))
    for lo in range(0, size, DECODE_CHUNK):
        window = buf[:fh.readinto(buf[:size - lo])]
        part = np.concatenate([carry, np.frombuffer(window, dtype=np.uint8)])
        code = part - np.uint8(ord("0"))
        space = part == ord(" ")
        foreign = (code > 9) & ~space
        if foreign.any():
            at = int(np.argmax(foreign))
            raise ConfigError(
                f"{source}: symbols: byte {part[at:at + 1].tobytes()!r} at offset "
                f"{lo - carry.size + at} is not a digit or a space"
            )
        cut = part.size  # where the span ends: the line's end or the last space
        if lo + DECODE_CHUNK < size:  # -1 when there is none: the whole part carries over
            cut = part.size - 1 - int(np.argmax(space[::-1])) if space.any() else -1
        # the bytes after the cut carry over, copied so that this window's
        # bytes and the check's mask are freed before the span is decoded
        carry = part[cut + 1:].copy()
        del part, foreign
        if cut >= 0 and empty is None:  # past an empty symbol, only bytes are checked
            span, at, bad = _decode_span(code[:cut], space[:cut], m)
            del code, space  # not held while the span is out
            if at is not None:
                empty = done + at
            else:
                if bad is not None and wrong is None:
                    wrong = (done + bad[0], bad[1])
                if wrong is None:
                    yield span.astype(symbol_dtype(m), copy=False)
                done += span.size
    if empty is not None:
        raise ConfigError(
            f"{source}: symbols: symbol {empty} is empty "
            "(a leading, trailing or repeated space)"
        )
    if wrong is not None:
        raise ConfigError(
            f"{source}: symbol {wrong[0]} is {wrong[1].decode()!r}, "
            f"not one of 0..{m - 1} in decimal"
        )
    return done


def _write_path_file(path, symbols: np.ndarray, m: int, seed: int) -> None:
    """Write the header, then the symbols line ENCODE_CHUNK symbols at a
    time, each run encoded alone, into the temp file that ``_write_atomic``
    renames into place."""
    n = symbols.shape[0]
    header = f"alphabet_size: {m}\nn: {n}\nseed: {seed}\nsymbols: ".encode()
    runs = (
        (b" " if lo else b"") + _encode_symbols(symbols[lo:lo + ENCODE_CHUNK], m)
        for lo in range(0, n, ENCODE_CHUNK)
    )
    _write_atomic(path, itertools.chain([header], runs, [b"\n"]))


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


def _read_path_file(path, m: int, seed: int, n_max: int):
    """Yield the symbols of a path file, checked against the run that
    reads it, a span at a time.

    A first pass reads the file a line, or DECODE_CHUNK bytes of one, at a
    time, and keeps each line's key and value, but of the symbols line only
    where its value starts and ends.  Once the fields check out, the spans
    of ``_decode_line`` over it are yielded, so no path is held whole; the
    ``n:`` field and the grid's length are checked after the last span.
    """
    fields = {}
    # a buffer of a window or more: the first pass reads a window per call
    with open(path, "rb", buffering=max(DECODE_CHUNK, io.DEFAULT_BUFFER_SIZE)) as fh:
        more = True
        while more:  # one line per pass, the last one after the final newline
            line, start, keep = bytearray(), fh.tell(), True
            while True:  # no bytes are kept past a symbols key
                piece = fh.readline(DECODE_CHUNK)  # short only at a newline or the end
                if keep:
                    line += piece
                    colon = line.find(b":")
                    keep = colon < 0 or line[:colon].strip() != b"symbols"
                if piece[-1:] == b"\n" or len(piece) < DECODE_CHUNK:
                    break
            more = piece[-1:] == b"\n"
            cut = len(line) if colon < 0 else colon
            key = line[:cut].strip().decode("latin-1")
            if key == "symbols":  # where its value starts and ends in the file
                fields[key] = (start + cut + 1, fh.tell() - more)
            else:
                fields[key] = line[cut + 1:].strip().decode("latin-1")
        _check_run_fields(
            path, fields,
            {"alphabet_size": str(m), "n": str, "seed": str(seed), "symbols": tuple},
        )
        start, end = fields["symbols"]
        fh.seek(start)
        if start >= end or fh.read(1) != b" ":
            raise ConfigError(f"{path}: symbols: no space after 'symbols:'")
        count = yield from _decode_line(path, fh, end - start - 1, m)
    if fields["n"] != str(count):
        raise ConfigError(f"{path}: n is {fields['n']!r}, the symbols line holds {count}")
    if count < n_max:
        raise ConfigError(
            f"experiment.n_grid: stored path {path} has {count} symbols, grid needs {n_max}"
        )


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


def _read_model(key: str, path) -> MarkovModel:
    """The chain in the model file ``path``, which the config names at
    ``key``; a file that holds none fails naming the key and the file."""
    try:
        return read_model_file(path)
    except ValueError as exc:
        raise ConfigError(f"{key}: {path}: {exc}")


def _resolve_law(model: MarkovModel, path, stationary: bool = False) -> None:
    """Resolve, once, the initial law the sampler reads or, with
    ``stationary``, the stationary law the checks read; one that cannot be
    solved fails naming ``model.file`` and the file ``path``, before any
    output is written."""
    try:
        stationary_distribution(model) if stationary else model.initial
    except ValueError as exc:
        hint = "an initial: line spares simulate, estimate and sweep this solve"
        raise ConfigError(f"model.file: {path}: {exc}; {hint}")


def cmd_simulate(config: ExperimentConfig) -> int:
    model = _read_model("model.file", config.model_file)
    _resolve_law(model, config.model_file)
    os.makedirs(config.out_dir, exist_ok=True)
    # the manifest is removed first and written last, so a run cut short
    # never leaves one naming missing path files or those of another run
    manifest_file = os.path.join(config.out_dir, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_file)
    n_max = max(config.n_grid)
    seeds = derive_seed(config.seed, np.arange(config.replications))
    batch = max(1, SIMULATE_BATCH_BYTES // (symbol_dtype(model.m).itemsize * n_max))
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
    from .estimator import evaluate_replications, recovery_summary, required_depth_cap

    model = _read_model("model.file", config.model_file)
    cutoff = config.cutoff.describe()
    # every grid length gets a cutoff and a count table of this depth,
    # checked before any path is sampled or read
    if min(config.n_grid) < N_MIN:
        raise ConfigError(
            f"experiment.n_grid: the shortest length {min(config.n_grid)} is below {N_MIN}"
        )
    depth = required_depth_cap(config.cutoff, config.n_grid, model.m)
    if depth >= min(config.n_grid):
        raise ConfigError(
            f"experiment.n_grid: the shortest length {min(config.n_grid)} must exceed "
            f"the depth cap {depth} that cutoff {cutoff} needs"
        )
    tasks = _replication_tasks(config, model)
    if tasks[0][2] is None:  # sampled inline, not read from path files
        _resolve_law(model, config.model_file)
    os.makedirs(config.out_dir, exist_ok=True)
    r_star = true_order(model)
    per_rep = evaluate_replications(
        model, pens, config.cutoff, config.n_grid, tasks, config.jobs, load=_read_path_file
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
    settings = config.verify
    if not settings.checks:
        raise ConfigError("verify.checks: select at least one check")
    model = _read_model("model.file", config.model_file)
    candidate = None
    if "bernstein" in settings.checks:
        candidate = (
            _read_model("verify.candidate_file", settings.candidate_file)
            if settings.candidate_file
            else _default_candidate(model)
        )
    by_name = {spec.name: spec for spec in CHECKS}
    specs = [by_name[name] for name in settings.checks]
    if any(spec.reads_law for spec in specs):
        _resolve_law(model, config.model_file, stationary=True)
    for spec in specs:
        spec.validate(settings, model, candidate)
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    # the report and every grid are removed first, and the report is written
    # last, so no run leaves another run's outputs beside its report, nor a
    # report naming outputs it did not write
    for name in ["verification.json"] + [spec.grid[0] for spec in CHECKS if spec.grid]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))
    checks = []
    grids = {}
    for spec in specs:
        passed, detail, rows = spec.run(config, model, candidate)
        checks.append(
            {"name": spec.name, "gating": spec.gating, "passed": bool(passed), "detail": detail}
        )
        if spec.grid:
            grids[spec.grid] = rows
    for (filename, header), rows in grids.items():
        _write_csv(os.path.join(out, filename), header, rows)
    all_gating = all(c["passed"] for c in checks if c["gating"])
    _write_json(
        os.path.join(out, "verification.json"),
        {"version": 1, "checks": checks, "all_gating_passed": all_gating},
    )
    return EXIT_OK if all_gating else EXIT_FAIL


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
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
