"""Benchmark of the markovorder command line; see bench/README.md.

    python3 bench/run.py --workload {recovery_long,cli_files,verify_demo}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from its
``src`` directory, so nothing has to be installed.  Every CLI command runs
in a fresh process with ``--jobs 1`` on config and model files generated
from the seed into a fresh directory under ``.bench_work/``.

With ``--trace 0`` the workload's commands are repeated for ``--seconds``
and the end-to-end metrics are reported as medians.  With ``--trace 1``
each command runs once untraced and twice traced (``bench/child.py``), and
the per-layer metrics come from the traced runs.  Every command's outputs
are checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402

DEFAULT_SEED = 20240810  # the seed of configs/demo.ini
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("recovery_long", "cli_files", "verify_demo")
DEMO_FILES = ("verification.json", "bernstein.csv", "deviation.csv", "lil.csv")
OUTPUTS = {
    "simulate": ("manifest.json", "path_*.txt"),
    "estimate": ("estimates.csv", "scores.csv", "recovery.csv"),
    "sweep": ("sweep.csv", "sweep_scores.csv", "sweep_recovery.csv"),
    "verify": DEMO_FILES,
}
REQUIRED = (
    "src/markovorder/cli.py",
    "configs/two_state.model",
    "configs/demo.ini",
    *(f"out/demo/{name}" for name in DEMO_FILES),
)
# Trace-summary counters that do not repeat exactly between two runs.
UNREPEATABLE = ("model.maxrss_delta_kb", "counts.maxrss_delta_kb")


@dataclass
class Command:
    name: str
    out: Path
    config: Path

    def argv(self) -> list[str]:
        return [self.name, "--config", str(self.config), "--out", str(self.out), "--jobs", "1"]


@dataclass
class Workload:
    name: str
    config: Path
    commands: list[Command]
    n_grid: tuple[int, ...]
    replications: int
    penalties: int = 1
    reference: dict | None = None  # command -> {output: sha256}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # first digests seen per command

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def fail_last(self, label: str, problem: str) -> None:
        """A later check failed an invocation already recorded as passing."""
        self.failed += 1
        self.problems.append(f"{label}: {problem}")


# -- inputs -------------------------------------------------------------------


def _write_ini(path: Path, sections: dict) -> None:
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)


def seeded_kernel(seed: int, m: int = 4, order: int = 2, floor: int = 50) -> list[list[int]]:
    """Kernel rows in thousandths: every entry >= floor, each row sums to 1000."""
    rng = random.Random(seed)
    spare = 1000 - m * floor
    rows = []
    for _ in range(m**order):
        cuts = sorted(rng.randint(0, spare) for _ in range(m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
        rows.append([floor + p for p in parts])
    return rows


def write_kernel_model(path: Path, rows: list[list[int]], m: int, order: int) -> None:
    # Written by hand: write_model_file's .12g rounding can leave row sums
    # outside read_model_file's 1e-12 tolerance (see bench/README.md).
    lines = [f"alphabet_size: {m}", f"order: {order}", "kernel:"]
    lines += ["  " + " ".join(f"{v / 1000:.3f}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def build_workload(name: str, work: Path, seed: int, tiny: bool = False) -> Workload:
    """Write the workload's model and config into ``work``."""
    config = work / "config.ini"
    out = work / "out"
    if name == "recovery_long":
        shutil.copyfile(ROOT / "configs/two_state.model", work / "two_state.model")
        n_grid = tuple(1 << k for k in (range(10, 13) if tiny else range(16, 23)))
        replications = 2
        _write_ini(config, {
            "model": {"file": "two_state.model"},
            "experiment": {"n_grid": " ".join(map(str, n_grid)),
                           "replications": str(replications), "seed": str(seed),
                           "jobs": "1", "out": str(out)},
            "penalty": {"spec": "loglog C=5"},
            "cutoff": {"spec": "sublog"},
        })
        commands = [Command("estimate", out, config)]
        return Workload(name, config, commands, n_grid, replications,
                        reference=_reference(name, seed, tiny))
    if name == "cli_files":
        write_kernel_model(work / "seeded.model", seeded_kernel(seed), 4, 2)
        n_grid = (512, 1024, 2048) if tiny else (8192, 32768, 131072)
        replications = 4 if tiny else 32
        _write_ini(config, {
            "model": {"file": "seeded.model"},
            "experiment": {"n_grid": " ".join(map(str, n_grid)),
                           "replications": str(replications), "seed": str(seed),
                           "jobs": "1", "out": str(out)},
            "penalty": {"spec": "loglog C=5", "specs": "loglog C=5, bic, csiszar c=1"},
            "cutoff": {"spec": "sublog"},
        })
        commands = [Command(c, out, config) for c in ("simulate", "estimate", "sweep")]
        return Workload(name, config, commands, n_grid, replications, penalties=3,
                        reference=_reference(name, seed, tiny))
    if name == "verify_demo":
        shutil.copyfile(ROOT / "configs/two_state.model", work / "two_state.model")
        demo = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        demo.read(ROOT / "configs/demo.ini")
        sections = {s: dict(demo[s]) for s in demo.sections()}
        sections["model"]["file"] = "two_state.model"
        sections["experiment"].update(seed=str(seed), out=str(out))
        if tiny:
            sections["verify"].update(
                instances="5", sandwich_n="64", bernstein_replications="10000",
                bernstein_n="16", deviation_replications="2000", deviation_n="16",
                lil_checkpoints="256 1024", lil_seeds="2", typicality_seeds="3",
                typicality_n_large="4096", bracket_kernels="3", bracket_paths="3",
                bracket_samples="50",
            )
        _write_ini(config, sections)
        reference = None
        if seed == DEFAULT_SEED and not tiny:
            reference = {"verify": {
                f: hashlib.sha256((ROOT / "out/demo" / f).read_bytes()).hexdigest()
                for f in DEMO_FILES
            }}
        return Workload(name, config, [Command("verify", out, config)], (), 0,
                        reference=reference)
    raise ValueError(f"unknown workload {name!r}")


def _reference(name: str, seed: int, tiny: bool) -> dict | None:
    if seed != DEFAULT_SEED or tiny:
        return None
    with open(BENCH / "expected.json") as fh:
        return json.load(fh)[name]


# -- output checks --------------------------------------------------------------


def output_files(out: Path, command: str) -> dict[str, list[Path]]:
    return {pattern: sorted(out.glob(pattern)) for pattern in OUTPUTS[command]}


def clear_outputs(out: Path, command: str) -> None:
    for paths in output_files(out, command).values():
        for p in paths:
            p.unlink()


def output_digests(out: Path, command: str) -> tuple[dict, list[str]]:
    """sha256 per output (one over all path files); missing outputs listed."""
    digests, missing = {}, []
    for pattern, paths in output_files(out, command).items():
        if not paths:
            missing.append(pattern)
            continue
        h = hashlib.sha256()
        for p in paths:
            if "*" in pattern:
                h.update(p.name.encode() + b"\0")
            h.update(p.read_bytes())
        digests[pattern] = h.hexdigest()
    return digests, missing


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def semantic_problems(wl: Workload, command: str, out: Path) -> list[str]:
    """Checks that hold at every seed."""
    problems = []
    if command == "verify":
        report = json.loads((out / "verification.json").read_text())
        if report.get("all_gating_passed") is not True:
            failed = [c["name"] for c in report["checks"] if c["gating"] and not c["passed"]]
            problems.append(f"gating checks failed: {failed}")
    elif command in ("estimate", "sweep"):
        recovery = _csv_rows(out / ("recovery.csv" if command == "estimate" else "sweep_recovery.csv"))
        if len(recovery) != len(wl.n_grid) * (wl.penalties if command == "sweep" else 1):
            problems.append(f"{len(recovery)} recovery rows")
        # column 3 is the replication count in both recovery tables
        if any(int(row[3]) != wl.replications for row in recovery):
            problems.append("recovery rows do not cover every replication")
    elif command == "simulate":
        manifest = json.loads((out / "manifest.json").read_text())
        if len(manifest["paths"]) != wl.replications or manifest["n"] != max(wl.n_grid):
            problems.append("manifest does not match the config")
    return problems


def check_outputs(wl: Workload, command: str, out: Path, tally: Tally) -> list[str]:
    digests, missing = output_digests(out, command)
    if missing:
        return [f"missing outputs {missing}"]
    problems = semantic_problems(wl, command, out)
    first = tally.digests.setdefault(command, digests)
    if digests != first:
        problems.append("outputs differ from this run's first invocation")
    if wl.reference is not None:
        bad = sorted(k for k, v in wl.reference[command].items() if digests.get(k) != v)
        if bad:
            problems.append(f"outputs differ from the recorded reference: {bad}")
    return problems


# -- child processes -------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


class Runner:
    def __init__(self, wl: Workload, work: Path):
        self.wl = wl
        self.work = work
        self.tally = Tally()
        self.peak_rss_mb = 0.0
        self._n = 0

    def _log(self) -> Path:
        self._n += 1
        return self.work / "logs" / f"{self._n:04d}.log"

    def setup_probe(self) -> float:
        log = self._log()
        code, wall, _ = spawn(
            [sys.executable, str(BENCH / "child.py"), "setup", str(self.wl.config)],
            self.work, log,
        )
        self.tally.record("setup", [] if code == 0 else [f"exit {code}: {_log_tail(log)}"])
        return wall

    def run_cli(self, cmd: Command, child_args: list[str] | None = None,
                label: str | None = None) -> tuple[bool, float]:
        """One timed CLI invocation in a fresh process, outputs checked.

        Runs ``python3 -m markovorder.cli``, or ``bench/child.py main`` with
        ``child_args`` when given.
        """
        clear_outputs(cmd.out, cmd.name)
        log = self._log()
        if child_args is None:
            argv = [sys.executable, "-m", "markovorder.cli", *cmd.argv()]
        else:
            argv = [sys.executable, str(BENCH / "child.py"), "main", *child_args, "--", *cmd.argv()]
        code, wall, rss = spawn(argv, self.work, log)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            problems = [f"exit {code}: {_log_tail(log)}"]
        else:
            problems = check_outputs(self.wl, cmd.name, cmd.out, self.tally)
        return self.tally.record(label or cmd.name, problems), wall

    def inline_equivalence(self) -> None:
        """After ``simulate``: ``estimate`` sampled inline, in a directory
        with no manifest, must equal ``estimate`` from the path files; its
        outputs are compared with the first ``estimate`` of the run."""
        if any(c.name == "simulate" for c in self.wl.commands):
            self.run_cli(Command("estimate", self.work / "inline", self.wl.config),
                         label="estimate-inline")


# -- the two modes -------------------------------------------------------------------


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics with tracing off.

    The set-up probes are spread over the run, one before each pass, so
    that they sample the same machine load as the commands.
    """
    wl = runner.wl
    runner.setup_probe()  # warm-up: compiles bytecode and fills the page cache
    setup = []
    per_command = {c.name: [] for c in wl.commands}
    cycles = []
    start = time.perf_counter()
    while True:
        if len(setup) < SETUP_PROBES:
            setup.append(runner.setup_probe())
        total = 0.0
        for cmd in wl.commands:
            _, wall = runner.run_cli(cmd)
            per_command[cmd.name].append(wall)
            total += wall
        cycles.append(total)
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(runner.setup_probe())
    runner.inline_equivalence()
    return {
        "setup_s": setup,
        "command_s": cycles,
        **{f"{name}_s": walls for name, walls in per_command.items()},
    }


def _merge(summaries: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "inclusive_s": {}, "counters": {}}
    for s in summaries:
        for key in merged:
            for k, v in s[key].items():
                merged[key][k] = merged[key].get(k, 0) + v
    return merged


def _counts(summary: dict) -> dict:
    counters = {k: v for k, v in summary["counters"].items() if k not in UNREPEATABLE}
    return {"calls": summary["calls"], "counters": counters}


def _mean(summaries: list[dict]) -> dict:
    """Times and peak-RSS deltas averaged over runs; counts from the first."""
    total = _merge(summaries)
    out = _merge(summaries[:1])
    for key in ("self_s", "inclusive_s"):
        out[key] = {k: v / len(summaries) for k, v in total[key].items()}
    for key in UNREPEATABLE:
        out["counters"][key] = total["counters"].get(key, 0) / len(summaries)
    return out


def trace(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics: each command traced, untraced, then traced again.

    The tracing overhead is the mean traced wall time of ``main()`` minus
    the untraced one, both measured inside a fresh child process.
    """
    wl = runner.wl
    spans_dir = ROOT / ".bench_work" / "spans" / wl.name
    spans_dir.mkdir(parents=True, exist_ok=True)
    runner.setup_probe()  # warm-up: compiles bytecode and fills the page cache
    means, per_command = [], {}
    for cmd in wl.commands:
        reports = {}
        for label in ("a", "untraced", "b"):
            report = runner.work / "reports" / f"{cmd.name}-{label}.json"
            args = [str(report)]
            if label != "untraced":
                args.append(str(spans_dir / f"{cmd.name}-{label}.jsonl"))
            ok, _ = runner.run_cli(cmd, args)
            if ok:
                reports[label] = json.loads(report.read_text())
        if len(reports) < 3:
            continue
        a, b = reports["a"]["summary"], reports["b"]["summary"]
        if _counts(a) != _counts(b):
            runner.tally.fail_last(cmd.name, "counts differ between two traced runs")
        mean = _mean([a, b])
        means.append(mean)
        per_command[cmd.name] = {
            "untraced_s": reports["untraced"]["wall_s"],
            "traced_s": (reports["a"]["wall_s"] + reports["b"]["wall_s"]) / 2,
            "layers": layer_metrics(mean),
        }
    runner.inline_equivalence()
    if not means:
        return {}, per_command
    metrics = layer_metrics(_merge(means))
    metrics["trace.overhead_s"] = sum(p["traced_s"] - p["untraced_s"] for p in per_command.values())
    return metrics, per_command


# -- reporting ------------------------------------------------------------------------


def metric_spec() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


RECORDED = object()


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False, reference=RECORDED) -> dict:
    """Run one workload in a fresh directory; returns the result, the lines
    to print and the output digests.  ``reference`` replaces the recorded
    output digests (None: compare with none)."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        for sub in ("out", "inline", "logs", "reports"):
            (work / sub).mkdir()
        wl = build_workload(name, work, seed, tiny)
        if reference is not RECORDED:
            wl.reference = reference
        runner = Runner(wl, work)
        end_units, layer_units = metric_spec()
        lines = [f"workload {name}  seed {seed}  trace {int(traced)}"]
        if traced:
            values, per_command = trace(runner)
            metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in layer_units.items()}
            for cmd, p in per_command.items():
                top = sorted(((v, k) for k, v in p["layers"].items() if k.endswith("self_s")),
                             reverse=True)[:3]
                lines.append(
                    f"  {cmd}: untraced {p['untraced_s']:.3f} s, traced {p['traced_s']:.3f} s, "
                    f"overhead {p['traced_s'] - p['untraced_s']:+.3f} s; largest self times: "
                    + ", ".join(f"{k} {v:.3f} s" for v, k in top)
                )
            for k, m in metrics.items():
                lines.append(f"  {k:42s} {m['value']:>16.6g} {m['unit']}")
        else:
            samples = measure(runner, seconds)
            medians = {k: statistics.median(v) for k, v in samples.items()}
            metrics = {
                "command_s": {"value": medians["command_s"], "unit": end_units["command_s"]},
                "setup_s": {"value": medians["setup_s"], "unit": end_units["setup_s"]},
                "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": end_units["peak_rss_mb"]},
            }
            for k, v in samples.items():
                lo, hi = _quartiles(v)
                lines.append(f"  {k:12s} {medians[k]:10.4f} s   median of {len(v)} "
                             f"(quartiles {lo:.4f} .. {hi:.4f})")
            lines.append(f"  {'peak_rss_mb':12s} {runner.peak_rss_mb:10.1f} MB  "
                         "largest ru_maxrss of any command process")
        t = runner.tally
        lines.append(f"  {'fail_ratio':12s} {t.failed / t.attempted:10.4f}     "
                     f"{t.failed} of {t.attempted} invocations failed")
        lines.extend(f"  FAILED {p}" for p in t.problems)
        result = {"correct": t.failed == 0, "attempted": t.attempted,
                  "failed": t.failed, "metrics": metrics}
        return {"result": result, "lines": lines, "digests": t.digests}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a markovorder checkout, missing {missing}", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
