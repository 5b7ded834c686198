"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that every metric of BENCHMARK.json is emitted with its unit on
every workload, that the per-command times and fail_ratio are printed,
and that a corrupted expected digest is counted as a failure.
"""

import sys

from run import WORKLOADS, metric_spec, run_workload

SEED = 7
PRINTED = {
    "recovery_long": ("estimate_s",),
    "cli_files": ("simulate_s", "estimate_s", "sweep_s"),
    "verify_demo": ("verify_s",),
}


def main() -> int:
    end_units, layer_units = metric_spec()
    problems = []
    for name in WORKLOADS:
        for traced, units in ((False, end_units), (True, layer_units)):
            run = run_workload(name, SEED, 0, traced, tiny=True)
            result = run["result"]
            label = f"{name} trace {int(traced)}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: failed invocations\n" + "\n".join(run["lines"]))
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != units:
                problems.append(f"{label}: metrics {sorted(emitted.items())}")
            text = "\n".join(run["lines"])
            expected = ("fail_ratio",) if traced else PRINTED[name] + ("peak_rss_mb", "fail_ratio")
            problems.extend(f"{label}: {m} not printed" for m in expected if f" {m} " not in text)

    clean = run_workload("cli_files", SEED, 0, False, tiny=True, reference=None)
    reference = clean["digests"]
    same = run_workload("cli_files", SEED, 0, False, tiny=True, reference=reference)
    if same["result"]["failed"]:
        problems.append("cli_files fails against its own digests")
    reference["estimate"]["scores.csv"] = "0" * 64
    corrupted = run_workload("cli_files", SEED, 0, False, tiny=True, reference=reference)
    result = corrupted["result"]
    if not result["failed"] / result["attempted"] > 0 or result["correct"]:
        problems.append("a corrupted expected digest was not counted as a failure")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
