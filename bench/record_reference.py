"""Record the output digests that bench/run.py checks at its default seed.

    python3 bench/record_reference.py

Runs one untraced pass of recovery_long and cli_files at the default seed
and rewrites bench/expected.json.  The outputs are a deterministic function
of (config, seed), so re-record only after a deliberate change of an output
format, and say so in the change that does it.
"""

import json
import sys

from run import BENCH, DEFAULT_SEED, run_workload

if __name__ == "__main__":
    expected = {}
    for name in ("recovery_long", "cli_files"):
        run = run_workload(name, DEFAULT_SEED, 0, False, reference=None)
        if run["result"]["failed"]:
            print("\n".join(run["lines"]), file=sys.stderr)
            sys.exit(1)
        expected[name] = run["digests"]
    with open(BENCH / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
