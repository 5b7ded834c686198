"""Child process of the benchmark; imports nothing heavy before it is timed.

    python3 bench/child.py setup CONFIG
        The set-up probe: import markovorder.cli, load_config CONFIG and
        read_model_file its model, then exit.  The parent times the whole
        process.

    python3 bench/child.py main REPORT [SPANS] -- CLI-ARGS...
        Import markovorder.cli and call cli.main(CLI-ARGS) in this process.
        With SPANS, the tracer wraps the package's functions first and the
        spans are written to SPANS after the command returns.  REPORT
        receives the exit code, the wall time of main() and, when traced,
        the trace summary.  Neither file may lie inside the command's --out.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _setup(config_path: str) -> int:
    import markovorder.cli as cli

    config = cli.load_config(config_path)
    cli.read_model_file(config.model_file)
    return 0


def _main(report_path: str, spans_path: str | None, argv: list[str]) -> int:
    import markovorder.cli as cli

    recorder = None
    if spans_path is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    report = {"exit_code": code, "wall_s": wall}
    if recorder is not None:
        report["summary"] = recorder.summary()
        recorder.dump_spans(spans_path)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


def entry(args: list[str]) -> int:
    if len(args) == 2 and args[0] == "setup":
        return _setup(args[1])
    if len(args) >= 3 and args[0] == "main" and "--" in args:
        sep = args.index("--")
        paths = args[1:sep]
        if len(paths) in (1, 2):
            return _main(paths[0], paths[1] if len(paths) == 2 else None, args[sep + 1 :])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(entry(sys.argv[1:]))
