"""Span and counter recorder for the traced benchmark run (stdlib only).

``install`` wraps the public functions of every ``markovorder`` module at
every place they are bound: the defining module, each module that did
``from .x import f``, and the package namespaces that re-export them.  A
wrapper on the defining module alone would miss those copies.  The two
private path-file helpers of ``cli`` are wrapped as well, because path IO
has no public entry point.

Spans stay in memory while the command runs; ``Recorder.summary`` turns
them into per-layer self times and counts, and ``Recorder.dump_spans``
writes them out afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import time
from collections import Counter

LAYER_MODULES = (
    "rng",
    "_contexts",
    "model",
    "counts",
    "likelihood",
    "penalty",
    "estimator",
    "config",
    "cli",
    "diagnostics.core",
    "diagnostics.mc",
)
NAMESPACES = ("markovorder", "markovorder.diagnostics")
PRIVATE_TARGETS = {"cli": ("_write_path_file", "_read_path_file")}

# Span names whose layer is not simply their module.
SPECIAL_LAYERS = {
    "cli._write_path_file": "cli.path_write",
    "cli._read_path_file": "cli.path_read",
}
MC_CHECKS = ("bernstein_mc_check", "deviation_tail_mc", "lil_trajectory", "typicality_trend")
MC_BATTERIES = (
    "norm_bound_battery",
    "hellinger_sandwich_battery",
    "bracket_battery",
    "bracket_count_check",
)
RSS_LAYERS = {"model.sample_path": "model", "counts.build_counts": "counts",
              "counts.extend_counts": "counts"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _windows(n: int, cap: int) -> int:
    """Windows of lengths 1..cap+1 in a path of n symbols."""
    return sum(max(n - r, 0) for r in range(cap + 1))


# Count hooks: (counters, args, kwargs, result) -> None, computed from call
# arguments and return values only, so they repeat exactly for one seed.
def _count_uniforms(c, args, kwargs, result):
    c["rng.uniforms"] += int(result.shape[0])


def _count_sample_path(c, args, kwargs, result):
    c["model.symbols"] += len(result.symbols)


def _count_build(c, args, kwargs, result):
    c["counts.windows"] += _windows(result.n, result.depth_cap)


def _count_extend(c, args, kwargs, result):
    old = args[0] if args else kwargs["counts"]
    c["counts.windows"] += _windows(result.n, result.depth_cap) - _windows(old.n, old.depth_cap)


def _count_path_write(c, args, kwargs, result):
    c["cli.path_write.bytes"] += os.path.getsize(args[0])


def _count_path_read(c, args, kwargs, result):
    c["cli.path_read.bytes"] += os.path.getsize(args[0])


def _count_bernstein(c, args, kwargs, result):
    c["diagnostics.mc.lane_steps"] += result.replications * result.n


def _count_deviation(c, args, kwargs, result):
    # the running overshoot is followed over 2n steps per replication
    c["diagnostics.mc.lane_steps"] += result.replications * 2 * result.n
    c["diagnostics.mc.deviation_events"] += round(result.event_rate * result.replications)
    c["diagnostics.mc.deviation_replications"] += result.replications


def _count_sandwich(c, args, kwargs, result):
    c["diagnostics.mc.sandwich_accepted"] += result.instances
    c["diagnostics.mc.sandwich_attempted"] += result.attempted


COUNT_HOOKS = {
    "rng.uniform_block": _count_uniforms,
    "rng.uniforms_at": _count_uniforms,
    "model.sample_path": _count_sample_path,
    "counts.build_counts": _count_build,
    "counts.extend_counts": _count_extend,
    "cli._write_path_file": _count_path_write,
    "cli._read_path_file": _count_path_read,
    "diagnostics.mc.bernstein_mc_check": _count_bernstein,
    "diagnostics.mc.deviation_tail_mc": _count_deviation,
    "diagnostics.mc.hellinger_sandwich_battery": _count_sandwich,
}


class Recorder:
    """In-memory spans ``[name, start_ns, end_ns, parent]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNT_HOOKS.get(name)
        rss_layer = RSS_LAYERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_kb() if rss_layer else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rss_layer:
                counters[f"{rss_layer}.maxrss_delta_kb"] += _maxrss_kb() - rss0
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function with a wrapper."""
        modules = {short: importlib.import_module(f"markovorder.{short}") for short in LAYER_MODULES}
        originals = {}
        for short, mod in modules.items():
            extra = PRIVATE_TARGETS.get(short, ())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    originals[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        sites = list(modules.values()) + [importlib.import_module(ns) for ns in NAMESPACES]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in wrappers and originals[key][1] is obj:
                    setattr(mod, attr, wrappers[key])

    def dump_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")

    def summary(self) -> dict:
        """Calls, self and inclusive seconds per span name, plus the counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            # inclusive time counts only outermost spans of a name
            if parent < 0 or self.spans[parent][0] != name:
                incl_ns[name] += end - start
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "inclusive_s": {k: v / 1e9 for k, v in incl_ns.items()},
            "counters": dict(self.counters),
        }


def layer_of(span_name: str) -> str:
    if span_name in SPECIAL_LAYERS:
        return SPECIAL_LAYERS[span_name]
    return span_name.rsplit(".", 1)[0]


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one command's summary."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    layer_self: Counter = Counter()
    for name, secs in self_s.items():
        layer_self[layer_of(name)] += secs
    sample_incl = summary["inclusive_s"].get("model.sample_path", 0.0)
    symbols = counters.get("model.symbols", 0)
    mc_self = {check: self_s.get(f"diagnostics.mc.{check}", 0.0) for check in MC_CHECKS}

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    out = {
        "rng.self_s": layer_self["rng"],
        "rng.derive_seed.calls": calls.get("rng.derive_seed", 0),
        "rng.uniforms": counters.get("rng.uniforms", 0),
        "model.sample_path.self_s": self_s.get("model.sample_path", 0.0),
        "model.sample_path.calls": calls.get("model.sample_path", 0),
        "model.symbols": symbols,
        "model.symbols_per_s": symbols / sample_incl if sample_incl else 0.0,
        "model.maxrss_delta_mb": counters.get("model.maxrss_delta_kb", 0) / 1024.0,
        "cli.path_write.self_s": layer_self["cli.path_write"],
        "cli.path_write.bytes": counters.get("cli.path_write.bytes", 0),
        "cli.path_read.self_s": layer_self["cli.path_read"],
        "cli.path_read.calls": calls.get("cli._read_path_file", 0),
        "cli.path_read.bytes": counters.get("cli.path_read.bytes", 0),
        "cli.self_s": layer_self["cli"],
        "config.load_config.self_s": self_s.get("config.load_config", 0.0),
        "contexts.context_codes.calls": calls.get("_contexts.context_codes", 0),
        "contexts.context_codes.self_s": self_s.get("_contexts.context_codes", 0.0),
        "counts.build_counts.self_s": self_s.get("counts.build_counts", 0.0),
        "counts.extend_counts.self_s": self_s.get("counts.extend_counts", 0.0),
        "counts.windows": counters.get("counts.windows", 0),
        "counts.maxrss_delta_mb": counters.get("counts.maxrss_delta_kb", 0) / 1024.0,
        "likelihood.max_loglik.calls": calls.get("likelihood.max_loglik", 0),
        "likelihood.self_s": layer_self["likelihood"],
        "penalty.self_s": layer_self["penalty"],
        "estimator.estimate_order.calls": calls.get("estimator.estimate_order", 0),
        "estimator.self_s": layer_self["estimator"],
        "diagnostics.core.self_s": layer_self["diagnostics.core"],
        "diagnostics.mc.batteries.self_s": sum(
            self_s.get(f"diagnostics.mc.{b}", 0.0) for b in MC_BATTERIES
        ),
        "diagnostics.mc.lane_steps": counters.get("diagnostics.mc.lane_steps", 0),
        "diagnostics.mc.sandwich_accept_ratio": ratio(
            "diagnostics.mc.sandwich_accepted", "diagnostics.mc.sandwich_attempted"
        ),
        "diagnostics.mc.deviation_event_rate": ratio(
            "diagnostics.mc.deviation_events", "diagnostics.mc.deviation_replications"
        ),
    }
    for check, secs in mc_self.items():
        out[f"diagnostics.mc.{check}.self_s"] = secs
    return out
