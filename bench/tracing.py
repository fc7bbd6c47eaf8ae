"""Traced CLI run: per-function call counts and self times, per layer.

Usage: python3 tracing.py OUT_DIR ARGV_JSON

ARGV_JSON is a JSON list of CLI argument lists. Each one runs through
``bruhatpoly.cli.main`` in this one process, so the program's per-process
state (the suite's group environment and its memos) carries over from one
invocation to the next, as it does between the checks of a single
``verify`` run. Before the first invocation, the functions in ``LAYERS``
are replaced by timing wrappers, in their defining module and in every
module that imported them by name. Nothing on disk is changed.

A wrapper pushes a span on entry and pops it on exit. Spans are measured
in this process's CPU time, so time slices the vCPU gives to another
process (the benchmark's calibration loop) do not count. A function's self
time is its span's duration minus the durations of the wrapped calls made
inside it; a layer's self time is the sum over its wrapped functions, so
work in an unwrapped helper counts toward the wrapped caller. The wrapper
itself costs one to two microseconds per call, and for the hottest
functions (``GroupTable.leq``, ``GroupTable.mul``, ``IntPoly.__add__`` and
``IntPoly.__mul__``) that cost lands mostly in their own self time.

Writes OUT_DIR/trace.json (statistics) and OUT_DIR/traced.stdout (the
concatenated standard output of the invocations).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

# layer -> functions wrapped in it; "Class.method" names are patched on the class
LAYERS = {
    "coxeter": ("enumerate_group", "GroupTable.leq", "GroupTable.interval",
                "GroupTable.comparable_pairs", "GroupTable.mul"),
    "poly": ("IntPoly.__add__", "IntPoly.__mul__"),
    "rpoly": ("RContext._family",),
    "graph": ("build_graph", "distinct_reflection_orders", "increasing_paths",
              "short_paths"),
    "analysis": ("interval_shifted_sum", "four_way_regularity", "edge_size_tally",
                 "dihedral_bounds_ok", "deodhar_check", "shifted_average_fires",
                 "observation_sum", "conjecture_violation", "is_regular",
                 "dihedral_series", "dihedral_poly"),
    "suite": ("run_suite", "run_scan", "_pmap"),
    "cli": ("main",),
}

# functions returning a sized result, and the count that result adds to
RESULT_COUNTS = {
    "graph.build_graph": ("graph.edges_built", lambda g: g.num_edges),
    "graph.increasing_paths": ("graph.paths_enumerated", len),
    "graph.short_paths": ("graph.paths_enumerated", len),
}


class Tracer:
    """Span stack and per-function totals: calls, inclusive and self CPU seconds."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.suite_calls: list[tuple[str, float]] = []
        self._child = [0.0]  # time covered by wrapped children, one slot per open span

    def wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        child = self._child
        clock = time.process_time
        count_key, measure = RESULT_COUNTS.get(key, (None, None))
        counts = self.counts
        if count_key:
            counts.setdefault(count_key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                stats[1] += elapsed
                stats[2] += elapsed - inner
                child[-1] += elapsed
            if count_key:
                counts[count_key] += measure(result)
            return result

        return wrapper

    def wrap_run_suite(self, fn):
        """Also record each run_suite call's duration under its check names."""
        timed = self.wrap("suite.run_suite", fn)
        calls = self.suite_calls

        @functools.wraps(fn)
        def wrapper(spec, checks=None, *args, **kwargs):
            start = time.process_time()
            result = timed(spec, checks, *args, **kwargs)
            calls.append(("+".join(checks or ("full",)), time.process_time() - start))
            return result

        return wrapper


def _capture_instances(cls, sink: list) -> None:
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = __init__


def install(tracer: Tracer) -> tuple[list, list]:
    """Wrap every function in LAYERS; return the lists that collect new
    GroupTable and RContext instances."""
    import bruhatpoly.cli  # noqa: F401  imports every module of the package
    from bruhatpoly.coxeter import GroupTable
    from bruhatpoly.rpoly import RContext

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "bruhatpoly" or name.startswith("bruhatpoly.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"bruhatpoly.{layer}"]
        for name in names:
            key = f"{layer}.{name.split('.')[-1].strip('_')}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, tracer.wrap(key, getattr(cls, attr)))
                continue
            original = getattr(home, name)
            wrapped = (tracer.wrap_run_suite(original) if key == "suite.run_suite"
                       else tracer.wrap(key, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    groups: list = []
    contexts: list = []
    _capture_instances(GroupTable, groups)
    _capture_instances(RContext, contexts)
    return groups, contexts


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    invocations = json.loads(argv[1])
    tracer = Tracer()
    groups, contexts = install(tracer)
    from bruhatpoly import cli

    exit_codes = []
    with (out_dir / "traced.stdout").open("w") as sink:
        for args in invocations:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                exit_codes.append(cli.main(args))
            sink.write(buf.getvalue())
    doc = {
        "exit_codes": exit_codes,
        "functions": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(tracer.stats.items())},
        "counts": tracer.counts,
        "suite_calls": tracer.suite_calls,
        "leq_memo_entries": sum(len(getattr(g, "_leq_memo", ())) for g in groups),
        "memo_hits": sum(getattr(c, "hits", 0) for c in contexts),
        "memo_misses": sum(getattr(c, "misses", 0) for c in contexts),
    }
    (out_dir / "trace.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
