"""The traced benchmark run wraps library functions by name; keep them resolvable."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import bruhatpoly
from bruhatpoly import RContext, graph, suite
from bruhatpoly.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        target = importlib.import_module(f"bruhatpoly.{layer}")
        for name in names:
            obj = target
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_every_exported_name_resolves():
    # a deleted name must not linger in an export list; __main__ runs the CLI
    missing, exported = [], 0
    for info in pkgutil.iter_modules(bruhatpoly.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"bruhatpoly.{info.name}")
        names = getattr(module, "__all__", ())
        exported += len(names)
        missing += [f"{info.name}.{name}" for name in names if not hasattr(module, name)]
    assert missing == [] and exported > 50


def test_only_graph_names_the_path_lister():
    # the lister and the whole-interval graph are the tests' reference routes
    # and traced layers of the benchmark; no other module of the package may
    # come to depend on them, nor export them
    lister = {"increasing_paths", "short_paths", "_walk", "build_graph", "BruhatGraph"}
    package = Path(bruhatpoly.__file__).parent
    named = {}
    for path in sorted(package.glob("*.py")):
        if path.stem == "graph":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in lister:
                named.setdefault(path.name, []).append(name)
    assert len(list(package.glob("*.py"))) > 5 and named == {}


def test_run_suite_takes_spec_and_checks_first():
    # the traced run passes ``checks`` to run_suite by position
    assert list(inspect.signature(suite.run_suite).parameters)[:2] == ["spec", "checks"]


def test_fresh_context_counts_memo_traffic(a2):
    # the traced run reads these through getattr(..., 0): a rename would
    # report zero memo traffic instead of failing
    ctx = RContext(a2)
    assert (ctx.hits, ctx.misses) == (0, 0)


def test_verify_a4_memo_traffic_is_pinned(monkeypatch):
    # the traced verify-A4 run reports these counts; a change to the recursion
    # or to which pairs enter the memo must move them on purpose. Hits were
    # 64,005 until cp-fourway read the upper-Boolean verdicts th3 keeps, then
    # 38,388 hits / 4,231 misses until the memo keyed pairs reduced by their
    # shared left and right descents, then 37,924 / 539 until the upper-Boolean
    # sweep tested one v per descent class and th4-bounds the reduced pairs,
    # then 9,357 / 539 until lower-interval sums and sizes read each (e, x)
    # once into the lower rows, whose later reads are not memo lookups, then
    # 1,678 / 539 until the rows were filled from two row entries per x, not
    # through the memo, then 1,454 / 539 until the memo walks read and filled
    # (e, x) in the lower rows, which no longer keep a copy in the memo (a
    # hit now counts a row read in a walk as well as a memo read), then
    # 1,327 / 304 until the row fill copied (e, x) from (e, x^-1) and took
    # left descents as well as right ones.
    monkeypatch.setattr(suite, "_ENVS", {})
    results = suite.run_suite("A4", suite.CHECK_NAMES)
    assert all(r.passed for r in results)
    ctx = suite._ENVS["A4"]["ctx"]
    assert (ctx.hits, ctx.misses) == (1_309, 287)


def test_th4_bounds_keeps_one_memo_entry_per_reduced_pair(monkeypatch):
    # th4-bounds asks only for pairs that share no descent, so no unreduced
    # queried pair enters the memo: 97,687 shifted entries before on A5. A
    # reduced pair (e, x) is kept in the lower row instead of the memo, so
    # the two hold the 2,939 entries the memo alone held before.
    monkeypatch.setattr(suite, "_ENVS", {})
    [result] = suite.run_suite("A5", ["th4-bounds"])
    assert result.passed
    ctx = suite._ENVS["A5"]["ctx"]
    memo, row = ctx._memo["shifted"], ctx._rows["shifted"]
    assert (len(memo), len(row) - row.count(None)) == (2_220, 719)


def test_every_check_has_one_runner():
    # _CHECKS names each check once, in the canonical order of the output:
    # a whole-group runner or a per-interval row (test, lower only, details)
    assert suite.CHECK_NAMES == ("th1-monotone", "th1-odd", "th2", "th3", "th4-bounds",
                                 "el-unique", "oracle-eq", "cp-fourway", "obs-sum", "gen-func")
    for row in suite._CHECKS.values():
        assert callable(row) or (callable(row[0]) and isinstance(row[1], bool)
                                 and all(isinstance(d, str) for d in row[2:]))


@pytest.fixture
def graph_builds(monkeypatch):
    """The build_graph calls made, wherever from, in every module that imports it."""
    calls = []
    original = graph.build_graph

    def counting(*args):
        calls.append(None)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("bruhatpoly") and getattr(module, "build_graph", None) is original:
            monkeypatch.setattr(module, "build_graph", counting)
    return calls


@pytest.mark.parametrize("spec, checks", [
    ("A3", None),  # every comparable pair of the small-group scope
    ("A4", None),  # lower intervals
    ("A4", ["th2"]),
    ("A4", ["el-unique", "oracle-eq"]),
    ("I2:8", None),
])
def test_verify_builds_no_graph(monkeypatch, graph_builds, spec, checks):
    monkeypatch.setattr(suite, "_ENVS", {})
    assert all(r.passed for r in suite.run_suite(spec, checks))
    assert graph_builds == []


@pytest.mark.parametrize("argv", [
    ["interval", "--group", "A4", "--u", "e", "--w", "w0"],  # a lower interval
    ["interval", "--group", "A4", "--u", "s1", "--w", "w0"],
    ["export-dot", "--group", "A4", "--u", "e", "--w", "w0"],
])
def test_interval_and_export_dot_build_no_graph(capsys, graph_builds, argv):
    # both read the Bruhat edges they need off the reflection columns
    assert main(argv) == 0
    assert capsys.readouterr().out and graph_builds == []
