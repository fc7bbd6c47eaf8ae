"""The benchmark's checkers accept the program's real output and reject
corrupted copies of it.

Run from the root of the source tree: python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """One real stdout per workload, from the CLI in a clean environment."""
    env = run.Runner(0.0).env
    work = tmp_path_factory.mktemp("cli")
    result = {}
    for name, workload in run.WORKLOADS.items():
        proc = subprocess.run([sys.executable, "-m", "bruhatpoly", *workload.argv],
                              cwd=work, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result[name] = proc.stdout
    return result


def _check(name: str, text: str, seed: int = 0) -> list[str]:
    return run.WORKLOADS[name].check(text, seed, 1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_real_output_passes(outputs, name):
    assert _check(name, outputs[name]) == []


@pytest.mark.parametrize("old,new", [
    ("th4-bounds: PASS (scope=3781)", "th4-bounds: PASS (scope=3780)"),
    ("th1-monotone: PASS (scope=3781)", "th1-monotone: PASS (scope=120)"),
    ("th3: PASS (scope=120)", "th3: PASS (scope=119)"),
    ("el-unique: PASS", "el-unique: FAIL"),
    ("sum of sizes = 1024", "sum of sizes = 1022"),
    ("suite: PASS (10/10)", "suite: PASS (9/10)"),
])
def test_verify_rejects(outputs, old, new):
    text = outputs["verify-A4"]
    assert old in text
    assert _check("verify-A4", text.replace(old, new, 1))


def test_verify_rejects_a_missing_check(outputs):
    lines = outputs["verify-A4"].splitlines(keepends=True)
    assert _check("verify-A4", "".join(l for l in lines if not l.startswith("gen-func")))


SCAN_CORRUPTIONS = {
    "one more edge": lambda d: d["edge_tally"].update(edges=d["edge_tally"]["edges"] + 1),
    "equal plus strict off by one": lambda d: d["edge_tally"].update(
        equal=d["edge_tally"]["equal"] + 1),
    "a violation": lambda d: d["violations"].append({"u": "1234567", "w": "7654321"}),
    "one interval short": lambda d: d.update(intervals_checked=d["intervals_checked"] - 1),
    "a strict pair labelled equal": lambda d: d["edge_tally"]["equal_examples"].append(
        d["edge_tally"]["strict_examples"][0]),
    "a non-edge example": lambda d: d["edge_tally"]["strict_examples"].__setitem__(
        0, ["1234567", "1234675"]),
}


@pytest.mark.parametrize("label", sorted(SCAN_CORRUPTIONS))
def test_scan_rejects(outputs, label):
    doc = json.loads(outputs["scan-A6"])
    SCAN_CORRUPTIONS[label](doc)
    assert _check("scan-A6", json.dumps(doc))


def _same_shape_rows(rows: list[dict]) -> tuple[int, int]:
    """Two classes with equal length and member count but different R."""
    seen: dict[tuple[int, int], int] = {}
    for i, row in enumerate(rows):
        key = (row["ell"], len(row["members"]))
        if key in seen and rows[seen[key]]["coeffs"] != row["coeffs"] and row["ell"] > 1:
            return seen[key], i
        seen.setdefault(key, i)
    raise AssertionError("no two classes of the same shape")


def test_table_rejects_a_flipped_coefficient(outputs):
    doc = json.loads(outputs["table-A7"])
    coeffs = doc["classes"][-1]["coeffs"]
    i = next(i for i, c in enumerate(coeffs) if c != "0")
    coeffs[i] = str(-int(coeffs[i]))
    assert _check("table-A7", json.dumps(doc))


def test_table_rejects_a_moved_member(outputs):
    doc = json.loads(outputs["table-A7"])
    doc["classes"][2]["members"].append(doc["classes"][1]["members"].pop())
    assert _check("table-A7", json.dumps(doc))


def test_table_rejects_swapped_polynomials(outputs):
    """Swapping R between two classes of one shape keeps every counted
    property; only the independent recursion finds it."""
    doc = json.loads(outputs["table-A7"])
    i, j = _same_shape_rows(doc["classes"])
    a, b = doc["classes"][i], doc["classes"][j]
    for key in ("coeffs", "r", "gamma_form", "size", "absolute_length"):
        a[key], b[key] = b[key], a[key]
    assert _check("table-A7", json.dumps(doc))


def test_clean_environment_drops_the_cache_dir(monkeypatch):
    monkeypatch.setenv("BRUHAT_CACHE_DIR", os.getcwd())
    env = run.Runner(0.0).env
    assert "BRUHAT_CACHE_DIR" not in env and env["PYTHONHASHSEED"] == "0"
