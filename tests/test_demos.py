"""Each demo script runs to completion, warning-free, and prints the output it
always has, on the package alone."""

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "dihedral_bounds_tour.py":
        "893f774e8e0f1eea579c116bfe732cbc1923f949c996138249a6bb603c2daad3",
    "interval_walkthrough.py":
        "9f625e460077f0ea7158b54b6c52e18e350331dfcb9c0582051fda84889ed8cf",
    "reflection_orders_and_paths.py":
        "326592bd859df53ccad251804509202348e7e73d351531c062dfc23e0a38bf23",
    "regularity_survey.py":
        "36cbe8a595b058c7d417d51a31342e0cba6b9c1afb627c2dc931ec5f8c8d544e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout(name):
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          capture_output=True, env=src_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_imports_only_the_package_and_the_stdlib(name):
    tree = ast.parse((ROOT / "demos" / name).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    roots = {module.partition(".")[0] for module in modules}
    assert roots <= {"bruhatpoly"} | sys.stdlib_module_names


def test_readme_library_tour_holds():
    # the tour's code runs as printed, and each line it marks "# True" is true
    tour = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, claims = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if lines[node.end_lineno - 1].partition("#")[2].strip().startswith("True"):
            assert eval(code, namespace) is True, code
            claims += 1
        else:
            exec(code, namespace)
    assert claims == block.count("# True") > 0
