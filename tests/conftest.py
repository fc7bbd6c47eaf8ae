import os
from pathlib import Path

import pytest

from bruhatpoly import CoxeterDescriptor, RContext, enumerate_group

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment for a subprocess, with the source tree first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def a1():
    return enumerate_group(CoxeterDescriptor("A", 1))


@pytest.fixture(scope="session")
def a2():
    return enumerate_group(CoxeterDescriptor("A", 2))


@pytest.fixture(scope="session")
def a3():
    return enumerate_group(CoxeterDescriptor("A", 3))


@pytest.fixture(scope="session")
def a4():
    return enumerate_group(CoxeterDescriptor("A", 4))


@pytest.fixture(scope="session")
def a3_ctx(a3):
    return RContext(a3)


@pytest.fixture(scope="session")
def a4_ctx(a4):
    return RContext(a4)


@pytest.fixture(scope="session")
def i2_groups():
    return {m: enumerate_group(CoxeterDescriptor("I2", m)) for m in range(2, 13)}


@pytest.fixture(scope="session")
def i2_ctxs(i2_groups):
    return {m: RContext(g) for m, g in i2_groups.items()}


def perm_id(group, one_line):
    """Element id from a one-line permutation given as a digit string."""
    return group.index[tuple(int(c) for c in one_line)]


@pytest.fixture(scope="session")
def pid():
    return perm_id
