"""Exact R-polynomial families on Bruhat intervals of finite Coxeter groups.

The package enumerates type A and dihedral Coxeter groups, computes the
classic, nonnegative and shifted R-polynomial of any interval by memoized
descent recursions, cross-checks them against weighted counts of
label-increasing Bruhat paths, and verifies the regularity criteria and
dihedral bound polynomials attached to these families.
"""

from .coxeter import (
    CoxeterDescriptor,
    EmptyIntervalError,
    GroupTable,
    SizeLimitError,
    enumerate_group,
)
from .graph import (
    BruhatGraph,
    BruhatPath,
    IncreasingPathCounts,
    ReflectionOrder,
    build_graph,
    default_reflection_order,
    distinct_reflection_orders,
    increasing_paths,
    reflection_order_from_word,
    short_paths,
    to_dot,
)
from .poly import (
    IntPoly,
    average,
    coeffwise_leq,
    monomial,
    size,
    total,
)
from .rpoly import (
    GammaVector,
    RContext,
    gamma_form_text,
    reassemble_r,
)

__version__ = "0.1.0"
