"""Reflection orders and weighted path counting.

Constructs reflection orders from reduced words of the longest element,
checks that each gives every interval exactly one increasing maximal chain
(Dyer's EL property), and shows that the increasing-path generating
functions do not depend on the chosen order, while the unique increasing
saturated chain does.
"""

from bruhatpoly import (
    CoxeterDescriptor,
    IncreasingPathCounts,
    RContext,
    distinct_reflection_orders,
    enumerate_group,
)
from bruhatpoly.graph import build_graph, increasing_paths
from bruhatpoly.poly import Q_PLUS_ONE, ZERO, monomial


def weight(ell, a):
    """(q+1)^((ell-a)/2) q^a for a path of Coxeter length ell and absolute length a."""
    return Q_PLUS_ONE ** ((ell - a) // 2) * monomial(a)


group = enumerate_group(CoxeterDescriptor.parse("A3"))
ctx = RContext(group)
e = group.identity
w = group.index[(3, 4, 1, 2)]
ell = group.length[w] - group.length[e]  # the Coxeter length of every path e -> w

word = group.reduced_word(group.w0)
print("lexicographically smallest reduced word of the longest element:",
      " ".join(f"s{i+1}" for i in word))

orders = distinct_reflection_orders(group)
print(f"\n{len(orders)} distinct reflection orders, all passing the chain condition:")
for i, order in enumerate(orders):
    # one increasing maximal chain on every interval: on these groups that
    # holds exactly for the orders that pass the chain condition
    counts = IncreasingPathCounts(group, order)
    assert all(counts.increasing_chains(u, v) == (1, True) for u, v in group.comparable_pairs())
    print(f"  order {i}: " + " < ".join(group.display(t) for t in order))

graph = build_graph(group, group.interval(e, w))
print(f"\nincreasing paths from {group.display(e)} to {group.display(w)}:")
for i, order in enumerate(orders):
    paths = increasing_paths(graph, e, w, order)
    chain_vertices, _ = increasing_paths(graph, e, w, order, short_only=True)[0]
    print(f"  order {i}: {len(paths)} increasing paths; unique saturated chain "
          + " -> ".join(group.display(v) for v in chain_vertices))
    for _, labels in paths:
        print(f"    absolute length {len(labels)}, weight {weight(ell, len(labels)).text()}")

print("\nthe generating functions are order-independent and match the recursions:")
for order in orders:
    paths = increasing_paths(graph, e, w, order)
    counts = IncreasingPathCounts(group, order)
    assert sum((monomial(len(labels)) for _, labels in paths), ZERO) == ctx.rtilde(e, w)
    assert sum((weight(ell, len(labels)) for _, labels in paths), ZERO) == ctx.shifted(e, w)
    assert counts.counts(e, w) == ctx.rtilde(e, w).coeffs
    assert counts.shifted(e, w) == ctx.shifted(e, w)
print(f"  sum of q^(absolute length) = {ctx.rtilde(e, w).text()}")
print(f"  sum of path weights        = {ctx.shifted(e, w).text()}")

print("\na dihedral group pins its reflection order down to a single chain")
print("and its reverse:")
m5 = enumerate_group(CoxeterDescriptor.parse("I2:5"))
for order in distinct_reflection_orders(m5):
    print("  " + " < ".join(m5.display(t) for t in order))
