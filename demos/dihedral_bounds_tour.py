"""Dihedral bound polynomials and where the bounds are attained.

Prints the d_n table (recursion and generating function agree), the
Jacobsthal sizes, and then sweeps the symmetric group on five letters to
show dihedral intervals hitting the ceiling and Boolean intervals sitting
on the floor.
"""

from collections import Counter

from bruhatpoly import CoxeterDescriptor, RContext, enumerate_group
from bruhatpoly import analysis
from bruhatpoly.poly import coeffwise_leq, monomial, size, total


def is_boolean(group, members):
    """Whether v -> {atoms below v} maps the interval with ascending ids
    ``members`` one to one onto the sets of its atoms, each v to a set of
    size length(v) - length(bottom)."""
    base = group.length[members[0]]
    ell = group.length[members[-1]] - base
    atoms = [a for a in members if group.length[a] == base + 1]
    below = {frozenset(a for a in atoms if group.leq(a, v)): group.length[v] - base
             for v in members}
    return (len(atoms) == ell and len(below) == len(members) == 2 ** ell
            and all(len(s) == rank for s, rank in below.items()))


print("n | d_n(q)                                  | size | total | Jacobsthal")
series = analysis.dihedral_series(13)
for n in range(13):
    d = analysis.dihedral_poly(n)
    s, t = size(d), total(d)
    assert series[n] == d
    j = s if n >= 1 else "-"  # J_n = d_n(1)
    print(f"{n:>2} | {d.text():<39} | {s:>4} | {t:>5} | {j}")

print("\nsweeping all intervals of A4 (the symmetric group on 5 letters):")
group = enumerate_group(CoxeterDescriptor.parse("A4"))
ctx = RContext(group)
pairs = group.comparable_pairs()
booleans = dihedrals = 0
for u, w in pairs:
    n = group.length[w] - group.length[u]
    sh = ctx.shifted(u, w)
    assert analysis.dihedral_bounds_ok(ctx, u, w)
    if n >= 1:
        assert coeffwise_leq(monomial(n), sh)
        assert coeffwise_leq(sh, analysis.dihedral_poly(n))
    members = group.interval(u, w)
    ranks = Counter(group.length[v] - group.length[u] for v in members)
    if is_boolean(group, members):
        booleans += 1
        assert sh == monomial(n)
    elif [ranks[r] for r in range(n + 1)] == [1] + [2] * (n - 1) + [1]:  # dihedral
        dihedrals += 1
        assert sh == analysis.dihedral_poly(n)

print(f"  {len(pairs)} intervals checked against the bounds: all inside")
print(f"  {booleans} Boolean intervals attain the lower bound q^n exactly")
print(f"  {dihedrals} dihedral intervals attain the upper bound d_n exactly")

print("\nin a dihedral group every interval is dihedral, so the ceiling is")
print("attained everywhere:")
for m in (5, 9, 12):
    g = enumerate_group(CoxeterDescriptor.parse(f"I2:{m}"))
    c = RContext(g)
    assert all(c.shifted(u, w) == analysis.dihedral_poly(g.length[w] - g.length[u])
               for u, w in g.comparable_pairs())
    print(f"  I2:{m}: {len(g.comparable_pairs())} intervals, all equal to d_n")
