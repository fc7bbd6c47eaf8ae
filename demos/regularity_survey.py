"""Regularity criteria side by side, plus the open-question scans.

Sweeps the lower intervals of the symmetric group on four letters with all
four regularity tests, shows the one-way average criterion staying silent
on the two irregular elements, and runs the interval-sum scan and the
edge-size tally that probe the open questions.
"""

from fractions import Fraction

from bruhatpoly import CoxeterDescriptor, RContext, enumerate_group
from bruhatpoly import analysis
from bruhatpoly.poly import average

group = enumerate_group(CoxeterDescriptor.parse("A3"))
ctx = RContext(group)

print("w     | degrees | average | upper-Boolean | pattern | fired")
for w in group.elements():
    v = analysis.four_way_regularity(ctx, w)
    _, fired = analysis.shifted_average_fires(ctx, w)
    assert v.agree
    if not v.degree_regular:
        print(f"{group.display(w):<6}|   {v.degree_regular!s:<5} | {v.average_equal!s:<7} "
              f"| {v.upper_boolean!s:<13} | {v.pattern_smooth!s:<7} | {fired}")

print("\nboth irregular elements have interval sums strictly above the")
print("Boolean benchmark, yet their averages land exactly on length/2,")
print("so the average criterion alone cannot flag them:")
for one_line in ((3, 4, 1, 2), (4, 2, 3, 1)):
    w = group.index[one_line]
    pb = analysis.bruhat_poincare(ctx, w)
    print(f"  {group.display(w)}: sum {pb.text()}, average {average(pb)}, "
          f"length/2 = {Fraction(group.length[w], 2)}")

print("\ninterval-sum floor scan ((1+q)^ell <= interval sum):")
violations = [analysis.conjecture_violation(ctx, u, w)
              for u, w in group.comparable_pairs()]
print(f"  {len(violations)} intervals checked, "
      f"{sum(v is not None for v in violations)} violations found")

tally = analysis.edge_size_tally(ctx)
print("\nsize growth along Bruhat edges (never decreasing; when it is")
print("strict is an open question the tally only reports on):")
print(f"  {tally.edges} edges: {tally.equal} with equal sizes, "
      f"{tally.strict} strictly increasing")
print(f"  equal examples:  {tally.equal_examples}")
print(f"  strict examples: {tally.strict_examples}")
