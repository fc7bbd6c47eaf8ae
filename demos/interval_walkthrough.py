"""A guided tour of one Bruhat interval.

Builds the symmetric group on four letters, takes the interval below the
permutation 3412 and prints everything the library computes for it: the
Bruhat graph, the three R-family polynomials, the gamma vector, sizes and
averages, and the regularity verdicts.
"""

from bruhatpoly import (
    CoxeterDescriptor,
    RContext,
    build_graph,
    default_reflection_order,
    enumerate_group,
    gamma_form_text,
)
from bruhatpoly import analysis
from bruhatpoly.poly import average

group = enumerate_group(CoxeterDescriptor.parse("A3"))
ctx = RContext(group)
e = group.identity
w = group.index[(3, 4, 1, 2)]

print(f"group A3 has {len(group)} elements; longest element "
      f"{group.display(group.w0)} of length {group.length[group.w0]}")

members = group.interval(e, w)
graph = build_graph(group, members)
print(f"\ninterval [{group.display(e)}, {group.display(w)}]: "
      f"{graph.num_vertices} vertices, {graph.num_edges} edges")
print("members by length:")
for v in members:
    marker = " <- degree 5" if graph.degree(v) == 5 else ""
    print(f"  {group.display(v)}  (length {group.length[v]}, "
          f"degree {graph.degree(v)}){marker}")

# the lowest power of q in R-tilde is the directed distance in the graph (Dyer)
gamma = ctx.gamma_vector(e, w)
print(f"\ngraph distance from bottom to top: {gamma.absolute_length}")

r = ctx.r(e, w)
rt = ctx.rtilde(e, w)
sh = ctx.shifted(e, w)
print(f"\nR        = {r.text()}")
print(f"         = {gamma_form_text(gamma)}")
print(f"R-tilde  = {rt.text()}   (gamma vector {gamma.as_dict()})")
print(f"shifted  = {sh.text()}   (R with q -> q+1)")
print(f"size {ctx.bruhat_size(e, w)}, total {ctx.bruhat_total(e, w)}, "
      f"average {average(sh)}")

p = analysis.poincare(ctx, w)
pb = analysis.bruhat_poincare(ctx, w)
print(f"\nPoincare polynomial        {p.text()}  (average {average(p)})")
print(f"Bruhat-Poincare polynomial {pb.text()}  (average {average(pb)})")

order = default_reflection_order(group)
p1, p2 = analysis.p1_p2(graph, order, pb)
f_vec = pb.coeffs
print(f"\nedges from the bottom: {f_vec[1]}; "
      f"height excess p1 = {p1}, increasing two-step paths p2 = {p2}")
print(f"q^2 coefficient of the interval sum: {f_vec[2]} (= p1 + p2)")

verdict = analysis.four_way_regularity(ctx, w)
print(f"\nregular by degrees? {verdict.degree_regular}")
print(f"average criterion satisfied? {verdict.average_equal}")
print(f"all upper subintervals Bruhat-Boolean? {verdict.upper_boolean}")
print(f"pattern-smooth (avoids 3412 and 4231)? {verdict.pattern_smooth}")
