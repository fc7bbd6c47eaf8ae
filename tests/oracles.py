"""Independent oracles used by the tests.

Everything here is deliberately naive and separate from the library's own
algorithms: the group by a breadth-first pass with row-wise tables, the
product of canonical forms, inversion counting, the dot-matrix
comparison criterion for permutations, reachability closures,
the memoized descent recursion for Bruhat order, the reflections as all
conjugates of the generators, Bruhat paths listed by products with every
reflection and an order test, Dyer's EL property by listing every maximal
chain, the R recursion in polynomial arithmetic with an order test per
pair, degree regularity read off the built Bruhat graph at every vertex,
p1 and p2 read off the built graph's rows, Booleanness of every upper
subinterval one interval at a time or in one pass over [u, w],
interval sums over the order relation, lower
interval sums as one memo query per member, coefficientwise sums by
transposing coefficient tuples, capped ideals cut from the
full lower ideal, the edge-size tally edge by edge, the dihedral bounds
checked pair by pair over every comparable pair, size violations counted
pair by pair, the Fibonacci recursion, the Jacobsthal recursion, the
dihedral closed forms, the Boolean and dihedral interval shapes read off
the poset, edge and path weights, R-tilde and shifted R as sums over
listed increasing paths, graph distance by BFS, the dihedral chain
condition on reflection orders, the substitution q -> q+1 and the double
R-polynomial. Tests compare library output against these.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, zip_longest
from math import prod
from types import SimpleNamespace

from bruhatpoly import IntPoly, analysis
from bruhatpoly.graph import build_graph, increasing_paths, short_paths
from bruhatpoly.poly import ONE, Q, Q_MINUS_ONE, Q_PLUS_ONE, ZERO, coeffwise_leq, monomial


def compose_forms(desc, fa, fb):
    """The form of a*b: composition of one-line permutations for type A,
    (rotation, flip) arithmetic for I2(m)."""
    if desc.family == "A":
        return tuple(fa[x - 1] for x in fb)
    (i, e), (j, d) = fa, fb
    return ((i + (-j if e else j)) % desc.param, e ^ d)


def oracle_form(group, v: int) -> tuple:
    """The form of v as the oracles write it, read off its packed record:
    the one-line values for type A, (k, flip) for I2(m)."""
    f = group.form(v)
    return tuple(f) if group.descriptor.family == "A" else (int.from_bytes(f[:3], "big"), f[3])


def oracle_id(group, form: tuple) -> int:
    """The id of an oracle form, through the group's parse index."""
    if group.descriptor.family == "I2":
        form = (*form[0].to_bytes(3, "big"), form[1])
    return group.index[tuple(form)]


def form_product(group, a: int, b: int) -> int:
    """a*b through the canonical forms."""
    return oracle_id(group, compose_forms(group.descriptor, oracle_form(group, a),
                                          oracle_form(group, b)))


def row_wise_enumeration(desc) -> SimpleNamespace:
    """The group by one breadth-first pass under the generators that records
    the right product table row by row (row v holds v*s for each generator
    s) while it discovers elements; the ids are then relabelled into
    (length, form) order. The left rows, first right descents, descent
    masks and reflections are read off the rows one element at a time."""
    if desc.family == "A":
        size = desc.param + 1
        identity = tuple(range(1, size + 1))
        gens = [lambda f, i=i: f[:i] + (f[i + 1], f[i]) + f[i + 2:] for i in range(size - 1)]
    else:
        identity, m = (0, 0), desc.param
        gens = [lambda f: (f[0], f[1] ^ 1),
                lambda f: ((f[0] + (1 if f[1] else -1)) % m, f[1] ^ 1)]
    forms, lengths, bfs_right = [identity], [0], []
    bfs_id = {identity: 0}
    for v, f in enumerate(forms):  # forms grows while the loop runs: a BFS queue
        row = []
        for times_g in gens:
            h = times_g(f)
            if h not in bfs_id:
                bfs_id[h] = len(forms)
                forms.append(h)
                lengths.append(lengths[v] + 1)
            row.append(bfs_id[h])
        bfs_right.append(row)
    order = sorted(range(len(forms)), key=lambda v: (lengths[v], forms[v]))
    new_id = {v: i for i, v in enumerate(order)}
    right = tuple(tuple(new_id[j] for j in bfs_right[v]) for v in order)
    forms = tuple(forms[v] for v in order)
    length = tuple(lengths[v] for v in order)
    index = {f: i for i, f in enumerate(forms)}
    if desc.family == "A":
        inverse_forms = [tuple(f.index(k) + 1 for k in identity) for f in forms]
    else:
        inverse_forms = [f if f[1] else ((-f[0]) % desc.param, 0) for f in forms]
    inverse = tuple(index[f] for f in inverse_forms)
    n, ids = len(gens), range(len(forms))
    left = tuple(tuple(inverse[right[inverse[v]][s]] for s in range(n)) for v in ids)
    first = tuple(next((s for s in range(n) if length[right[v][s]] < length[v]), -1)
                  for v in ids)
    descents = tuple(sum(1 << k for k, x in enumerate(right[v] + left[v]) if length[x] < length[v])
                     for v in ids)
    generators = [g(identity) for g in gens]
    reflections = tuple(sorted({index[compose_forms(desc, compose_forms(desc, f, g), inv)]
                                for f, inv in zip(forms, inverse_forms) for g in generators}))
    return SimpleNamespace(forms=forms, index=index, right=right, left=left, length=length,
                           inverse=inverse, first_descent=first, descents=descents,
                           reflections=reflections)


def generator_ids(group) -> list[int]:
    """Ids of the simple generators, read from their forms: adjacent
    transpositions for type A, the flips (0, 1) and (m-1, 1) for I2(m)."""
    desc = group.descriptor
    if desc.family == "I2":
        return [oracle_id(group, (0, 1)), oracle_id(group, (desc.param - 1, 1))]
    out = []
    for i in range(desc.param):
        form = list(range(1, desc.param + 2))
        form[i], form[i + 1] = form[i + 1], form[i]
        out.append(group.index[tuple(form)])
    return out


def inversions(perm) -> int:
    """Brute-force inversion count of a one-line permutation."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def dot_matrix(perm) -> list[list[int]]:
    """m[i][j] = number of positions a <= i with perm(a) >= j+1 (0-indexed)."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m[i][j] = sum(1 for a in range(i + 1) if perm[a] >= j + 1)
    return m


def dot_leq(u_perm, w_perm) -> bool:
    """Bruhat comparison of permutations via entrywise dot-matrix domination."""
    mu, mw = dot_matrix(u_perm), dot_matrix(w_perm)
    n = len(u_perm)
    return all(mu[i][j] <= mw[i][j] for i in range(n) for j in range(n))


def reachability(group) -> dict[int, set[int]]:
    """Transitive closure of the full Bruhat edge relation x -> x*t."""
    succ: dict[int, set[int]] = {v: set() for v in group.elements()}
    for x in group.elements():
        for t in group.reflections:
            y = group.mul(x, t)
            if group.length[y] > group.length[x]:
                succ[x].add(y)
    reach: dict[int, set[int]] = {}
    for start in sorted(group.elements(), key=lambda v: -group.length[v]):
        acc = {start}
        for y in succ[start]:
            acc |= reach[y]
        reach[start] = acc
    return reach


def right_descent(group, w: int, descent: str) -> int:
    """The first ("min") or the last ("max") right descent of w, by lengths."""
    pick = min if descent == "min" else max
    return pick(s for s in range(group.num_generators)
                if group.length[group.right[s][w]] < group.length[w])


def descent_leq(group, u: int, w: int, memo: dict, descent: str = "min") -> bool:
    """Bruhat order by the standard descent recursion, memoized in ``memo``.

    Pick s with ws < w; then u <= w iff (us <= ws) when s lowers u,
    else iff (u <= ws).
    """
    if u == w:
        return True
    if group.length[u] >= group.length[w]:
        return False
    key = (u, w)
    cached = memo.get(key)
    if cached is not None:
        return cached
    s = right_descent(group, w, descent)
    ws = group.right[s][w]
    us = group.right[s][u]
    if group.length[us] < group.length[u]:
        res = descent_leq(group, us, ws, memo, descent)
    else:
        res = descent_leq(group, u, ws, memo, descent)
    memo[key] = res
    return res


def r_by_recursion(group, u: int, w: int, memo: dict, descent: str = "min") -> IntPoly:
    """R[u, w] by the descent recursion with an order test on every pair:
    R[us, ws] when s lowers u, else (q-1) R[u, ws] + q R[us, ws]."""
    if u == w:
        return IntPoly((1,))
    if not descent_leq(group, u, w, {}, descent):
        return ZERO
    if (u, w) not in memo:
        s = right_descent(group, w, descent)
        ws, us = group.right[s][w], group.right[s][u]
        if group.length[us] < group.length[u]:
            memo[u, w] = r_by_recursion(group, us, ws, memo, descent)
        else:
            memo[u, w] = (Q_MINUS_ONE * r_by_recursion(group, u, ws, memo, descent)
                          + Q * r_by_recursion(group, us, ws, memo, descent))
    return memo[u, w]


def shift_plus_one(f: IntPoly) -> IntPoly:
    """f(q+1), re-expanded exactly (Horner in q+1)."""
    acc = ZERO
    for c in reversed(f.coeffs):
        acc = acc * Q_PLUS_ONE + IntPoly((c,))
    return acc


def double_r_at(gamma, p: IntPoly, q: IntPoly) -> IntPoly:
    """The double R-polynomial, sum of gamma_j p^((ell-j)/2) (q-1)^j over the
    gamma vector of an interval, at the given values of p and q."""
    return sum((p ** ((gamma.coxeter_length - j) // 2) * (q - ONE) ** j * c
                for j, c in gamma.entries), ZERO)


def graph_degrees(group, u: int, w: int) -> dict[int, int]:
    """The total (undirected) degree of every vertex of the built Bruhat graph of [u, w]."""
    graph = build_graph(group, group.interval(u, w))
    return {v: len(graph.out_edges[v]) + graph.in_degree[v] for v in graph.members}


def regular_by_graph_degrees(group, u: int, w: int) -> bool:
    """Every vertex of the Bruhat graph of [u, w] has degree length(w) - length(u)."""
    ell = group.length[w] - group.length[u]
    return all(d == ell for d in graph_degrees(group, u, w).values())


def p1_p2_from_graph(graph, order) -> tuple[int, int]:
    """p1, the sum of (height - 1) over the built edges out of the bottom,
    and p2, the label-increasing two-step paths from the bottom along the
    built rows."""
    u = graph.members[0]
    length, row = graph.group.length, graph.out_edges[u]
    p1 = sum((length[y] - length[u] - 1) // 2 for y, _ in row)
    p2 = sum(order.index(t2) > order.index(t) for y, t in row for _, t2 in graph.out_edges[y])
    return p1, p2


def upper_boolean_per_v(ctx, u: int, w: int) -> bool:
    """Every upper subinterval [v, w] of [u, w] is Bruhat-Boolean, one
    interval and one shifted sum per v."""
    return all(analysis.is_bruhat_boolean(ctx, v, w)
               for v in ctx.group.interval(u, w))


def upper_boolean_one_pass(ctx, u: int, w: int) -> bool:
    """Every upper subinterval [v, w] of [u, w] is Bruhat-Boolean, in one
    pass: each x in [u, w] joins the list of every v of its lower ideal
    inside [u, w], so the list of v is [v, w]; then one shifted sum per v."""
    g = ctx.group
    members = g.interval(u, w)
    above: dict[int, list[int]] = {v: [] for v in members}
    for x in members:
        for v in g.lower_ideal(x):
            if v in above:
                above[v].append(x)
    return all(sum((ctx.shifted(v, x) for x in xs), ZERO) == Q_PLUS_ONE ** (
        g.length[w] - g.length[v]) for v, xs in above.items())


def shifted_interval_sum(ctx, reach: dict, v: int, w: int) -> IntPoly:
    """Sum of shifted(v, x) over the x with v <= x <= w, where ``reach[x]``
    is the set of elements above x (see ``reachability``)."""
    return sum((ctx.shifted(v, x) for x in reach[v] if w in reach[x]), ZERO)


def coeff_sum(polys) -> tuple[int, ...]:
    """Coefficientwise sum of polynomials, by transposing their coefficient
    tuples: the interval sum before it was packed into integers."""
    return tuple(map(sum, zip_longest(*(p.coeffs for p in polys), fillvalue=0)))


def interval_sum_per_member(ctx, u: int, w: int) -> IntPoly:
    """Sum of shifted(u, x) over the members of [u, w], one memo query and
    one polynomial addition per member."""
    return sum((ctx.shifted(u, x) for x in ctx.group.interval(u, w)), ZERO)


def capped_ideal_by_prefix(group, w: int, cap: int) -> tuple[int, ...]:
    """The u <= w with length(w) - length(u) <= cap: the full lower ideal
    with the too-short prefix cut off (ids run in length order)."""
    ideal = group.lower_ideal(w)
    first = bisect_left(group.length, group.length[w] - cap)
    return ideal[bisect_left(ideal, first):]


def edge_size_tally_per_edge(ctx, examples: int):
    """(edges, equal, strict, equal examples, strict examples) of the sizes
    along every Bruhat edge u -> u*t, visited u-major with the reflections
    ascending, each size from ``bruhat_size``."""
    g = ctx.group
    sizes = [ctx.bruhat_size(g.identity, v) for v in g.elements()]
    tally = {True: [], False: []}  # whether the size stays equal -> edges
    for u in g.elements():
        for t in sorted(g.reflections):
            v = g.mul(u, t)
            if g.length[v] > g.length[u]:
                assert sizes[u] <= sizes[v]
                tally[sizes[u] == sizes[v]].append((g.display(u), g.display(v)))
    equal, strict = tally[True], tally[False]
    return (len(equal) + len(strict), len(equal), len(strict),
            tuple(equal[:examples]), tuple(strict[:examples]))


def dihedral_bounds_per_pair(f: IntPoly, n: int) -> bool:
    """q^n <= f <= d_n and n q^(n-1) <= f' <= d_n', checked afresh."""
    if n < 1:
        return True
    d, fd = analysis.dihedral_poly(n), f.derivative()
    return (coeffwise_leq(monomial(n), f) and coeffwise_leq(f, d)
            and coeffwise_leq(monomial(n - 1, n), fd) and coeffwise_leq(fd, d.derivative()))


def th4_all_pairs(ctx, pairs) -> bool:
    """The th4-bounds verdict over every listed pair: the dihedral bounds,
    and in a dihedral group the upper bound attained."""
    g = ctx.group
    for u, w in pairs:
        n, f = g.length[w] - g.length[u], ctx.shifted(u, w)
        if not dihedral_bounds_per_pair(f, n):
            return False
        if g.descriptor.family == "I2" and f != analysis.dihedral_poly(n):
            return False
    return True


def jacobsthal(n: int) -> int:
    """0, 1, 1, 3, 5, 11, ... with J_n = J_{n-1} + 2 J_{n-2}."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, b + 2 * a
    return a


def dihedral_closed_form_ok(n: int) -> bool:
    """d_n against its closed forms, multiplied out in integer arithmetic:
    (q+2) d_n = q((q+1)^n - (-1)^n) and
    (q+2)^2 d_n' = 2((q+1)^n - (-1)^n) + n q (q+2) (q+1)^(n-1)."""
    d = analysis.dihedral_poly(n)
    if n == 0:
        return d == ONE
    q_plus_2, core = IntPoly((2, 1)), Q_PLUS_ONE ** n - IntPoly(((-1) ** n,))
    return (q_plus_2 * d == Q * core and q_plus_2 ** 2 * d.derivative()
            == 2 * core + IntPoly((0, n)) * q_plus_2 * Q_PLUS_ONE ** (n - 1))


def is_boolean_interval(group, members) -> bool:
    """Whether v -> {atoms below v} maps the interval with ascending ids
    ``members`` one to one onto the sets of its ell atoms, each v to a set
    of size length(v) - length(bottom): an isomorphism onto the Boolean
    lattice of rank ell."""
    base = group.length[members[0]]
    ell = group.length[members[-1]] - base
    atoms = [a for a in members if group.length[a] == base + 1]
    below = {frozenset(a for a in atoms if group.leq(a, v)): group.length[v] - base
             for v in members}
    return (len(atoms) == ell and len(below) == len(members) == 2 ** ell
            and all(len(s) == rank for s, rank in below.items()))


def is_dihedral_interval(graph) -> bool:
    """Rank sizes 1, 2, ..., 2, 1, and each element covered by every element
    one rank up, read off the built Bruhat graph."""
    g, members = graph.group, graph.members
    base = g.length[members[0]]
    ell = g.length[members[-1]] - base
    layers = [[v for v in members if g.length[v] == base + r] for r in range(ell + 1)]
    return ([len(layer) for layer in layers] == [min(r, ell - r, 1) + 1 for r in range(ell + 1)]
            and all(set(above) <= {y for y, _ in graph.out_edges[v]}
                    for below, above in zip(layers, layers[1:]) for v in below))


def size_violations(sizes: dict, pairs) -> int:
    """How many listed pairs (u, w) have size(u) > size(w)."""
    return sum(sizes[u] > sizes[w] for u, w in pairs)


def conjugate_reflections(group) -> tuple[int, ...]:
    """Every conjugate v s v^-1 of every generator s, by a sweep over the group."""
    refl = set()
    for v in group.elements():
        for s in range(group.num_generators):
            refl.add(group.mul(group.mul(v, group.generator(s)), group.inverse[v]))
    return tuple(sorted(refl))


def edge_weight(height: int) -> IntPoly:
    """(q+1)^(h-1) * q, the weight of an edge of height h >= 1."""
    if height < 1:
        raise ValueError("edge height must be >= 1")
    return Q_PLUS_ONE ** (height - 1) * Q


def path_weight(group, path) -> IntPoly:
    """The product of ``edge_weight`` over the edges of a (vertices, labels) path."""
    length, (vertices, _) = group.length, path
    return prod((edge_weight((length[y] - length[x] + 1) // 2)
                 for x, y in zip(vertices, vertices[1:])), start=ONE)


def rtilde_via_paths(paths) -> IntPoly:
    """Sum of q^(absolute length) over listed label-increasing paths (Dyer)."""
    return sum((monomial(len(labels)) for _, labels in paths), ZERO)


def shifted_r_via_weights(group, paths) -> IntPoly:
    """Sum of the path weights over listed label-increasing paths."""
    return sum((path_weight(group, path) for path in paths), ZERO)


def absolute_distance(graph, u: int, w: int) -> int:
    """Directed BFS distance from u to w inside a built Bruhat graph."""
    seen, frontier, steps = {u}, [u], 0
    while w not in seen:
        frontier = [y for v in frontier for y, _ in graph.out_edges[v] if y not in seen]
        if not frontier:
            raise AssertionError("no directed path between comparable interval endpoints")
        seen.update(frontier)
        steps += 1
    return steps


def dihedral_reflection_subgroups(group) -> set[frozenset]:
    """The subgroups generated by two distinct reflections, without repeats,
    each as the closure of the identity under right multiplication by both."""
    columns, out = group.reflection_columns(), set()
    for t1, t2 in combinations(group.reflections, 2):
        pair, seen, frontier = (columns[t1], columns[t2]), {group.identity}, [group.identity]
        while frontier:
            frontier = [y for v in frontier for col in pair if (y := col[v]) not in seen]
            seen.update(frontier)
        out.add(frozenset(seen))
    return out


def order_violations(group, order) -> list[tuple[int, ...]]:
    """The dihedral chains whose ranks in ``order`` neither ascend nor descend;
    a reflection order has none. A dihedral reflection subgroup has two
    canonical generators r < s, the reflections t such that no other
    reflection t' of the subgroup makes t't shorter than t, and its chain is
    r, rsr, rsrsr, ..., srs, s."""
    columns, length, out = group.reflection_columns(), group.length, []
    for subgroup in dihedral_reflection_subgroups(group):
        inside = sorted(t for t in group.reflections if t in subgroup)
        r, s = [t for t in inside
                if not any(x != t and length[columns[t][x]] < length[t] for x in inside)]
        chain, p = [], group.identity
        for _ in inside:
            chain.append(columns[r][p])
            p = columns[s][chain[-1]]
        assert sorted(chain) == inside, "a dihedral chain lists its subgroup's reflections"
        ranks = [order.index(t) for t in chain]
        if ranks != sorted(ranks) and ranks != sorted(ranks, reverse=True):
            out.append(tuple(chain))
    return out


def naive_paths(group, u: int, w: int, order=None, short_only: bool = False) -> list:
    """Every Bruhat path u -> ... -> w, with no graph: the steps from x are
    x*t over all reflections t that raise the length and stay <= w, taken in
    target order, or with an order only those of higher label rank, taken in
    rank order. ``short_only`` keeps the steps that raise the length by one.
    Each path is its pair (vertices, labels)."""
    out = []

    def extend(vertices: tuple, labels: tuple) -> None:
        x = vertices[-1]
        if x == w:
            out.append((vertices, labels))
            return
        steps = []
        for t in group.reflections:
            y = group.mul(x, t)
            gain = group.length[y] - group.length[x]
            if gain > 0 and (gain == 1 or not short_only) and group.leq(y, w):
                steps.append((order.index(t) if order is not None else y, y, t))
        for key, y, t in sorted(steps):
            if order is None or not labels or key > order.index(labels[-1]):
                extend(vertices + (y,), labels + (t,))

    extend((u,), ())
    return out


def smallest_rank_word(chains, order) -> tuple[int, ...]:
    """Smallest label-rank word over listed maximal chains (``short_paths``)."""
    return min(tuple(map(order.index, labels)) for _, labels in chains)


def smallest_rank_word_top_down(graph, u: int, w: int, order) -> tuple[int, ...]:
    """``smallest_rank_word`` without listing the chains: from the top of the
    graph's interval down, each vertex keeps its smallest word to w."""
    length, best = graph.group.length, {w: ()}
    for x in reversed(graph.members):  # members ascend in length
        words = [(order.index(t),) + best[y] for y, t in graph.out_edges[x]
                 if length[y] == length[x] + 1]
        if words:
            best[x] = min(words)
    return best[u]


def el_holds(graph, u: int, w: int, order) -> bool:
    """Exactly one increasing maximal chain, and its rank word is the smallest."""
    increasing = increasing_paths(graph, u, w, order, short_only=True)
    return (len(increasing) == 1
            and tuple(map(order.index, increasing[0][1]))
            == smallest_rank_word(short_paths(graph, u, w), order))


def fibonacci_rec(n: int) -> IntPoly:
    """F_0 = 1, F_1 = q, F_2 = q^2, F_n = q F_{n-1} + F_{n-2}; local copy."""
    polys = [IntPoly((1,)), IntPoly((0, 1)), IntPoly((0, 0, 1))]
    while len(polys) <= n:
        polys.append(IntPoly((0, 1)) * polys[-1] + polys[-2])
    return polys[n]
