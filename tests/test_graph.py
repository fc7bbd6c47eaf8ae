import gc
import random
import weakref
from fractions import Fraction

import pytest

from bruhatpoly import (
    CoxeterDescriptor,
    IncreasingPathCounts,
    IntPoly,
    default_reflection_order,
    distinct_reflection_orders,
    enumerate_group,
    monomial,
    reflection_order_from_word,
    to_dot,
)
from bruhatpoly.graph import InvalidWordError, build_graph, increasing_paths, short_paths
from bruhatpoly.poly import Q, Q_PLUS_ONE, ZERO, average, size
from bruhatpoly.suite import _interval_scope
from oracles import (absolute_distance, edge_weight, el_holds, naive_paths, order_violations,
                     path_weight, rtilde_via_paths, shifted_r_via_weights, smallest_rank_word,
                     smallest_rank_word_top_down)


def lower_graph(group, w):
    return build_graph(group, group.interval(group.identity, w))


def test_figure_one_counts(a3, pid):
    g = lower_graph(a3, pid(a3, "3412"))
    assert len(g.members) == 14
    assert g.num_edges == 29


def test_single_vertex_graph(a3):
    g = build_graph(a3, a3.interval(a3.w0, a3.w0))
    assert len(g.members) == 1 and g.num_edges == 0


def test_s3_edge_count_matches_poincare_derivative(a2):
    # rank generating function of the full group, differentiated at 1
    counts = {}
    for v in a2.elements():
        counts[a2.length[v]] = counts.get(a2.length[v], 0) + 1
    poincare = IntPoly(tuple(counts.get(i, 0) for i in range(max(counts) + 1)))
    g = lower_graph(a2, a2.w0)
    assert g.num_edges == poincare.derivative()(1) == 9


def test_edge_parity_and_heights(a3, a4):
    for group in (a3, a4):
        g = lower_graph(group, group.w0)
        for x, row in g.out_edges.items():
            targets = [y for y, _ in row]
            assert targets == sorted(set(targets))  # one edge per target, in order
            for y, t in row:
                diff = group.length[y] - group.length[x]
                assert diff % 2 == 1
                assert group.mul(x, t) == y


def test_in_degree_law_exhaustive(a3):
    for w in a3.elements():
        g = lower_graph(a3, w)
        into = dict.fromkeys(g.members, 0)
        for row in g.out_edges.values():
            for y, _ in row:
                into[y] += 1
        for v in g.members:
            assert into[v] == g.in_degree[v] == a3.length[v]


def test_absolute_distance(a3, pid):
    e = a3.identity
    g = lower_graph(a3, pid(a3, "3412"))
    assert absolute_distance(g, e, e) == 0
    assert absolute_distance(g, e, pid(a3, "3412")) == 2
    some_target, _ = g.out_edges[e][0]
    assert absolute_distance(g, e, some_target) == 1
    # parity agrees with the Coxeter length difference
    for v in g.members:
        d = absolute_distance(g, e, v)
        assert (a3.length[v] - d) % 2 == 0 and d <= a3.length[v]


def test_edge_weight_values():
    assert edge_weight(1) == Q
    assert edge_weight(2) == Q_PLUS_ONE * Q
    assert edge_weight(3) == (Q_PLUS_ONE ** 2) * Q
    assert size(edge_weight(3)) == 4
    for h in range(1, 7):
        weight = edge_weight(h)
        assert (size(weight), average(weight)) == (2 ** (h - 1), Fraction(h + 1, 2))
    with pytest.raises(ValueError):
        edge_weight(0)


def test_path_weight_multiplicative(a3, pid):
    # the product of the edge weights is (q+1)^((ell-a)/2) q^a
    w = pid(a3, "3412")
    g = lower_graph(a3, w)
    for path in naive_paths(a3, a3.identity, w):
        vertices, labels = path
        for a, b in zip(vertices, vertices[1:]):
            assert [y for y, _ in g.out_edges[a] if y == b] == [b]
        ell, a = a3.length[w], len(labels)
        assert path_weight(a3, path) == Q_PLUS_ONE ** ((ell - a) // 2) * monomial(a)


def test_reflection_order_construction_dihedral(i2_groups):
    m3 = i2_groups[3]
    order = reflection_order_from_word(m3, (0, 1, 0))
    s1 = m3.generator(0)
    s2 = m3.generator(1)
    s1s2s1 = m3.from_word((0, 1, 0))
    assert order == (s1, s1s2s1, s2)
    assert not order_violations(m3, order)


def test_reflection_order_construction_s3(a2):
    order = reflection_order_from_word(a2, a2.reduced_word(a2.w0))
    assert len(set(order)) == 3 == a2.length[a2.w0]
    assert not order_violations(a2, order)


def test_reflection_order_word_validation(a3):
    with pytest.raises(InvalidWordError):
        reflection_order_from_word(a3, (0, 1, 0))  # too short
    with pytest.raises(InvalidWordError):
        reflection_order_from_word(a3, (0, 0, 1, 0, 1, 0))  # not reduced
    with pytest.raises(InvalidWordError):
        reflection_order_from_word(a3, (0, 1, 0, 2, 1, 2))  # reduced but not w0


def test_default_order_valid_on_s4(a3):
    assert order_violations(a3, default_reflection_order(a3)) == []


def test_midchain_swap_is_rejected_in_i2_5(i2_groups):
    m5 = i2_groups[5]
    good = default_reflection_order(m5)
    seq = list(good)
    seq[1], seq[2] = seq[2], seq[1]  # displace one interior chain entry
    [chain] = order_violations(m5, tuple(seq))
    assert set(chain) == set(m5.reflections)


def test_any_order_on_i2_2_is_valid(i2_groups):
    m2 = i2_groups[2]
    t1, t2 = m2.reflections
    for seq in ((t1, t2), (t2, t1)):
        assert not order_violations(m2, seq)


def test_dihedral_groups_admit_exactly_two_orders(i2_groups):
    # the whole group is itself a dihedral reflection subgroup, so the
    # chain condition pins the full order up to reversal
    import itertools
    m5 = i2_groups[5]
    valid = [seq for seq in itertools.permutations(m5.reflections)
             if not order_violations(m5, seq)]
    assert len(valid) == 2
    assert valid[0] == tuple(reversed(valid[1]))
    assert len(distinct_reflection_orders(m5)) == 2


@pytest.mark.parametrize("spec, count", [("A1", 1), ("A2", 2)]
                         + [(f"I2:{m}", 2) for m in range(2, 13)]
                         + [(f"A{n}", 3) for n in range(3, 8)])
def test_distinct_reflection_orders_per_group(spec, count):
    # the three seeds alone: a dihedral group admits exactly two orders
    orders = distinct_reflection_orders(enumerate_group(CoxeterDescriptor.parse(spec)))
    assert len(set(orders)) == len(orders) == count


def test_three_distinct_valid_orders_on_s4(a3):
    orders = distinct_reflection_orders(a3)
    assert len(orders) == 3
    assert len(set(orders)) == 3
    for o in orders:
        assert not order_violations(a3, o)


def test_increasing_paths_basics(a3, pid):
    e = a3.identity
    w = pid(a3, "3412")
    g = lower_graph(a3, w)
    order = default_reflection_order(a3)
    assert increasing_paths(g, e, e, order) == [((e,), ())]
    poly = ZERO
    for _, labels in increasing_paths(g, e, w, order):
        poly = poly + monomial(len(labels))
    assert poly == IntPoly((0, 0, 1, 0, 1))  # q^4 + q^2
    a_target, _ = g.out_edges[e][0]
    singletons = [p for p in increasing_paths(g, e, a_target, order) if len(p[1]) == 1]
    assert len(singletons) == 1
    # each listed path is a pair of id tuples, one more vertex than labels,
    # from u to w, each vertex the one before times its edge's label
    for u, top in ((e, w), (pid(a3, "1324"), w), (e, a_target)):
        listed = (increasing_paths(g, u, top, order) + increasing_paths(g, u, top, order, True)
                  + short_paths(g, u, top))
        assert listed
        for path in listed:
            assert type(path) is tuple and len(path) == 2
            vertices, labels = path
            assert type(vertices) is tuple and type(labels) is tuple
            assert len(vertices) == len(labels) + 1
            assert (vertices[0], vertices[-1]) == (u, top)
            for k, t in enumerate(labels):
                assert vertices[k + 1] == a3.mul(vertices[k], t)


def test_increasing_path_sum_is_order_invariant(a3, i2_groups):
    for group in (a3, i2_groups[8]):
        orders = distinct_reflection_orders(group)
        for u, w in group.comparable_pairs():
            g = build_graph(group, group.interval(u, w))
            sums = []
            for order in orders:
                acc = ZERO
                for _, labels in increasing_paths(g, u, w, order):
                    acc = acc + monomial(len(labels))
                sums.append(acc)
            assert len(set(sums)) == 1


def test_short_only_gives_unique_maximal_chain(a3, pid):
    order = default_reflection_order(a3)
    for w_str in ("3412", "4231", "4321"):
        w = pid(a3, w_str)
        g = lower_graph(a3, w)
        chains = increasing_paths(g, a3.identity, w, order, short_only=True)
        assert len(chains) == 1
        assert len(chains[0][1]) == a3.length[w]
        # a short path of length k weighs exactly q^k
        assert path_weight(a3, chains[0]) == monomial(a3.length[w])


def test_empty_path_weighs_one(a3):
    g = build_graph(a3, a3.interval(a3.identity, a3.identity))
    order = default_reflection_order(a3)
    (empty,) = increasing_paths(g, a3.identity, a3.identity, order)
    assert path_weight(a3, empty) == IntPoly((1,))


def test_all_paths_examples(a3, i2_groups, pid):
    assert len(naive_paths(a3, a3.identity, a3.identity)) == 1
    # Boolean square: two saturated chains, no long edges
    square_top = pid(a3, "2143")
    paths = naive_paths(a3, a3.identity, square_top)
    assert len(paths) == 2 and all(len(labels) == 2 for _, labels in paths)
    # the full dihedral interval of I2(3) contains the long edge bottom -> top
    m3 = i2_groups[3]
    lengths = {len(labels) for _, labels in naive_paths(m3, m3.identity, m3.w0)}
    assert 1 in lengths


@pytest.mark.parametrize("spec", ["A3", "I2:5"])
def test_path_listings_match_naive_lister(spec):
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    orders = distinct_reflection_orders(group)
    for u, w in group.comparable_pairs():
        g = build_graph(group, group.interval(u, w))
        assert short_paths(g, u, w) == naive_paths(group, u, w, short_only=True)
        for order in orders:
            for short_only in (False, True):
                assert (increasing_paths(g, u, w, order, short_only)
                        == naive_paths(group, u, w, order, short_only))


@pytest.mark.parametrize("walk", [
    lambda g, u, w: increasing_paths(g, u, w, default_reflection_order(g.group)),
    lambda g, u, w: short_paths(g, u, w),
], ids=["increasing_paths", "short_paths"])
def test_walk_keeps_no_graph_alive(walk):
    # with the cyclic collector off, only a reference cycle can outlive the
    # last reference; the walk must not build one through the graph, which
    # would keep the graph's group alive (a graph, a tuple, takes no weak
    # reference, so the test watches a freshly enumerated group)
    group = enumerate_group(CoxeterDescriptor.parse("A3"))
    g = lower_graph(group, group.w0)
    gone = weakref.ref(group)
    e, w0 = group.identity, group.w0
    del group
    gc.disable()
    try:
        assert walk(g, e, w0)
        del g
        assert gone() is None
    finally:
        gc.enable()


def test_short_paths_are_saturated(a3, pid):
    w = pid(a3, "4321")
    g = lower_graph(a3, w)
    chains = short_paths(g, a3.identity, w)
    assert all(len(labels) == 6 for _, labels in chains)
    # independent count: dynamic programming over covering edges
    counts = dict.fromkeys(g.members, 0)
    counts[a3.identity] = 1
    for x in g.members:  # ascending length: counts[x] is final here
        for y, _ in g.out_edges[x]:
            if a3.length[y] == a3.length[x] + 1:
                counts[y] += counts[x]
    assert len(chains) == counts[w]


def shuffled_order(group, seed):
    """A seeded random order on the reflections, mostly not a reflection order."""
    sequence = list(group.reflections)
    random.Random(seed).shuffle(sequence)
    return tuple(sequence)


def test_chain_count_matches_enumeration(a1, a2, a3, a4, i2_groups):
    failing = 0
    for group in (a1, a2, a3, a4, i2_groups[3], i2_groups[5], i2_groups[8]):
        orders = distinct_reflection_orders(group) + [shuffled_order(group, 7)]
        counters = [IncreasingPathCounts(group, order) for order in orders]
        for u, w in _interval_scope(group):
            g = build_graph(group, group.interval(u, w))
            chains = short_paths(g, u, w)
            for order, paths in zip(orders, counters):
                count, first_increasing = paths.increasing_chains(u, w)
                assert count == len(increasing_paths(g, u, w, order, short_only=True))
                first = tuple(paths.lex_first(u, w))
                assert first == smallest_rank_word(chains, order)
                assert first_increasing == all(a < b for a, b in zip(first, first[1:]))
                if order is orders[-1]:  # the shuffled one, where both verdicts occur
                    assert ((count, first_increasing) == (1, True)) == el_holds(g, u, w, order)
                failing += (count, first_increasing) != (1, True)
    assert failing > 0  # the shuffled orders exercise the failing side


def test_chain_count_rejects_a_vertex_without_cover(a3, pid):
    w = pid(a3, "3412")
    paths = IncreasingPathCounts(a3, default_reflection_order(a3))
    assert paths.increasing_chains(a3.identity, w) == (1, True)
    # shorter than w but not below it: the walk up from it meets no cover below w
    u = pid(a3, "4123")
    assert a3.length[u] < a3.length[w] and not a3.leq(u, w)
    with pytest.raises(AssertionError):
        paths.increasing_chains(u, w)


def test_path_counts_refuse_an_order_that_is_not_a_permutation(a3, i2_groups):
    # a repeated or a dropped reflection would count paths wrongly, silently
    base = default_reflection_order(a3)
    for order in ((*base[:-1], base[0]), base[:-1]):
        with pytest.raises(ValueError, match="every reflection"):
            IncreasingPathCounts(a3, order)
    for group in (a3, i2_groups[5]):
        for order in distinct_reflection_orders(group):
            assert IncreasingPathCounts(group, order).counts(group.identity, group.w0)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "I2:2", "I2:5", "I2:8", "A5"])
def test_path_counts_match_the_listing(spec):
    # every interval, or every lower interval of A5: the counts per bottom and
    # order against one listing per (interval, order). The smallest rank word
    # of the maximal chains is found from the top down, and checked against
    # their listing except on A4 and A5, where they are too many to list.
    # Where the pairs are all comparable pairs, fresh counters then walk them
    # again in a seeded shuffle, so that bottoms interleave and tops descend.
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    pairs = ([(group.identity, w) for w in group.elements()] if spec == "A5"
             else group.comparable_pairs())
    shuffled = shuffled_order(group, 7)
    orders = distinct_reflection_orders(group) + [shuffled]
    counters = [IncreasingPathCounts(group, order) for order in orders]
    failing = {order: ([], []) for order in orders}  # (by the pass, by the listing)
    found = {}  # (order, u, w) -> what the counters gave in id order
    for u, w in pairs:
        g = build_graph(group, group.interval(u, w))
        chains = short_paths(g, u, w) if spec not in ("A4", "A5") else None
        for order, paths in zip(orders, counters):
            listed = increasing_paths(g, u, w, order)
            assert paths.counts(u, w) == rtilde_via_paths(listed).coeffs
            assert paths.shifted(u, w) == shifted_r_via_weights(group, listed)
            count, first_increasing = paths.increasing_chains(u, w)
            listed_chains = increasing_paths(g, u, w, order, short_only=True)
            assert count == len(listed_chains)
            first = smallest_rank_word_top_down(g, u, w, order)
            if chains is not None:
                assert first == smallest_rank_word(chains, order)
            assert tuple(paths.lex_first(u, w)) == first
            if (count, first_increasing) != (1, True):
                failing[order][0].append((u, w))
            if len(listed_chains) != 1 or any(a >= b for a, b in zip(first, first[1:])):
                failing[order][1].append((u, w))
            found[order, u, w] = (paths.counts(u, w), paths.shifted(u, w), (count, first_increasing))
    if spec != "A5":
        counters = [IncreasingPathCounts(group, order) for order in orders]
        for u, w in random.Random(11).sample(pairs, len(pairs)):
            for order, paths in zip(orders, counters):
                assert (paths.counts(u, w), paths.shifted(u, w),
                        paths.increasing_chains(u, w)) == found[order, u, w]
    for order in orders:
        by_pass, by_listing = failing[order]
        assert by_pass == by_listing
        assert bool(by_pass) == bool(order_violations(group, order))
    if len(group.reflections) > 3:  # every order of I2(2) is valid, and so is A2's shuffle
        assert failing[shuffled][0]


def test_dot_export(a3, i2_groups, pid):
    g = lower_graph(a3, pid(a3, "3412"))
    dot = to_dot(a3, g.members)
    assert dot.count(" -> ") == 29
    assert dot.count('label="') == 14 + dot.count("style=dashed")
    assert dot.count("style=dashed") == 2  # the two long edges from the bottom
    assert to_dot(a3, g.members) == dot  # deterministic
    # full dihedral interval of I2(5): enumeration gives 25 edges,
    # 16 covering and 9 long (the in-degree law forces the total)
    m5 = i2_groups[5]
    g5 = lower_graph(m5, m5.w0)
    assert len(g5.members) == 10
    assert g5.num_edges == sum(m5.length) == 25
    short = [m5.length[y] - m5.length[x] == 1 for x, row in g5.out_edges.items() for y, _ in row]
    assert short.count(True) == 16
    assert short.count(False) == 9
    d5 = to_dot(m5, g5.members)
    assert d5.count(" -> ") == 25
    assert d5.count("style=dashed") == 9
