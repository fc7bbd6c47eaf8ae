import math
import random
from fractions import Fraction

import pytest

from bruhatpoly import (
    CoxeterDescriptor,
    IntPoly,
    RContext,
    coeffwise_leq,
    default_reflection_order,
    enumerate_group,
)
from bruhatpoly import analysis
from bruhatpoly.graph import build_graph, increasing_paths
from bruhatpoly.cli import main
from bruhatpoly.poly import ONE, Q, Q_PLUS_ONE, ZERO, monomial, size, split_fields, total
from oracles import (coeff_sum, dihedral_bounds_per_pair, dihedral_closed_form_ok,
                     edge_size_tally_per_edge, fibonacci_rec, graph_degrees,
                     interval_sum_per_member, is_boolean_interval, is_dihedral_interval,
                     jacobsthal, p1_p2_from_graph, path_weight, reachability,
                     regular_by_graph_degrees, shifted_interval_sum, upper_boolean_one_pass,
                     upper_boolean_per_v)


def test_poincare_values(a3, a3_ctx, pid):
    assert analysis.poincare(a3_ctx, pid(a3, "3412")) == IntPoly((1, 3, 5, 4, 1))
    assert analysis.poincare(a3_ctx, a3.identity) == ONE
    assert analysis.poincare(a3_ctx, pid(a3, "4231")) == IntPoly((1, 3, 5, 6, 4, 1))


@pytest.mark.parametrize("spec", ["A4", "I2:7"])
def test_poincare_counts_every_lower_interval_by_rank(spec):
    # the ranks of {v : w is reachable from v} along the Bruhat edges
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx, reach = RContext(group), reachability(group)
    for w in group.elements():
        ranks = [0] * (group.length[w] + 1)
        for v in group.elements():
            if w in reach[v]:
                ranks[group.length[v]] += 1
        assert analysis.poincare(ctx, w) == IntPoly(tuple(ranks)), group.display(w)


def test_poincare_at_minus_one(a3, a3_ctx):
    for w in a3.elements():
        value = analysis.poincare(a3_ctx, w)(-1)
        assert value == (1 if w == a3.identity else 0)


def test_poincare_bounds(a3, a3_ctx, i2_ctxs, pid):
    # between the rank profile 1, 2, ..., 2, 1 of a dihedral poset and (1+q)^n
    for w in a3.elements():
        n, p = a3.length[w], analysis.poincare(a3_ctx, w)
        if n:
            assert coeffwise_leq(IntPoly((1,) + (2,) * (n - 1) + (1,)), p)
            assert coeffwise_leq(p, Q_PLUS_ONE ** n)
    ctx7 = i2_ctxs[7]
    w0 = ctx7.group.w0
    assert analysis.poincare(ctx7, w0) == IntPoly((1, 2, 2, 2, 2, 2, 2, 1))
    # Boolean lower interval attains the ceiling
    assert analysis.poincare(a3_ctx, pid(a3, "2143")) == Q_PLUS_ONE ** 2


def test_regularity_of_figure_one(a3, a3_ctx, pid):
    w = pid(a3, "3412")
    assert not analysis.is_regular(a3_ctx, a3.identity, w)
    degrees = graph_degrees(a3, a3.identity, w)
    assert sorted(a3.display(v) for v, d in degrees.items() if d == 5) == ["1234", "1324"]
    assert all(d == 4 for d in degrees.values() if d != 5)


def test_full_group_interval_is_regular(a3, a4, i2_groups):
    for group in (a3, a4, i2_groups[7]):
        assert analysis.is_regular(RContext(group), group.identity, group.w0)
        assert regular_by_graph_degrees(group, group.identity, group.w0)


def test_short_intervals_are_regular(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        if a3.length[w] - a3.length[u] <= 2:
            assert analysis.is_regular(a3_ctx, u, w)
            assert regular_by_graph_degrees(a3, u, w)


# (comparable pairs, degree-regular intervals) of each group
REGULAR_INTERVALS = {"A1": (3, 3), "A2": (19, 19), "A3": (213, 203), "A4": (3_781, 3_175),
                     "I2:2": (9, 9), "I2:3": (19, 19), "I2:4": (33, 33), "I2:5": (51, 51),
                     "I2:6": (73, 73), "I2:7": (99, 99), "I2:8": (129, 129)}


@pytest.mark.parametrize("spec", sorted(REGULAR_INTERVALS))
def test_degree_regularity_at_representatives_matches_the_graph(spec):
    g = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx = RContext(g)
    verdicts = {(u, w): analysis.is_regular(ctx, u, w) for u, w in g.comparable_pairs()}
    assert verdicts == {pair: regular_by_graph_degrees(g, *pair) for pair in verdicts}
    assert (len(verdicts), sum(verdicts.values())) == REGULAR_INTERVALS[spec]


def test_degree_regularity_at_representatives_on_a5_and_a6_lower_intervals():
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    ctx = RContext(a5)
    verdicts = [analysis.is_regular(ctx, a5.identity, w) for w in a5.elements()]
    assert verdicts == [regular_by_graph_degrees(a5, a5.identity, w) for w in a5.elements()]
    assert (len(verdicts), sum(verdicts)) == (720, 366)
    a6 = enumerate_group(CoxeterDescriptor("A", 6))
    ctx = RContext(a6)
    assert sum(analysis.is_regular(ctx, a6.identity, w) for w in a6.elements()) == 1_552


# filters of the x to test that a wrong representative route might use, each
# with the number of intervals of A3 on which its verdict misses the graph's
MUTANT_FILTERS = {
    "ignores the descents of u": (lambda d, u, w, x: not d[x] & d[w], 8),
    "tests only the bottom": (lambda d, u, w, x: x == u, 4),
}


def test_wrong_representative_filters_disagree_with_the_graph(a3):
    descents, misses = a3.descents, dict.fromkeys(MUTANT_FILTERS, 0)
    for u, w in a3.comparable_pairs():
        ell, degrees = a3.length[w] - a3.length[u], graph_degrees(a3, u, w)
        regular = all(d == ell for d in degrees.values())
        for name, (keep, _) in MUTANT_FILTERS.items():
            misses[name] += regular != all(d == ell for x, d in degrees.items()
                                           if keep(descents, u, w, x))
    assert misses == {name: caught for name, (_, caught) in MUTANT_FILTERS.items()}


def test_carrell_peterson_values(a3, a3_ctx, pid):
    avg, eq = analysis.carrell_peterson_equal(a3_ctx, pid(a3, "3412"))
    assert avg == Fraction(29, 14) and not eq
    avg_e, eq_e = analysis.carrell_peterson_equal(a3_ctx, a3.identity)
    assert avg_e == 0 and eq_e
    avg2, eq2 = analysis.carrell_peterson_equal(a3_ctx, pid(a3, "4231"))
    assert avg2 == Fraction(52, 20) and not eq2


def test_bruhat_poincare_products(a3, a3_ctx, pid):
    # the 4231 identity from the worked example holds on the nose
    assert analysis.bruhat_poincare(a3_ctx, pid(a3, "4231")) == \
        (Q_PLUS_ONE ** 3) * IntPoly((1, 3, 1))
    # summing Table 1 shifted values over the 14-element interval gives
    # (1+q)(1+4q+4q^2+q^3); its average is exactly 2
    pb = analysis.bruhat_poincare(a3_ctx, pid(a3, "3412"))
    assert pb == Q_PLUS_ONE * IntPoly((1, 4, 4, 1))
    assert pb == IntPoly((1, 5, 8, 5, 1))
    from bruhatpoly.poly import average
    assert average(pb) == 2
    assert analysis.bruhat_poincare(a3_ctx, a3.w0) == Q_PLUS_ONE ** 6


def test_bruhat_poincare_dominates_poincare(a3, a3_ctx, a4, a4_ctx):
    for ctx in (a3_ctx, a4_ctx):
        for w in ctx.group.elements():
            p = analysis.poincare(ctx, w)
            pb = analysis.bruhat_poincare(ctx, w)
            assert coeffwise_leq(p, pb)
            assert pb(-1) == p(-1)


def test_splitting_identity_by_path_enumeration(a3, a3_ctx):
    # Bruhat-Poincare = Poincare + weights of long increasing paths
    order = default_reflection_order(a3)
    for w in a3.elements():
        graph = build_graph(a3, a3.interval(a3.identity, w))
        long_sum = ZERO
        for v in graph.members:
            for path in increasing_paths(graph, a3.identity, v, order):
                if a3.length[v] != len(path[1]):  # l(v) - l(e) against the edge count
                    long_sum = long_sum + path_weight(a3, path)
        expected = analysis.poincare(a3_ctx, w) + long_sum
        assert analysis.bruhat_poincare(a3_ctx, w) == expected


def test_bruhat_boolean_examples(a3, a3_ctx, i2_ctxs, pid):
    ctx3 = i2_ctxs[3]
    assert analysis.is_bruhat_boolean(ctx3, ctx3.group.identity, ctx3.group.w0)
    u = pid(a3, "2143")
    assert analysis.is_bruhat_boolean(a3_ctx, u, u)
    assert not analysis.is_bruhat_boolean(a3_ctx, a3.identity, pid(a3, "4231"))


def test_regular_via_upper_boolean(a3, a3_ctx, i2_ctxs, pid):
    assert not analysis.regular_via_upper_boolean(a3_ctx, a3.identity, pid(a3, "3412"))
    s1 = a3.generator(0)
    assert analysis.regular_via_upper_boolean(a3_ctx, a3.identity, s1)
    ctx7 = i2_ctxs[7]
    assert analysis.regular_via_upper_boolean(ctx7, ctx7.group.identity, ctx7.group.w0)


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "I2:3", "I2:5", "I2:8"])
def test_upper_boolean_sweep_matches_per_v_definition(spec):
    g = enumerate_group(CoxeterDescriptor.parse(spec))
    sweep_ctx, oracle_ctx = RContext(g), RContext(g)
    verdicts = {(u, w): analysis.regular_via_upper_boolean(sweep_ctx, u, w)
                for u, w in g.comparable_pairs()}
    assert verdicts == {pair: upper_boolean_per_v(oracle_ctx, *pair) for pair in verdicts}
    # S4 and S5 hold irregular intervals, so both verdicts are exercised
    assert all(verdicts.values()) == (spec not in ("A3", "A4"))


# (left moves, right moves) (v, w) -> (sv, w), (vs, w) with s a descent of w and sv > v
DESCENT_MOVES = {"A1": (1, 1), "A2": (12, 12), "A3": (194, 194), "A4": (4_460, 4_460),
                 "I2:2": (6, 6), "I2:3": (12, 12), "I2:5": (30, 30), "I2:8": (72, 72)}


@pytest.mark.parametrize("spec", sorted(DESCENT_MOVES))
def test_interval_sum_descent_identity(spec):
    # S(v, w) = (q+1) S(sv, w) for every left descent s of w with sv > v, and
    # the mirror on the right, with S summed over the oracle order relation
    g = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx, reach = RContext(g), reachability(g)
    sums: dict = {}

    def S(v, w):
        if (v, w) not in sums:
            sums[v, w] = shifted_interval_sum(ctx, reach, v, w)
        return sums[v, w]

    length, moves = g.length, [0, 0]
    for v in g.elements():
        for w in reach[v]:
            for side, table in enumerate((g.left, g.right)):
                for s in range(g.num_generators):
                    sv, sw = table[s][v], table[s][w]
                    if length[sw] < length[w] and length[sv] > length[v]:
                        moves[side] += 1
                        assert S(v, w) == Q_PLUS_ONE * S(sv, w)
    assert tuple(moves) == DESCENT_MOVES[spec]


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "I2:2", "I2:3", "I2:5", "I2:8"])
def test_upper_boolean_sweep_matches_one_pass_on_every_interval(spec):
    g = enumerate_group(CoxeterDescriptor.parse(spec))
    sweep_ctx, oracle_ctx = RContext(g), RContext(g)
    for u, w in g.comparable_pairs():
        assert analysis.regular_via_upper_boolean(sweep_ctx, u, w) == \
            upper_boolean_one_pass(oracle_ctx, u, w)


def test_upper_boolean_sweep_matches_one_pass_on_a5_lower_intervals():
    g = enumerate_group(CoxeterDescriptor("A", 5))
    sweep_ctx, oracle_ctx = RContext(g), RContext(g)
    verdicts = [analysis.regular_via_upper_boolean(sweep_ctx, g.identity, w)
                for w in g.elements()]
    assert verdicts == [upper_boolean_one_pass(oracle_ctx, g.identity, w) for w in g.elements()]
    assert 0 < sum(verdicts) < len(verdicts)


def test_upper_boolean_sweep_on_i2_500_sums_over_w0_alone():
    # [e, w0] of I2(500): w0 is the only v whose descents contain those of w0,
    # so the sweep evaluates one shifted polynomial, not one per pair
    g = enumerate_group(CoxeterDescriptor("I2", 500))
    ctx = RContext(g)
    calls = []
    family = ctx._family
    ctx._family = lambda name, u, w: calls.append((name, u, w)) or family(name, u, w)
    assert analysis.regular_via_upper_boolean(ctx, g.identity, g.w0)
    assert calls == [("shifted", g.w0, g.w0)]


def test_upper_boolean_verdict_is_kept_per_pair(a3, pid, monkeypatch):
    ctx = RContext(a3)
    w = pid(a3, "3412")
    assert not analysis.regular_via_upper_boolean(ctx, a3.identity, w)
    monkeypatch.setattr(a3, "lower_ideal", None)  # a second sweep would fail
    assert not analysis.regular_via_upper_boolean(ctx, a3.identity, w)


def test_degree_and_boolean_regularity_agree_on_lower_intervals(a3, a3_ctx):
    for w in a3.elements():
        assert analysis.is_regular(a3_ctx, a3.identity, w) == \
            analysis.regular_via_upper_boolean(a3_ctx, a3.identity, w)


def test_regularity_notions_diverge_off_lower_intervals(a3, a3_ctx, pid):
    # [1324, 3421]: every upper subinterval is Bruhat-Boolean, yet the
    # induced graph has a degree-5 vertex. The two notions separate here,
    # and the out-degree of the bottom equals the length (no strictness).
    u, w = pid(a3, "1324"), pid(a3, "3421")
    assert not analysis.is_regular(a3_ctx, u, w)
    assert max(graph_degrees(a3, u, w).values()) == 5
    assert analysis.regular_via_upper_boolean(a3_ctx, u, w)
    assert analysis.interval_shifted_sum(a3_ctx, u, w).coeffs[1] == 4 == a3.length[w] - a3.length[u]
    assert analysis.interval_shifted_sum(a3_ctx, u, w) == Q_PLUS_ONE ** 4


def test_shifted_average_criterion(a3, a3_ctx, pid):
    # silent on both singular elements of S4: averages land exactly on l/2
    avg, fired = analysis.shifted_average_fires(a3_ctx, pid(a3, "3412"))
    assert avg == 2 and not fired
    avg_e, fired_e = analysis.shifted_average_fires(a3_ctx, a3.identity)
    assert not fired_e
    avg2, fired2 = analysis.shifted_average_fires(a3_ctx, pid(a3, "4231"))
    assert avg2 == Fraction(5, 2) and not fired2


def test_shifted_average_criterion_is_sound(a3, a3_ctx, a4, a4_ctx):
    fired_in_a4 = []
    for ctx in (a3_ctx, a4_ctx):
        group = ctx.group
        for w in group.elements():
            _, fired = analysis.shifted_average_fires(ctx, w)
            if fired:
                assert not analysis.is_regular(ctx, group.identity, w)
                if group is a4:
                    fired_in_a4.append(group.display(w))
    # the one-way test is silent on all of S4 but catches 10 of the 32
    # irregular lower intervals of the next symmetric group
    assert len(fired_in_a4) == 10
    assert "34512" in fired_in_a4


def test_f_tilde_values(a3, a3_ctx, pid):
    e = a3.identity
    w = pid(a3, "3412")
    vector = analysis.interval_shifted_sum(a3_ctx, e, w).coeffs
    assert vector[0] == 1
    assert vector[1] == 5
    # five increasing two-step paths land on the rank-two elements and a
    # sixth continues to the top, so the q^2 coefficient is 2 + 6
    assert vector[2] == 8
    assert vector == (1, 5, 8, 5, 1)


def test_f_tilde_zero_is_one_everywhere(a3_ctx, a4_ctx, i2_ctxs):
    # the sum has degree exactly ell, with both end coefficients 1
    for ctx in (a3_ctx, a4_ctx, i2_ctxs[8]):
        length = ctx.group.length
        for u, w in ctx.group.comparable_pairs():
            coeffs = analysis.interval_shifted_sum(ctx, u, w).coeffs
            assert len(coeffs) == length[w] - length[u] + 1
            assert coeffs[0] == coeffs[-1] == 1


def test_p1_p2_values(a3, a3_ctx, i2_ctxs, pid):
    order = default_reflection_order(a3)
    e = a3.identity

    def p1_p2(w):
        members = a3.interval(e, w)
        return analysis.p1_p2(a3, members, order, analysis.interval_shifted_sum(a3_ctx, e, w))

    assert p1_p2(pid(a3, "3412")) == (2, 6)
    s1 = a3.generator(0)
    assert p1_p2(s1) == (0, 0)
    # Boolean square: a single increasing two-step chain
    assert p1_p2(pid(a3, "2143")) == (0, 1)
    # the sum it is handed must carry p1 + p2 as its q^2 coefficient
    members = a3.interval(e, pid(a3, "3412"))
    with pytest.raises(AssertionError, match="q\\^2 coefficient"):
        analysis.p1_p2(a3, members, order, Q_PLUS_ONE ** 4)


def test_p1_p2_sum_is_order_invariant(a3, a3_ctx):
    from bruhatpoly import distinct_reflection_orders
    orders = distinct_reflection_orders(a3)
    for u, w in a3.comparable_pairs():
        members = a3.interval(u, w)
        interval_sum = analysis.interval_shifted_sum(a3_ctx, u, w)
        values = {analysis.p1_p2(a3, members, o, interval_sum) for o in orders}
        # p1 never moves; p2 is order-invariant as well
        assert len(values) == 1


def test_p1_p2_matches_the_built_graph(a3_ctx, a4_ctx, i2_ctxs):
    # p1_p2 reads two levels of rows off the reflection columns; the oracle
    # reads them off the whole built graph, on every interval
    for ctx in (a3_ctx, a4_ctx, i2_ctxs[7]):
        group = ctx.group
        base = default_reflection_order(group)
        for u, w in group.comparable_pairs():
            members = group.interval(u, w)
            graph = build_graph(group, members)
            interval_sum = analysis.interval_shifted_sum(ctx, u, w)
            for order in (base, base[::-1]):
                assert (analysis.p1_p2(group, members, order, interval_sum)
                        == p1_p2_from_graph(graph, order))


def test_deodhar_examples(a3, a3_ctx, i2_ctxs, pid):
    v = analysis.deodhar_check(a3_ctx, a3.identity, pid(a3, "3412"))
    assert v.f1 == 5 > 4 and v.f1_strict
    assert v.f2 == 8 > 6 and v.f2_strict
    assert not v.degree_regular and not v.boolean_regular
    assert v.consistent
    ctx5 = i2_ctxs[5]
    g5 = ctx5.group
    v5 = analysis.deodhar_check(ctx5, g5.identity, g5.w0)
    assert v5.f1 == 5 == v5.ell and not v5.f1_strict
    assert v5.boolean_regular and v5.consistent


def test_deodhar_on_boolean_intervals(a3, a3_ctx):
    found = 0
    for u, w in a3.comparable_pairs():
        if is_boolean_interval(a3, a3.interval(u, w)):
            found += 1
            v = analysis.deodhar_check(a3_ctx, u, w)
            assert v.f1 == v.ell
            assert v.f2 == math.comb(v.ell, 2)
            assert v.boolean_regular
    assert found > 20


def test_deodhar_suite_all_s4(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        v = analysis.deodhar_check(a3_ctx, u, w)
        assert v.f1_holds and v.f2_holds and v.consistent


def test_dihedral_polys_table(i2_ctxs):
    expected = {
        0: ONE,
        1: Q,
        2: monomial(2),
        3: IntPoly((0, 1, 1, 1)),
        4: IntPoly((0, 0, 2, 2, 1)),
        5: IntPoly((0, 1, 2, 4, 3, 1)),
        6: IntPoly((0, 0, 3, 6, 7, 4, 1)),
        7: IntPoly((0, 1, 3, 9, 13, 11, 5, 1)),
        8: IntPoly((0, 0, 4, 12, 22, 24, 16, 6, 1)),
    }
    sizes = (1, 1, 1, 3, 5, 11, 21, 43, 85)
    totals = (0, 1, 2, 6, 14, 34, 78, 178, 398)
    for n, poly in expected.items():
        assert analysis.dihedral_poly(n) == poly
        d = analysis.dihedral_poly(n)
        assert (size(d), total(d)) == (sizes[n], totals[n])


def test_dihedral_closed_form(i2_ctxs):
    for n in range(0, 21):
        assert dihedral_closed_form_ok(n)


def test_bound_polynomials_of_high_index():
    # n is above the interpreter's recursion limit; d_n is built by iteration
    assert dihedral_closed_form_ok(1200)


def test_dihedral_series_matches_recursion():
    series = analysis.dihedral_series(21)
    assert series[0] == ONE
    for n in range(21):
        assert series[n] == analysis.dihedral_poly(n)


def test_dihedral_table_extends_one_kept_list(monkeypatch, capsys):
    # d_3, ..., d_200 are each built once from the kept list: two products each
    monkeypatch.setattr(analysis, "_DIHEDRAL", analysis._DIHEDRAL[:3])
    calls = []
    mul = IntPoly.__mul__
    monkeypatch.setattr(IntPoly, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
    assert main(["table", "--table", "dihedral", "--max-n", "200"]) == 0
    assert capsys.readouterr().out.count("\n") == 202
    assert len(calls) <= 400
    with pytest.raises(ValueError):
        analysis.dihedral_poly(-1)


def test_jacobsthal():
    assert [jacobsthal(n) for n in range(9)] == [0, 1, 1, 3, 5, 11, 21, 43, 85]
    for n in range(1, 21):
        assert size(analysis.dihedral_poly(n)) == jacobsthal(n)
        assert jacobsthal(n) == (2 ** n - (-1) ** n) // 3
    # closed form for the totals
    for n in range(1, 15):
        assert 9 * total(analysis.dihedral_poly(n)) == \
            2 * (2 ** n - (-1) ** n + 3 * n * 2 ** (n - 2))


def test_dihedral_upper_bound_attained(i2_ctxs):
    for m in (5, 10, 12):
        ctx = i2_ctxs[m]
        g = ctx.group
        for u, w in g.comparable_pairs():
            n = g.length[w] - g.length[u]
            assert ctx.shifted(u, w) == analysis.dihedral_poly(n)


def test_bounds_check(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        assert analysis.dihedral_bounds_ok(a3_ctx, u, w)


def test_bounds_per_value_match_per_pair(a4, i2_groups):
    for g in (a4, i2_groups[12]):
        ctx = RContext(g)
        for u, w in g.comparable_pairs():
            n = g.length[w] - g.length[u]
            assert analysis.dihedral_bounds_ok(ctx, u, w) == \
                dihedral_bounds_per_pair(ctx.shifted(u, w), n)
        # one verdict per distinct (length, shifted) value
        values = {(g.length[w] - g.length[u], ctx.shifted(u, w))
                  for u, w in g.comparable_pairs() if u != w}
        assert len(ctx.verdicts) == len(values) < len(g.comparable_pairs())


def test_bounds_reject_a_polynomial_above_d_n(a4):
    # q^3 + 3q is above q^3, but its q coefficient exceeds that of d_3 = q^3 + q^2 + q
    ctx = RContext(a4)
    u, w = next((u, w) for u, w in a4.comparable_pairs()
                if a4.length[w] - a4.length[u] == 3)
    bad = IntPoly((0, 3, 0, 1))
    assert not dihedral_bounds_per_pair(bad, 3)
    ctx.shifted = lambda *pair: bad
    assert not analysis.dihedral_bounds_ok(ctx, u, w)


def test_boolean_intervals_attain_lower_bound(a3, a3_ctx):
    found = 0
    for u, w in a3.comparable_pairs():
        if is_boolean_interval(a3, a3.interval(u, w)):
            found += 1
            n = a3.length[w] - a3.length[u]
            assert a3_ctx.shifted(u, w) == monomial(n)
            assert a3_ctx.rtilde(u, w) == monomial(n)
    assert found > 20


def test_pattern_containment(a3, pid):
    assert analysis.pattern_contains((3, 4, 1, 2), "3412")
    assert analysis.pattern_contains((4, 2, 3, 1), "4231")
    assert not analysis.is_singular((1, 2, 3, 4))
    assert analysis.is_singular((3, 4, 1, 2))
    assert analysis.is_singular((4, 2, 3, 1))
    assert not analysis.is_singular((4, 3, 2, 1))
    with pytest.raises(ValueError):
        analysis.pattern_contains((1, 2, 3, 4), "1234")


def test_singularity_matches_irregularity(a3, a3_ctx):
    for w in a3.elements():
        assert analysis.is_singular(a3.form(w)) == \
            (not analysis.is_regular(a3_ctx, a3.identity, w))


def test_four_way_agreement_s4(a3, a3_ctx):
    irregular = []
    for w in a3.elements():
        verdict = analysis.four_way_regularity(a3_ctx, w)
        assert verdict.agree
        if not verdict.degree_regular:
            irregular.append(a3.display(w))
    assert sorted(irregular) == ["3412", "4231"]


def test_boolean_interval_detector(a3, pid):
    e = a3.identity
    assert is_boolean_interval(a3, a3.interval(e, pid(a3, "2143")))
    assert is_boolean_interval(a3, a3.interval(e, e))
    assert not is_boolean_interval(a3, a3.interval(e, pid(a3, "3412")))
    assert not is_boolean_interval(a3, a3.interval(e, a3.w0))


def test_dihedral_interval_detector(a3, i2_groups, pid):
    m5 = i2_groups[5]
    g5 = build_graph(m5, m5.interval(m5.identity, m5.w0))
    assert is_dihedral_interval(g5)
    sq = build_graph(a3, a3.interval(a3.identity, pid(a3, "2143")))
    assert is_dihedral_interval(sq)  # rank 2: Boolean and dihedral agree
    g3412 = build_graph(a3, a3.interval(a3.identity, pid(a3, "3412")))
    assert not is_dihedral_interval(g3412)


def test_dihedral_combinatorial_invariance(a3, a3_ctx, i2_ctxs):
    # equal-length dihedral intervals carry one R-polynomial everywhere
    seen: dict[int, set] = {}
    for ctx in (a3_ctx, i2_ctxs[6], i2_ctxs[9]):
        group = ctx.group
        for u, w in group.comparable_pairs():
            n = group.length[w] - group.length[u]
            graph = build_graph(group, group.interval(u, w))
            if is_dihedral_interval(graph):
                seen.setdefault(n, set()).add(ctx.r(u, w).coeffs)
    assert seen
    for n, polys in seen.items():
        assert len(polys) == 1, f"length {n} dihedral intervals disagree"


def test_rank_three_boolean_from_commuting_generators():
    # three commuting generators span a Boolean cube; its shifted sum is
    # (1+q)^3 and its rank generating function hits the Poincare ceiling
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    ctx = RContext(a5)
    w = a5.index[(2, 1, 4, 3, 6, 5)]
    assert a5.length[w] == 3
    assert analysis.bruhat_poincare(ctx, w) == Q_PLUS_ONE ** 3
    assert analysis.poincare(ctx, w) == Q_PLUS_ONE ** 3
    assert is_boolean_interval(a5, a5.interval(a5.identity, w))


def test_length_three_edge_r_shape(a3, a3_ctx):
    # an edge with length gap three always carries q^3 - 2q^2 + 2q - 1
    found = 0
    for u, w in a3.comparable_pairs():
        if a3.length[w] - a3.length[u] == 3 and any(
                col[u] == w for col in a3.reflection_columns().values()):
            found += 1
            assert a3_ctx.r(u, w) == IntPoly((-1, 2, -2, 1))
    assert found > 0


def test_observation_sums(a1, a3, a3_ctx, i2_ctxs):
    from bruhatpoly import RContext
    assert analysis.observation_sum(a3_ctx).sum_of_sizes == 64
    assert analysis.observation_sum(a3_ctx).ok
    assert analysis.observation_sum(RContext(a1)).sum_of_sizes == 2
    r5 = analysis.observation_sum(i2_ctxs[5])
    assert r5.sum_of_sizes == 32 and r5.ok


def test_conjecture_scan_s4(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        assert analysis.conjecture_violation(a3_ctx, u, w) is None
    u = a3.generator(0)
    assert analysis.conjecture_violation(a3_ctx, u, u) is None


def test_edge_size_tally(a3, a3_ctx):
    tally = analysis.edge_size_tally(a3_ctx)
    assert tally.edges == tally.equal + tally.strict
    assert tally.edges == sum(a3.length)  # in-degree law over the full group
    assert tally.equal_examples and tally.strict_examples


@pytest.mark.parametrize("spec", ["A3", "A4", "I2:7"])
def test_edge_size_tally_matches_the_per_edge_oracle(spec):
    ctx = RContext(enumerate_group(CoxeterDescriptor.parse(spec)))
    tally = analysis.edge_size_tally(ctx)
    assert (tally.edges, tally.equal, tally.strict, tally.equal_examples,
            tally.strict_examples) == edge_size_tally_per_edge(ctx, analysis.TALLY_EXAMPLES)


def test_conjecture_violation_names_the_boolean_floor(a3, a3_ctx, monkeypatch):
    # no interval violates the floor, so plant a zero sum and read the text
    monkeypatch.setattr(analysis, "interval_shifted_sum", lambda ctx, u, w: ZERO)
    for w in (a3.generator(0), a3.w0):
        violation = analysis.conjecture_violation(a3_ctx, a3.identity, w)
        ell = a3.length[w]
        assert violation == {"u": "1234", "w": a3.display(w), "ell": ell,
                             "interval_sum": "0", "lower_bound": (Q_PLUS_ONE ** ell).text()}


@pytest.mark.parametrize("spec, sample", [("A4", None), ("I2:7", None), ("A5", 50)])
def test_lower_row_sums_match_per_member_sums(spec, sample):
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    tops = list(group.elements())
    if sample is not None:
        tops = random.Random(13).sample(tops, sample)
    rows, oracle = RContext(group), RContext(group)
    for w in tops:
        assert (analysis.interval_shifted_sum(rows, group.identity, w)
                == interval_sum_per_member(oracle, group.identity, w))


@pytest.mark.parametrize("spec, tops", [
    *((f"A{n}", None) for n in range(1, 5)),
    *((f"I2:{m}", None) for m in range(2, 9)),
    ("I2:16", None),  # sums with a coefficient above |W|^2
    ("A5", "lower"),
    ("A6", 50),
])
def test_packed_interval_sums_match_the_coefficient_transpose(spec, tops):
    # every interval (tops None), every lower interval, or sampled lower intervals
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    e = group.identity
    if tops is None:
        pairs = group.comparable_pairs()
    else:
        ws = list(group.elements())
        pairs = [(e, w) for w in (ws if tops == "lower" else random.Random(21).sample(ws, tops))]
    ctx, oracle = RContext(group), RContext(group)
    for u, w in pairs:
        members = group.interval(u, w)
        packed = analysis.interval_shifted_sum(ctx, u, w)
        # the packed memo values, also on the lower intervals that read the packed row
        via_memo = split_fields(sum(ctx._pack(ctx.shifted(u, x)) for x in members),
                                ctx._packed_width)
        transposed = coeff_sum(oracle.shifted(u, x) for x in members)
        assert packed.coeffs == via_memo == transposed
        assert packed == interval_sum_per_member(oracle, u, w)


def test_packed_fields_hold_the_a6_top_sum():
    group = enumerate_group(CoxeterDescriptor.parse("A6"))
    ctx = RContext(group)
    width = ctx._packed_width
    assert width == 34 and len(group) * 2 ** 21 < 2 ** width  # |W| terms of at most 2^21
    top = analysis.bruhat_poincare(ctx, group.w0)
    assert top == Q_PLUS_ONE ** 21
    assert max(top.coeffs) < 2 ** width


@pytest.mark.parametrize("m", [5, 12, 40])
def test_shifted_coefficients_stay_under_the_packing_cap(i2_groups, m):
    # d_n is the largest shifted value of length n; its coefficients sum to J_n <= 2^n
    group = i2_groups.get(m) or enumerate_group(CoxeterDescriptor("I2", m))
    top = RContext(group).shifted(group.identity, group.w0)
    assert top == analysis.dihedral_poly(m)
    assert top(1) == jacobsthal(m) <= 2 ** m


def test_packing_rejects_coefficients_outside_the_cap(a3):
    ctx = RContext(a3)  # length(w0) = 6
    with pytest.raises(AssertionError, match="negative coefficient"):
        ctx._pack(IntPoly((1, -1, 1)))
    assert ctx._pack(IntPoly((64, 1))) == 64 + (1 << ctx._packed_width)
    with pytest.raises(AssertionError, match="exceeds 2\\^length"):
        ctx._pack(IntPoly((65, 1)))
    # shifted(e, s) = q and shifted(s, s*t) = q: neither sum fits degree 0
    s, st = a3.generator(0), a3.from_word((0, 1))
    for u, w in ((a3.identity, s), (s, st)):
        with pytest.raises(AssertionError, match="coefficient above its degree"):
            ctx.shifted_sum(u, [w], 0)


def test_packing_never_aliases_a_dead_value(a3):
    # fresh values dropped after packing: a packed int keyed by the id of a
    # value that is gone would be handed to the next value at that address
    ctx = RContext(a3)
    width = ctx._packed_width
    for i in range(2000):
        coeffs = (i % 65, i // 65, 1)
        assert split_fields(ctx._pack(IntPoly(coeffs)), width) == coeffs


def test_blanco_inequality(a3, a3_ctx, a4, a4_ctx):
    # lower nonneg polynomial shifted by the length gap stays below
    for ctx in (a3_ctx, a4_ctx):
        group = ctx.group
        e = group.identity
        for u, v in group.comparable_pairs():
            gap = group.length[v] - group.length[u]
            lhs = ctx.rtilde(e, u) * monomial(gap)
            assert coeffwise_leq(lhs, ctx.rtilde(e, v))


def test_brenti_chain_inequality(a3, a3_ctx):
    for u, v in a3.comparable_pairs():
        for x in a3.interval(u, v):
            gap = a3.length[v] - a3.length[x]
            lhs = monomial(gap) * a3_ctx.rtilde(u, x)
            assert coeffwise_leq(lhs, a3_ctx.rtilde(u, v))


def test_fibonacci_bounds(a3, a3_ctx, a4, a4_ctx):
    for group, ctx in ((a3, a3_ctx), (a4, a4_ctx)):
        for u, w in group.comparable_pairs():
            n = group.length[w] - group.length[u]
            rt = ctx.rtilde(u, w)
            assert coeffwise_leq(monomial(n), rt)
            assert coeffwise_leq(rt, fibonacci_rec(n))


def test_size_bounds_by_jacobsthal(a3, a3_ctx):
    # sizes and totals live between the Boolean floor and the dihedral
    # ceiling evaluated at 1
    for u, w in a3.comparable_pairs():
        n = a3.length[w] - a3.length[u]
        if n < 1:
            continue
        s = a3_ctx.bruhat_size(u, w)
        t = a3_ctx.bruhat_total(u, w)
        d = analysis.dihedral_poly(n)
        dn, dtot = size(d), total(d)
        assert 1 <= s <= dn == jacobsthal(n)
        assert n <= t <= dtot


def test_size_from_gamma_vector(a3, a3_ctx, i2_ctxs):
    # size = sum of gamma_j * 2^((ell-j)/2); every summand except the top
    # one is even, which is why sizes are always odd
    for ctx in (a3_ctx, i2_ctxs[8]):
        for u, w in ctx.group.comparable_pairs():
            gamma = ctx.gamma_vector(u, w)
            expected = sum(c * 2 ** ((gamma.coxeter_length - j) // 2)
                           for j, c in gamma.entries)
            assert ctx.bruhat_size(u, w) == expected


def test_interval_report_contents(a3, a3_ctx, pid):
    d = analysis.interval_report(a3_ctx, a3.identity, pid(a3, "3412"))
    assert d["size"] == 3
    assert d["f2"] == 8
    assert d["p1"] == 2 and d["p2"] == 6
    assert d["average"] == "3/1"
    assert d["poincare_average"] == "29/14"
    assert d["bruhat_poincare_average"] == "2/1"
    assert d["regularity"]["regular"] is False
    assert d["gamma"] == {"2": 1, "4": 1}
    assert d["r"]["coeffs"] == ["1", "-3", "4", "-3", "1"]
    td = analysis.interval_report(a3_ctx, a3.w0, a3.w0)
    assert td["r"]["text"] == "1" and td["size"] == 1
