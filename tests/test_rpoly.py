import inspect
import itertools
import subprocess
import sys
import textwrap

import pytest

from bruhatpoly import (
    CoxeterDescriptor,
    IntPoly,
    RContext,
    build_graph,
    default_reflection_order,
    enumerate_group,
    gamma_form_text,
    reassemble_r,
)
from bruhatpoly import analysis, rpoly, suite
from bruhatpoly.graph import increasing_paths
from bruhatpoly.poly import ONE, Q, Q_MINUS_ONE, Q_PLUS_ONE, ZERO, monomial
from bruhatpoly.cli import _r_classes
from bruhatpoly.coxeter import GroupTable
from bruhatpoly.rpoly import _RULES
from conftest import src_env
from oracles import (absolute_distance, descent_leq, double_r_at, fibonacci_rec, form_product,
                     generator_ids, r_by_recursion, rtilde_via_paths, shift_plus_one,
                     shifted_r_via_weights)

# R-polynomials of the lower intervals of S4, grouped into the nine classes
# of equal polynomials (sizes 1,1,1,3,1,3,9,5,11 in this order)
S4_CLASSES = [
    (("1234",), ONE, 1),
    (("1243", "1324", "2134"), Q_MINUS_ONE, 1),
    (("1342", "1423", "2143", "2314", "3124"), Q_MINUS_ONE ** 2, 1),
    (("1432", "3214"), Q_MINUS_ONE ** 3 + Q * Q_MINUS_ONE, 3),
    (("2341", "2413", "3142", "4123"), Q_MINUS_ONE ** 3, 1),
    (("2431", "3241", "3412", "4132", "4213"),
     Q_MINUS_ONE ** 4 + Q * Q_MINUS_ONE ** 2, 3),
    (("4231",),
     Q_MINUS_ONE ** 5 + 2 * Q * Q_MINUS_ONE ** 3 + monomial(2) * Q_MINUS_ONE, 9),
    (("3421", "4312"), Q_MINUS_ONE ** 5 + 2 * Q * Q_MINUS_ONE ** 3, 5),
    (("4321",),
     Q_MINUS_ONE ** 6 + 3 * Q * Q_MINUS_ONE ** 4 + monomial(2) * Q_MINUS_ONE ** 2, 11),
]


def test_r_reproduces_all_s4_classes(a3, a3_ctx, pid):
    e = a3.identity
    for members, poly, bsize in S4_CLASSES:
        for m in members:
            v = pid(a3, m)
            assert a3_ctx.r(e, v) == poly, m
            assert a3_ctx.bruhat_size(e, v) == bsize, m


def test_r_base_cases(a3, a3_ctx, pid):
    u = pid(a3, "2143")
    assert a3_ctx.r(u, u) == ONE
    assert a3_ctx.r(pid(a3, "3412"), pid(a3, "4231")) == ZERO
    assert a3_ctx.rtilde(pid(a3, "3412"), pid(a3, "4231")) == ZERO


def test_r_small_length_shapes(a3, a3_ctx):
    # length 1 and 2 intervals have forced shapes
    for u, w in a3.comparable_pairs():
        ell = a3.length[w] - a3.length[u]
        if ell == 1:
            assert a3_ctx.r(u, w) == Q_MINUS_ONE
        elif ell == 2:
            assert a3_ctx.r(u, w) == Q_MINUS_ONE ** 2


def test_rtilde_values(a3, a3_ctx, pid):
    e = a3.identity
    assert a3_ctx.rtilde(e, pid(a3, "3412")) == IntPoly((0, 0, 1, 0, 1))
    assert a3_ctx.rtilde(e, e) == ONE


def test_rtilde_is_monic_nonnegative(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        rt = a3_ctx.rtilde(u, w)
        assert rt.coeffs[-1] == 1
        assert rt.degree == a3.length[w] - a3.length[u]
        assert all(c >= 0 for c in rt.coeffs)


def test_dihedral_rtilde_is_fibonacci(i2_ctxs):
    for m, ctx in i2_ctxs.items():
        g = ctx.group
        assert ctx.rtilde(g.identity, g.w0) == fibonacci_rec(m)


def test_shifted_values(a3, a3_ctx, i2_ctxs, pid):
    e = a3.identity
    assert a3_ctx.shifted(e, pid(a3, "3421")) == monomial(5) + 2 * Q_PLUS_ONE * monomial(3)
    assert a3_ctx.shifted(e, e) == ONE
    ctx5 = i2_ctxs[5]
    expected = monomial(5) + 3 * Q_PLUS_ONE * monomial(3) + (Q_PLUS_ONE ** 2) * Q
    assert ctx5.shifted(ctx5.group.identity, ctx5.group.w0) == expected


def test_shifted_agrees_with_substitution(a3, a3_ctx, i2_ctxs):
    for ctx in (a3_ctx, i2_ctxs[7]):
        for u, w in ctx.group.comparable_pairs():
            assert ctx.shifted(u, w) == shift_plus_one(ctx.r(u, w))


def test_shifted_dihedral_ladder(i2_ctxs):
    # the two elements at each level of a dihedral group share one value
    ctx = i2_ctxs[5]
    g = ctx.group
    by_len = {}
    for v in g.elements():
        by_len.setdefault(g.length[v], []).append(v)
    expected = {
        0: ONE,
        1: Q,
        2: monomial(2),
        3: monomial(3) + Q_PLUS_ONE * Q,
        4: monomial(4) + 2 * Q_PLUS_ONE * monomial(2),
        5: monomial(5) + 3 * Q_PLUS_ONE * monomial(3) + (Q_PLUS_ONE ** 2) * Q,
    }
    for length, vs in by_len.items():
        for v in vs:
            assert ctx.shifted(g.identity, v) == expected[length]


def test_descent_choice_independence(a3):
    # the library recurses down the first right descent, the oracle the last
    ctx, oracle = RContext(a3), {}
    for u, w in itertools.product(a3.elements(), repeat=2):
        expected = r_by_recursion(a3, u, w, oracle, "max")
        assert ctx.r(u, w) == expected, (u, w)
        assert ctx.shifted(u, w) == shift_plus_one(expected), (u, w)
        if expected:
            assert reassemble_r(ctx.gamma_vector(u, w)) == expected, (u, w)  # reads rtilde
        else:
            assert ctx.rtilde(u, w) == ZERO, (u, w)


def test_oracle_equivalence_spot(a3, a3_ctx, pid):
    e = a3.identity
    w = pid(a3, "3412")
    graph = build_graph(a3, a3.interval(e, w))
    order = default_reflection_order(a3)
    paths = increasing_paths(graph, e, w, order)
    assert rtilde_via_paths(paths) == a3_ctx.rtilde(e, w)
    assert shifted_r_via_weights(a3, paths) == a3_ctx.shifted(e, w)
    assert rtilde_via_paths(increasing_paths(graph, e, e, order)) == ONE


def test_gamma_vector_examples(a3, a3_ctx, pid):
    e = a3.identity
    g1 = a3_ctx.gamma_vector(e, pid(a3, "4321"))
    assert g1.as_dict() == {2: 1, 4: 3, 6: 1}
    assert g1.absolute_length == 2 and g1.coxeter_length == 6
    s1 = a3.generator(0)
    g2 = a3_ctx.gamma_vector(e, s1)
    assert g2.as_dict() == {1: 1}
    g3 = a3_ctx.gamma_vector(e, pid(a3, "4231"))
    assert g3.as_dict() == {1: 1, 3: 2, 5: 1}


def test_gamma_min_support_is_graph_distance(a3, a3_ctx):
    for u, w in a3.comparable_pairs():
        gamma = a3_ctx.gamma_vector(u, w)
        graph = build_graph(a3, a3.interval(u, w))
        assert gamma.absolute_length == absolute_distance(graph, u, w)


def test_reassemble_r_roundtrip(a3, a3_ctx, i2_ctxs):
    for ctx in (a3_ctx, i2_ctxs[8]):
        for u, w in ctx.group.comparable_pairs():
            assert reassemble_r(ctx.gamma_vector(u, w)) == ctx.r(u, w)


def test_gamma_form_text(a3, a3_ctx, pid):
    gamma = a3_ctx.gamma_vector(a3.identity, pid(a3, "4321"))
    assert gamma_form_text(gamma) == "(q-1)^6 + 3*q*(q-1)^4 + q^2*(q-1)^2"
    trivial = a3_ctx.gamma_vector(a3.identity, a3.identity)
    assert gamma_form_text(trivial) == "1"


def test_double_r_specializations(a3, a3_ctx):
    e = a3.identity
    for u, w in a3.comparable_pairs():
        gamma = a3_ctx.gamma_vector(u, w)
        ell = a3.length[w] - a3.length[u]
        assert double_r_at(gamma, Q, Q) == a3_ctx.r(u, w)
        assert double_r_at(gamma, Q_PLUS_ONE, Q_PLUS_ONE) == a3_ctx.shifted(u, w)
        assert double_r_at(gamma, ONE, Q_PLUS_ONE) == a3_ctx.rtilde(u, w)
        assert double_r_at(gamma, ZERO, Q_PLUS_ONE) == monomial(ell)
    assert double_r_at(a3_ctx.gamma_vector(e, e), Q, Q) == ONE


def test_bruhat_size_and_total(a3, a3_ctx, pid):
    e = a3.identity
    assert a3_ctx.bruhat_size(e, pid(a3, "4321")) == 11
    assert a3_ctx.bruhat_size(e, e) == 1
    assert a3_ctx.bruhat_total(e, pid(a3, "3421")) == 19


def r_at_one(ctx, u, w):
    """(R(1), R'(1)) of [u, w]: 1 exactly on the diagonal, and 1 exactly on edges."""
    f = ctx.r(u, w)
    return f(1), f.derivative()(1)


def test_characteristic_check(a3, a3_ctx, pid):
    e = a3.identity
    u = pid(a3, "2143")
    assert r_at_one(a3_ctx, u, u) == (1, 0)
    s1 = a3.generator(0)
    edge_target = a3.mul(u, a3.reflections[0])
    if a3.length[edge_target] > a3.length[u]:
        assert r_at_one(a3_ctx, u, edge_target) == (0, 1)
    assert r_at_one(a3_ctx, e, s1) == (0, 1)
    assert r_at_one(a3_ctx, e, pid(a3, "3412")) == (0, 0)


def test_characteristic_check_everywhere(a3, a3_ctx):
    columns = a3.reflection_columns().values()
    for u, w in a3.comparable_pairs():
        is_edge = a3.length[u] < a3.length[w] and any(col[u] == w for col in columns)
        assert r_at_one(a3_ctx, u, w) == (int(u == w), int(is_edge)), (u, w)


def test_memo_counters(a3):
    ctx = RContext(a3)
    ctx.r(a3.identity, a3.w0)
    misses = ctx.misses
    ctx.r(a3.identity, a3.w0)
    assert ctx.misses == misses and ctx.hits > 0


def test_table_r_polys_skips_order_tests_the_lifting_property_decides(monkeypatch):
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    calls = []
    leq = GroupTable.leq
    monkeypatch.setattr(GroupTable, "leq", lambda g, u, w: calls.append(1) or leq(g, u, w))
    ctx = RContext(a5)
    _r_classes(ctx)  # what `table --table r-polys --group A5` computes
    monkeypatch.undo()
    # the memo keys reduced pairs (no shared left or right descent), which
    # took the traffic from 2,578 hits / 3,731 misses and 3,769 leq calls on
    # every pair of the plain recursion; with an order test per miss it was
    # 5,070 leq calls. It was 1,952 / 1,634 and 2,002 leq calls until the R
    # row was filled from two row entries per x and the sizes were read
    # from the rows, with only the x that no descent serves sent to the memo;
    # then 644 / 908 and 927 leq calls until those walks read and filled the
    # lower rows at u = e instead of keeping (e, x) in the memo too; then
    # 588 / 777 and 836 leq calls until the row fill copied (e, x) from
    # (e, x^-1) and took left descents as well as right ones.
    assert (ctx.hits, ctx.misses) == (416, 597)
    assert len(calls) == 625
    memo, oracle = ctx._memo, {}
    assert memo["r"] and memo["shifted"]
    for x, value in enumerate(ctx.lower_row("r", ())):
        assert value == r_by_recursion(a5, a5.identity, x, oracle)
    shifted = ctx.lower_row("shifted", ())  # filled where a walk reached (e, x)
    assert any(shifted) and not all(shifted)
    for x, value in enumerate(shifted):
        assert value is None or value == shift_plus_one(r_by_recursion(a5, a5.identity, x, oracle))
    for (u, w), value in memo["r"].items():
        assert value == r_by_recursion(a5, u, w, oracle)
    for (u, w), value in memo["shifted"].items():
        assert value == shift_plus_one(r_by_recursion(a5, u, w, oracle))


class RecordedKeys(dict):
    """A memo table that records each key read through ``get``, with its
    group."""

    def __init__(self, group, read):
        super().__init__()
        self.group, self.read = group, read

    def get(self, key, default=None):
        self.read.append((self.group, key))
        return super().get(key, default)


def test_the_memo_is_read_at_reduced_pairs_only(monkeypatch, a4, i2_groups):
    # a pair whose ends share a left or right descent is never a key, so the
    # walk reduces a pair fully before its one memo read; a pair (e, x) is
    # read from and stored in the lower row, never in the memo. th4-bounds
    # reads reduced pairs of A4 too, since the A5 table and th3 alone read
    # fewer than 1,000 keys once the row fill took inverses and left descents
    read, tables = [], []

    def recorded(ctx):
        ctx._memo = {name: RecordedKeys(ctx.group, read) for name in ctx._memo}
        tables.extend(ctx._memo.values())
        return ctx

    _r_classes(recorded(RContext(enumerate_group(CoxeterDescriptor("A", 5)))))
    monkeypatch.setattr(suite, "_ENVS", {})
    recorded(suite._environment("A4", a4)["ctx"])
    assert all(r.passed for r in suite.run_suite("A4", ["th3", "th4-bounds"], group=a4))
    i2 = i2_groups[12]
    analysis.interval_report(recorded(RContext(i2)), i2.generator(0), i2.w0)
    assert len(read) > 1000
    assert not [(u, w) for g, (u, w) in read if g.descents[u] & g.descents[w]]
    assert not [(u, w) for g, (u, w) in read if u == g.identity]
    assert sum(map(len, tables)) > 100
    assert not [(u, w) for table in tables for u, w in table if u == table.group.identity]


@pytest.mark.parametrize("choice", ["min", "max"])  # the oracle's right descent
@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "I2:2", "I2:3", "I2:5", "I2:8"])
def test_reduced_pair_memo_matches_the_unreduced_oracle(spec, choice):
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx, oracle = RContext(group), {}
    for u, w in group.comparable_pairs():
        expected = r_by_recursion(group, u, w, oracle, choice)
        assert ctx.r(u, w) == expected, (u, w)
        assert ctx.shifted(u, w) == shift_plus_one(expected), (u, w)
        assert reassemble_r(ctx.gamma_vector(u, w)) == expected, (u, w)  # reads rtilde


@pytest.mark.parametrize("choice", ["min", "max"])  # the oracle's right descent
@pytest.mark.parametrize("spec", ["A3", "A4"])
def test_reduced_pair_memo_is_zero_off_the_order(spec, choice):
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx, order, incomparable = RContext(group), {}, 0
    for u, w in itertools.product(group.elements(), repeat=2):
        if not descent_leq(group, u, w, order, choice):
            incomparable += 1
            assert ctx.r(u, w) == ctx.rtilde(u, w) == ctx.shifted(u, w) == ZERO, (u, w)
    assert incomparable > len(group) ** 2 // 2


@pytest.mark.parametrize("spec", ["A3", "A4", "I2:5"])
def test_shared_descents_leave_the_oracle_unchanged(spec):
    # R(u, w) = R(us, ws) for a shared right descent s and R(su, sw) for a
    # shared left one, on the oracle recursion and form products alone
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    length, oracle, nonzero = group.length, {}, [0, 0]
    for s in generator_ids(group):
        for side, times_s in enumerate((lambda x: form_product(group, x, s),
                                        lambda x: form_product(group, s, x))):
            lowered = {x: y for x in group.elements() if length[y := times_s(x)] < length[x]}
            for (u, us), (w, ws) in itertools.product(lowered.items(), repeat=2):
                value = r_by_recursion(group, u, w, oracle)
                assert value == r_by_recursion(group, us, ws, oracle), (side, u, w)
                nonzero[side] += bool(value) and u != w
    assert all(nonzero)


def test_equal_memo_values_are_one_object(a4):
    ctx = RContext(a4)
    for u, w in a4.comparable_pairs():
        ctx.r(u, w), ctx.rtilde(u, w), ctx.shifted(u, w)
    by_coeffs = {}
    for table in ctx._memo.values():
        for value in table.values():
            assert by_coeffs.setdefault(value.coeffs, value) is value
    assert len(by_coeffs) < sum(map(len, ctx._memo.values()))


# small coefficient tuples: the zero polynomial, constants, and pairs whose
# top coefficients cancel in some family's combination
KERNEL_INPUTS = [(), (1,), (-1,), (0, 1), (0, -1), (-1, 1), (2, -3, 1), (1, 1, -1), (0, 0, 0, 5)]


# family -> (low, high): its second branch is low * (u, ws) + high * (us, ws)
BRANCH_COEFFICIENTS = {"r": (Q_MINUS_ONE, Q), "rtilde": (Q, ONE), "shifted": (Q, Q_PLUS_ONE)}


def test_family_kernels_match_polynomial_arithmetic():
    assert set(_RULES) == set(BRANCH_COEFFICIENTS)
    cancelled = set()
    for name, (low, high) in BRANCH_COEFFICIENTS.items():
        step = _RULES[name]
        for a, b in itertools.product(KERNEL_INPUTS, repeat=2):
            expected = low * IntPoly(a) + high * IntPoly(b)
            got = step(a, b)
            assert got == expected and got.coeffs == expected.coeffs, (name, a, b)
            top = max(low.degree + len(a), high.degree + len(b))  # length without cancelling
            if a and b and len(got.coeffs) < top:
                cancelled.add(name)
    assert cancelled == set(_RULES)  # every family met a cancelling top coefficient


def test_family_fill_does_not_recurse():
    # the descent recursion is as deep as the length of w, 300 here, and
    # must run under a recursion limit far below that
    script = """if True:
        import sys
        from bruhatpoly import CoxeterDescriptor, RContext, analysis, enumerate_group
        group = enumerate_group(CoxeterDescriptor("I2", 300))
        expected = analysis.dihedral_poly(300)
        s1 = group.generator(0)
        ctx = RContext(group)
        sys.setrecursionlimit(150)
        assert ctx.shifted(group.identity, group.w0) == expected
        r, rtilde = ctx.r(s1, group.w0), ctx.rtilde(s1, group.w0)
        assert r.degree == rtilde.degree == 299 and r(1) == 0
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "I2:2", "I2:3", "I2:5", "I2:8"])
def test_lower_rows_match_the_oracle_in_any_fill_order(spec):
    # the row routes fill x from its inverse or from two earlier entries;
    # members that are not closed downward (w0 alone, one x at a time from
    # the top, one of each inverse pair) send x through a memo walk instead,
    # which fills the row entries it meets below x, and all must give the
    # oracle's values
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    oracle, fresh = {}, RContext(group)
    expected = {"r": [r_by_recursion(group, group.identity, x, oracle) for x in group.elements()]}
    expected["shifted"] = list(map(shift_plus_one, expected["r"]))
    expected["rtilde"] = [fresh.rtilde(group.identity, x) for x in group.elements()]
    everything = list(group.elements())
    orders = {  # each a list of lower_row calls
        "ascending": [everything],
        "descending": [everything[::-1]],
        "one at a time from the top": [[x] for x in reversed(everything)],
        "w0 alone": [[group.w0]],
        "short prefix first": [[x for x in everything if group.length[x] <= 3], everything],
        # x before x^-1, where x^-1 has the smaller id, and then the rest
        "later of each inverse pair first": [[x for x in everything if group.inverse[x] < x],
                                             everything],
        # x^-1 first, so that x copies it
        "earlier of each inverse pair first": [[x for x in everything if group.inverse[x] > x],
                                               everything],
    }
    for order, calls in orders.items():
        ctx = RContext(group)
        asked = set().union(*calls)
        below = set().union(*map(group.lower_ideal, asked))
        for name, values in expected.items():
            for members in calls:
                row = ctx.lower_row(name, members)
            filled = {x for x, value in enumerate(row) if value is not None}
            assert asked <= filled <= below, (order, name)
            assert all(row[x] == values[x] for x in filled), (order, name)
        assert not [key for memo in ctx._memo.values() for key in memo
                    if key[0] == group.identity], order


def _row_walks(group, name, calls=None, lower_row=RContext.lower_row):
    """A fresh context after ``lower_row`` calls on each member list of
    ``calls`` (one full fill by default), and the pairs they sent through
    ``_family``."""
    ctx, walked = RContext(group), []
    family = ctx._family
    ctx._family = lambda *pair: walked.append(pair) or family(*pair)
    for members in calls or [range(len(group))]:
        lower_row(ctx, name, members)
    return ctx, walked


def test_a5_lower_rows_take_the_row_route():
    # a full fill of a row sends to the memo only the x that neither its
    # inverse nor a right or left descent serves (the identity among them):
    # 53 walks with right descents alone; the kernel results, of the row and
    # of the memo walks alike, are few because the values are few (104 then)
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    for name in _RULES:
        ctx, calls = _row_walks(a5, name)
        assert len(calls) == 18, name
        assert len(ctx._kernels[name]) == 97, name


def _planted_lower_row(old: str, new: str):
    """``RContext.lower_row`` with one piece of its source replaced: a planted fault."""
    source = textwrap.dedent(inspect.getsource(RContext.lower_row))
    assert source.count(old) == 1, old
    namespace = dict(vars(rpoly))
    exec(source.replace(old, new), namespace)
    return namespace["lower_row"]


def _oracle_r_row(group):
    oracle = {}
    return [r_by_recursion(group, group.identity, x, oracle) for x in group.elements()]


def test_the_oracle_catches_a_swapped_inverse_entry():
    # the copy route trusts the inverse column: with two entries swapped, y
    # copies the value of x^-1, so of x, another element of its length
    group = enumerate_group(CoxeterDescriptor("A", 4))
    expected, inverse = _oracle_r_row(group), list(group.inverse)
    x, y = next((x, y) for x, y in itertools.combinations(group.elements(), 2)
                if group.length[x] == group.length[y] and inverse[x] < x and inverse[y] < y
                and expected[x] != expected[y])
    assert RContext(group).lower_row("r", range(len(group))) == expected
    inverse[x], inverse[y] = inverse[y], inverse[x]
    group.inverse = tuple(inverse)
    row = RContext(group).lower_row("r", range(len(group)))
    assert row[y] == expected[x] != expected[y]


@pytest.mark.parametrize("spec", ["A4", "I2:5"])
def test_the_oracle_catches_a_left_route_that_ignores_the_support(spec):
    # s in the support of sx is below sx, so (s, sx) is a pair of its own; a
    # left route that reads it as zero there gives wrong values
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    expected = _oracle_r_row(group)
    planted = _planted_lower_row("elif support[y] >> s & 1:",
                                 "elif k < n and support[y] >> s & 1:")
    ctx, _ = _row_walks(group, "r", lower_row=planted)
    assert [x for x, value in enumerate(ctx._rows["r"]) if value != expected[x]]


def test_a_left_route_reading_the_left_column_costs_walks_only():
    # (s, sx) lowers on the right, to (e, sx*s). A left route that reads the
    # left column there reads (e, s*sx) = (e, x), the entry being filled,
    # which is still None, so that route serves no x: the oracle cannot see
    # the fault in any fill order, but a fill that reaches x before x^-1 walks
    # more. A full ascending fill does not: there the right route for the
    # same s serves each such x first.
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    expected, everything = _oracle_r_row(a5), list(a5.elements())
    later_first = [[x for x in everything if a5.inverse[x] < x], everything]
    planted = _planted_lower_row("b = row[sides[mirror][y]]",
                                 "b = row[sides[k if k >= n else mirror][y]]")
    for calls in ([everything], later_first, [[x] for x in reversed(everything)]):
        ctx, _ = _row_walks(a5, "r", calls, planted)
        assert ctx._rows["r"] == expected
    assert len(_row_walks(a5, "r", [everything], planted)[1]) == 18
    assert len(_row_walks(a5, "r", later_first)[1]) == 26
    assert len(_row_walks(a5, "r", later_first, planted)[1]) == 40


@pytest.mark.parametrize("spec", ["A5", "I2:12"])
def test_each_operand_pair_is_combined_once_per_family(spec, monkeypatch):
    # the row route and the memo walks share one kernel cache per family,
    # so no pair of operands is combined twice: the table of A5 fills rows
    # and walks the memo, the report of [s1, w0] in I2(12) walks it alone
    ran = dict.fromkeys(_RULES, 0)
    for name, kernel in _RULES.items():
        def counted(a, b, name=name, kernel=kernel):
            ran[name] += 1
            return kernel(a, b)
        monkeypatch.setitem(_RULES, name, counted)
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx = RContext(group)
    if spec == "A5":
        _r_classes(ctx)
    else:
        analysis.interval_report(ctx, group.generator(0), group.w0)
    assert all(ran.values()), ran
    assert ran == {name: len(ctx._kernels[name]) for name in _RULES}
