"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Three
literals from the source material are provably inconsistent with the
R-polynomial table that the same material fixes (details in the assertions
below); those literals are kept as strict xfail tests right next to the
corrected, fully cross-checked values.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bruhatpoly import (
    IntPoly,
    RContext,
    default_reflection_order,
    distinct_reflection_orders,
    reassemble_r,
)
from bruhatpoly import analysis, suite
from bruhatpoly.graph import build_graph, increasing_paths, short_paths
from bruhatpoly.poly import ONE, Q, Q_PLUS_ONE, ZERO, average, monomial, size
from conftest import src_env
from oracles import (dihedral_closed_form_ok, double_r_at, el_holds, is_boolean_interval,
                     is_dihedral_interval, order_violations, rtilde_via_paths,
                     shifted_r_via_weights)
from test_rpoly import S4_CLASSES


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_c01_table_one_reproduction(a3, a3_ctx, pid):
    with criterion("c01 table-1 classes"):
        start = time.perf_counter()
        e = a3.identity
        by_poly = {}
        for v in a3.elements():
            by_poly.setdefault(a3_ctx.r(e, v), []).append(v)
        assert len(by_poly) == 9
        classes = {}
        for poly, members in by_poly.items():
            classes[frozenset(a3.display(v) for v in members)] = poly
        sizes_in_order = []
        for members, poly, bsize in S4_CLASSES:
            assert classes[frozenset(members)] == poly
            for m in members:
                assert a3_ctx.bruhat_size(e, pid(a3, m)) == bsize
            sizes_in_order.append(bsize)
        assert sizes_in_order == [1, 1, 1, 3, 1, 3, 9, 5, 11]
        assert time.perf_counter() - start < 1.0


TABLE2_POLYS = {
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
TABLE2_SIZES = (1, 1, 1, 3, 5, 11, 21, 43, 85)
TABLE2_TOTALS = (0, 1, 2, 6, 14, 34, 78, 178, 398)


def test_c02_table_two_reproduction():
    with criterion("c02 dihedral table"):
        start = time.perf_counter()
        for n in range(9):
            d = analysis.dihedral_poly(n)
            assert d == TABLE2_POLYS[n]
            assert size(d) == TABLE2_SIZES[n]
            assert d.derivative()(1) == TABLE2_TOTALS[n]
        series = analysis.dihedral_series(21)
        for n in range(21):
            assert dihedral_closed_form_ok(n)
            assert series[n] == analysis.dihedral_poly(n)
        assert time.perf_counter() - start < 1.0


@pytest.mark.xfail(strict=True,
                   reason="a quoted form of d_8 omits the q^6 term and shifts the "
                          "lower exponents; its own size 85 and total 398 force the "
                          "row asserted in c02")
def test_c02_literal_degree_eight_row():
    quoted = (monomial(8) + 6 * monomial(7) + 16 * monomial(5)
              + 24 * monomial(4) + 22 * monomial(3) + 12 * monomial(2) + 4 * Q)
    assert analysis.dihedral_poly(8) == quoted


BOE_COEFFS = (1, -5, 11, -13, 8, -1, -2, -1, 8, -13, 11, -5, 1)


def test_c03_boe_counterexample():
    with criterion("c03 Boe counterexample in S6"):
        start = time.perf_counter()
        from bruhatpoly import CoxeterDescriptor, enumerate_group
        a5 = enumerate_group(CoxeterDescriptor("A", 5))
        ctx = RContext(a5)
        u = a5.index[(1, 2, 4, 3, 5, 6)]
        w = a5.index[(5, 6, 4, 3, 1, 2)]
        assert ctx.r(u, w).coeffs == BOE_COEFFS
        assert time.perf_counter() - start < 30.0


def test_c04_figure_statistics(a3, a3_ctx, pid):
    with criterion("c04 figure statistics"):
        w = pid(a3, "3412")
        graph = build_graph(a3, a3.interval(a3.identity, w))
        assert len(graph.members) == 14
        assert graph.num_edges == 29
        p = analysis.poincare(a3_ctx, w)
        assert p == IntPoly((1, 3, 5, 4, 1))
        assert average(p) == Fraction(29, 14)
        p2 = analysis.poincare(a3_ctx, pid(a3, "4231"))
        assert p2 == IntPoly((1, 3, 5, 6, 4, 1))
        assert average(p2) == Fraction(52, 20)


def test_c05_bruhat_poincare_identities(a2, a3, a3_ctx, i2_ctxs, pid):
    with criterion("c05 Bruhat-Poincare identities"):
        assert analysis.bruhat_poincare(a3_ctx, pid(a3, "4231")) == \
            (Q_PLUS_ONE ** 3) * IntPoly((1, 3, 1))
        # corrected 3412 sum: Table-1 shifted values add up to
        # (1+q)(1+4q+4q^2+q^3) = 1+5q+8q^2+5q^3+q^4 with average exactly 2
        pb = analysis.bruhat_poincare(a3_ctx, pid(a3, "3412"))
        assert pb == Q_PLUS_ONE * IntPoly((1, 4, 4, 1))
        assert average(pb) == 2
        # the whole group is Bruhat-Boolean
        ctx2 = RContext(a2)
        assert analysis.bruhat_poincare(ctx2, a2.w0) == Q_PLUS_ONE ** 3
        assert analysis.bruhat_poincare(a3_ctx, a3.w0) == Q_PLUS_ONE ** 6
        for m in range(2, 13):
            ctx = i2_ctxs[m]
            assert analysis.bruhat_poincare(ctx, ctx.group.w0) == Q_PLUS_ONE ** m
        assert analysis.observation_sum(a3_ctx).sum_of_sizes == 64
        assert analysis.observation_sum(i2_ctxs[5]).sum_of_sizes == 32


@pytest.mark.xfail(strict=True,
                   reason="the quoted 3412 sum (1+q)(1+4q+3q^2+q^3) with average "
                          "35/18 drops the weight (q+1)q^2 of the increasing path "
                          "of absolute length 2 ending at the top; the R-polynomial "
                          "table forces the values asserted in c05")
def test_c05_literal_3412_sum(a3, a3_ctx, pid):
    pb = analysis.bruhat_poincare(a3_ctx, pid(a3, "3412"))
    assert pb == Q_PLUS_ONE * IntPoly((1, 4, 3, 1))
    assert average(pb) == Fraction(35, 18)


def test_c06_size_monotonicity_suite(a3, a3_ctx, a4, a4_ctx, i2_ctxs):
    with criterion("c06 size monotonicity and parity"):
        start = time.perf_counter()
        contexts = [a3_ctx, a4_ctx] + [i2_ctxs[m] for m in range(2, 11)]
        for ctx in contexts:
            group = ctx.group
            e = group.identity
            sizes = {v: ctx.bruhat_size(e, v) for v in group.elements()}
            assert all(s % 2 == 1 for s in sizes.values())
            for u in group.elements():
                for w in group.elements():
                    if group.leq(u, w):
                        assert sizes[u] <= sizes[w]
        assert time.perf_counter() - start < 60.0


def test_c07_oracle_equivalence(a3, a3_ctx, i2_groups, i2_ctxs):
    with criterion("c07 oracle equivalence"):
        start = time.perf_counter()
        jobs = [(a3, a3_ctx, 3), (i2_groups[8], i2_ctxs[8], 2)]
        for group, ctx, expected_orders in jobs:
            # a dihedral group admits exactly two reflection orders, so the
            # third requested order only exists in the symmetric group
            orders = distinct_reflection_orders(group)
            assert len(orders) == expected_orders
            for order in orders:
                assert not order_violations(group, order)
            for u, w in group.comparable_pairs():
                graph = build_graph(group, group.interval(u, w))
                rt = ctx.rtilde(u, w)
                sh = ctx.shifted(u, w)
                for order in orders:
                    paths = increasing_paths(graph, u, w, order)
                    assert rtilde_via_paths(paths) == rt
                    assert shifted_r_via_weights(group, paths) == sh
                assert reassemble_r(ctx.gamma_vector(u, w)) == ctx.r(u, w)
        assert time.perf_counter() - start < 60.0


def test_c08_el_shellability(a3):
    with criterion("c08 EL-shellability on S4"):
        orders = distinct_reflection_orders(a3)
        assert len(orders) == 3
        for u, w in a3.comparable_pairs():
            graph = build_graph(a3, a3.interval(u, w))
            chains = short_paths(graph, u, w)
            for order in orders:
                inc = increasing_paths(graph, u, w, order, short_only=True)
                assert len(inc) == 1
                winner = tuple(order.index(t) for t in inc[0][1])
                assert winner == min(tuple(order.index(t) for t in labels)
                                     for _, labels in chains)


def test_c08_el_check_rejects_a_non_reflection_order(a3):
    with criterion("c08 EL check fails off reflection orders"):
        sequence = list(a3.reflections)
        random.Random(3).shuffle(sequence)
        order = tuple(sequence)
        assert order_violations(a3, order)
        env = {"group": a3, "orders": [order]}
        verdicts = []
        for u, w in a3.comparable_pairs():
            verdicts.append(suite._el_unique(env, u, w))
            assert verdicts[-1] == el_holds(build_graph(a3, a3.interval(u, w)), u, w, order)
        assert any(verdicts) and not all(verdicts)


def test_c09_four_way_regularity(a3, a3_ctx, a4, a4_ctx):
    with criterion("c09 four-way regularity"):
        start = time.perf_counter()
        for ctx in (a3_ctx, a4_ctx):
            for w in ctx.group.elements():
                verdict = analysis.four_way_regularity(ctx, w)
                assert verdict.agree
                assert verdict.pattern_smooth is not None
        assert time.perf_counter() - start < 300.0


def test_c10_deodhar_suite(a3, a3_ctx, a4, a4_ctx, pid):
    with criterion("c10 Deodhar inequalities"):
        scopes = [(a3_ctx, a3.comparable_pairs()),
                  (a4_ctx, [(a4.identity, w) for w in a4.elements()])]
        for ctx, pairs in scopes:
            for u, w in pairs:
                v = analysis.deodhar_check(ctx, u, w)
                assert v.f1_holds
                assert v.f2_holds
                assert v.f1_strict == (not v.boolean_regular)
                if v.f2_strict:
                    assert not v.boolean_regular
                if u == ctx.group.identity:
                    # on lower intervals the two regularity notions coincide
                    assert v.degree_regular == v.boolean_regular
        # the worked values: out-degree 5, height excess 2, and the
        # corrected two-path count 6 giving a q^2 coefficient of 8
        order = default_reflection_order(a3)
        w = pid(a3, "3412")
        members = a3.interval(a3.identity, w)
        interval_sum = analysis.interval_shifted_sum(a3_ctx, a3.identity, w)
        assert interval_sum.coeffs[1] == 5
        assert analysis.p1_p2(a3, members, order, interval_sum) == (2, 6)
        assert interval_sum.coeffs[2] == 8


@pytest.mark.xfail(strict=True,
                   reason="the quoted two-path count 5 (hence q^2 coefficient 7) "
                          "misses the increasing path through the rank-two element "
                          "2143; enumeration and the R-polynomial table give 6 and 8")
def test_c10_literal_p2_f2(a3, a3_ctx, pid):
    order = default_reflection_order(a3)
    w = pid(a3, "3412")
    members = a3.interval(a3.identity, w)
    interval_sum = analysis.interval_shifted_sum(a3_ctx, a3.identity, w)
    p1, p2 = analysis.p1_p2(a3, members, order, interval_sum)
    assert (p1, p2) == (2, 5)
    assert interval_sum.coeffs[2] == 7


def test_c11_dihedral_bound_suite(a4, a4_ctx, i2_ctxs):
    with criterion("c11 dihedral bounds"):
        # bounds everywhere
        for u, w in a4.comparable_pairs():
            assert analysis.dihedral_bounds_ok(a4_ctx, u, w)
        ctx12 = i2_ctxs[12]
        for u, w in ctx12.group.comparable_pairs():
            assert analysis.dihedral_bounds_ok(ctx12, u, w)
            n = ctx12.group.length[w] - ctx12.group.length[u]
            assert ctx12.shifted(u, w) == analysis.dihedral_poly(n)
        # sharpness inside the symmetric group: dihedral intervals reach the
        # ceiling, Boolean intervals sit on the floor
        booleans = dihedrals = 0
        for u, w in a4.comparable_pairs():
            n = a4.length[w] - a4.length[u]
            interval = a4.interval(u, w)
            if len(interval) == 2 ** n and is_boolean_interval(a4, interval):
                booleans += 1
                assert a4_ctx.shifted(u, w) == monomial(n)
            if len(interval) == max(2 * n, 1):
                graph = build_graph(a4, interval)
                if is_dihedral_interval(graph):
                    dihedrals += 1
                    assert a4_ctx.shifted(u, w) == analysis.dihedral_poly(n)
        assert booleans > 100 and dihedrals > 100


def test_c12_double_r_specializations(a3, a3_ctx):
    with criterion("c12 double-R specializations"):
        for u, w in a3.comparable_pairs():
            gamma = a3_ctx.gamma_vector(u, w)
            ell = a3.length[w] - a3.length[u]
            assert double_r_at(gamma, Q, Q) == a3_ctx.r(u, w)
            assert double_r_at(gamma, Q_PLUS_ONE, Q_PLUS_ONE) == a3_ctx.shifted(u, w)
            assert double_r_at(gamma, ONE, Q_PLUS_ONE) == a3_ctx.rtilde(u, w)
            assert double_r_at(gamma, ZERO, Q_PLUS_ONE) == monomial(ell)


def test_c13_conjecture_scan(a3, a3_ctx, a4, a4_ctx, i2_ctxs):
    with criterion("c13 conjecture scan"):
        scopes = [(a3_ctx, a3.comparable_pairs())]
        for m in range(2, 11):
            scopes.append((i2_ctxs[m], i2_ctxs[m].group.comparable_pairs()))
        scopes.append((a4_ctx, [(a4.identity, w) for w in a4.elements()]))
        violations = []
        for ctx, pairs in scopes:
            for u, w in pairs:
                v = analysis.conjecture_violation(ctx, u, w)
                if v is not None:
                    violations.append((ctx.group.descriptor.spec_string(), v))
        # evidence, not theorem: the scan found nothing to report
        assert violations == []


def test_c14_verify_determinism_across_workers():
    with criterion("c14 worker determinism"):
        outputs = []
        for workers in (1, 4, 8):
            proc = subprocess.run(
                [sys.executable, "-m", "bruhatpoly", "verify", "--group", "A3",
                 "--workers", str(workers)],
                capture_output=True, text=True, env=src_env(),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].endswith("suite: PASS (10/10)\n")
