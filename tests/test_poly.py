from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruhatpoly.poly import (
    AverageUndefinedError,
    IntPoly,
    ONE,
    Q,
    Q_MINUS_ONE,
    Q_PLUS_ONE,
    ZERO,
    average,
    coeffwise_leq,
    monomial,
    size,
    split_fields,
    total,
)
from oracles import shift_plus_one

polys = st.builds(IntPoly, st.lists(st.integers(-50, 50), max_size=8))
nonneg_polys = st.builds(IntPoly, st.lists(st.integers(0, 30), max_size=8))


def test_normalization_and_degree():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly().degree == -1
    assert IntPoly((0, 0, 3)).degree == 2
    assert not IntPoly((0,))
    assert IntPoly((5,)) == 5


def test_arithmetic_basics():
    f = IntPoly((1, 3, 5, 4, 1))
    assert f.derivative()(1) == 29
    assert f * ZERO == ZERO
    assert Q_PLUS_ONE ** 3 == IntPoly((1, 3, 3, 1))
    assert (f - f) == ZERO
    assert 2 * Q == IntPoly((0, 2))


def test_derivative_drops_degree():
    f = IntPoly((7, -2, 0, 9))
    assert f.derivative().degree == f.degree - 1
    assert ONE.derivative() == ZERO


def test_shift_plus_one_examples():
    # (q-1)^3 + q(q-1) becomes q^3 + (q+1)q
    f = Q_MINUS_ONE ** 3 + Q * Q_MINUS_ONE
    assert shift_plus_one(f) == monomial(3) + Q_PLUS_ONE * Q
    assert shift_plus_one(ONE) == ONE
    g = Q_MINUS_ONE ** 5 + 2 * Q * (Q_MINUS_ONE ** 3)
    assert shift_plus_one(g) == monomial(5) + 2 * Q_PLUS_ONE * monomial(3)


def test_size_total_average_examples():
    f = monomial(5) + 2 * Q_PLUS_ONE * monomial(3)  # q^5 + 2(q+1)q^3
    assert size(f) == 5
    assert total(f) == 19
    assert size(ZERO) == 0 and total(ZERO) == 0
    with pytest.raises(AverageUndefinedError):
        average(ZERO)
    for n in range(1, 7):
        assert average(Q_PLUS_ONE ** n) == Fraction(n, 2)


def test_coeffwise_examples():
    f = IntPoly((1, 2))
    g = IntPoly((1, 1, 1))
    assert not coeffwise_leq(f, g)
    assert coeffwise_leq(f, f)
    assert coeffwise_leq(monomial(4), IntPoly((0, 1, 0, 0, 1)))


def test_text_rendering():
    f = IntPoly((1, -3, 0, 2))
    assert f.text() == "2*q^3 - 3*q + 1"
    assert ZERO.text() == "0"
    assert (-1 * Q).text() == "-q"


# -- algebraic identities, property-based ---------------------------------------


@given(polys, polys)
def test_size_and_total_are_additive(f, g):
    assert size(f + g) == size(f) + size(g)
    assert total(f + g) == total(f) + total(g)


@given(nonneg_polys, nonneg_polys)
def test_average_of_product_adds(f, g):
    if size(f) == 0 or size(g) == 0:
        return
    assert average(f * g) == average(f) + average(g)


@given(polys, st.integers(-30, 30))
@settings(max_examples=200)
def test_shift_plus_one_evaluates_correctly(f, x):
    assert shift_plus_one(f)(x) == f(x + 1)


@given(polys, polys)
def test_derivative_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(polys, polys, st.integers(-5, 5), st.integers(-5, 5))
def test_derivative_is_linear(f, g, a, b):
    assert (a * f + b * g).derivative() == a * f.derivative() + b * g.derivative()


@given(nonneg_polys, st.lists(st.integers(0, 9), max_size=6),
       st.lists(st.integers(0, 9), max_size=6))
def test_coeffwise_order_passes_to_derivatives(f, deltas1, deltas2):
    g = f + IntPoly(deltas1)
    h = g + IntPoly(deltas2)
    assert coeffwise_leq(f, g) and coeffwise_leq(g, h)
    assert coeffwise_leq(f.derivative(), g.derivative())
    assert coeffwise_leq(g.derivative(), h.derivative())


@given(polys, polys)
@example(ZERO, ZERO)
@example(ZERO, IntPoly((0, 0, -1)))  # a longer g whose only coefficient is negative
@example(IntPoly((-2,)), ZERO)
@example(IntPoly((1, 2)), IntPoly((1, 2, 3)))
@example(IntPoly((1, 2, -3)), IntPoly((1, 2)))  # a longer f, below g's padded zero
def test_coeffwise_leq_is_the_per_coefficient_order(f, g):
    # the one-pass comparison against its definition, coefficient by coefficient
    n = max(f.degree, g.degree) + 1
    assert coeffwise_leq(f, g) == all(f.coefficient(i) <= g.coefficient(i) for i in range(n))


@given(st.lists(st.integers(0, 2 ** 8 - 1), max_size=8), st.integers(8, 12))
def test_split_fields_inverts_packing(coeffs, width):
    # the fields of a packed coefficient list are the list without its trailing zeros
    packed = sum(c << i * width for i, c in enumerate(coeffs))
    assert split_fields(packed, width) == IntPoly(coeffs).coeffs
