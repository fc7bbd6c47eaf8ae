"""Exact polynomial arithmetic.

Everything in this module is exact: univariate polynomials over unbounded
Python integers. No floating point is used anywhere; averages are
`fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import starmap, zip_longest
from operator import le
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = [
    "IntPoly",
    "AverageUndefinedError",
    "ZERO",
    "ONE",
    "Q",
    "Q_PLUS_ONE",
    "Q_MINUS_ONE",
    "monomial",
    "size",
    "total",
    "average",
    "coeffwise_leq",
    "split_fields",
]


class AverageUndefinedError(ArithmeticError):
    """The average of the zero polynomial is left undefined."""


class IntPoly:
    """Dense univariate polynomial in q over the integers.

    ``coeffs[i]`` is the coefficient of ``q**i``. The tuple is normalized
    (no trailing zeros); the zero polynomial has an empty tuple. Instances
    are immutable, hashable and safe to share between workers.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple[int, ...] = tuple(c)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.text()})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def __rmul__(self, other: int) -> "IntPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate at an integer or exact rational point (Horner)."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- rendering ---------------------------------------------------------

    def text(self) -> str:
        """Render as e.g. ``q^3 + 2*q^2 - 1``."""
        if not self.coeffs:
            return "0"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(("-" if c < 0 else "+", body))
        sign0, body0 = terms[0]
        out = body0 if sign0 == "+" else f"-{body0}"
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
Q_PLUS_ONE = IntPoly((1, 1))
Q_MINUS_ONE = IntPoly((-1, 1))


def monomial(exponent: int, coefficient: int = 1) -> IntPoly:
    """The polynomial ``coefficient * q**exponent``."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return IntPoly((0,) * exponent + (coefficient,))


def size(f: IntPoly) -> int:
    """f(1); 0 for the zero polynomial."""
    return sum(f.coeffs)


def total(f: IntPoly) -> int:
    """f'(1); 0 for the zero polynomial."""
    return sum(i * c for i, c in enumerate(f.coeffs))


def average(f: IntPoly) -> Fraction:
    """Exact average f'(1)/f(1) of a nonzero polynomial."""
    s = size(f)
    if s == 0:
        raise AverageUndefinedError("average of the zero polynomial is undefined")
    return Fraction(total(f), s)


def coeffwise_leq(f: IntPoly, g: IntPoly) -> bool:
    """True when every coefficient of f is <= the matching coefficient of g
    (one C-level pass; the shorter tuple is padded with zeros)."""
    return all(starmap(le, zip_longest(f.coeffs, g.coeffs, fillvalue=0)))


def split_fields(packed: int, width: int) -> tuple[int, ...]:
    """The ``width``-bit fields of a nonnegative ``packed``, lowest first,
    without trailing zeros: the last field holds the highest set bit."""
    mask = (1 << width) - 1
    return tuple(packed >> i & mask for i in range(0, packed.bit_length(), width))
