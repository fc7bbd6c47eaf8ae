"""Interval statistics, regularity criteria, dihedral bounds and scans.

The checks here compare independent routes to the same fact wherever the
theory offers one: degree-regularity of the Bruhat graph against the
average of the Poincare polynomial, against Booleanness of all upper
subintervals, and (in type A) against 3412/4231 pattern containment;
dihedral bound polynomials against their recursion and generating
function; coefficient sums against weighted path counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count, islice
from operator import and_, eq, gt, itemgetter, lt, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .coxeter import GroupTable
from .graph import default_reflection_order, edge_row
from .poly import (
    IntPoly,
    ONE,
    Q,
    Q_PLUS_ONE,
    ZERO,
    average,
    coeffwise_leq,
    monomial,
)
from .rpoly import RContext, reassemble_r

__all__ = [
    "poincare",
    "is_regular",
    "carrell_peterson_equal",
    "bruhat_poincare",
    "interval_shifted_sum",
    "is_bruhat_boolean",
    "regular_via_upper_boolean",
    "shifted_average_fires",
    "p1_p2",
    "DeodharVerdict",
    "deodhar_check",
    "dihedral_poly",
    "dihedral_series",
    "pattern_contains",
    "is_singular",
    "observation_sum",
    "FourWayVerdict",
    "four_way_regularity",
    "dihedral_bounds_ok",
    "conjecture_violation",
    "edge_size_tally",
    "interval_report",
]


# -- Poincare polynomials -------------------------------------------------------


def poincare(ctx: RContext, w: int) -> IntPoly:
    """Rank generating function of the lower interval of w: ids ascend with
    length, so the members of length k are one run of the ascending ideal."""
    g = ctx.group
    ideal = g.interval(g.identity, w)
    cuts = [bisect_left(ideal, bisect_left(g.length, k)) for k in range(g.length[w] + 2)]
    return IntPoly(tuple(map(sub, cuts[1:], cuts)))


# -- regularity ----------------------------------------------------------------


def _degree(group: GroupTable, members: Iterable[int]) -> Callable[[int], int]:
    """x -> #{t : xt in members}, the degree of x in the graph ``members`` induce."""
    inside, columns = set(members).__contains__, tuple(group.reflection_columns().values())
    return lambda x: sum(map(inside, map(itemgetter(x), columns)))


def is_regular(ctx: RContext, u: int, w: int) -> bool:
    """Whether every vertex of the Bruhat graph of [u, w] has degree ell(u, w).

    Tests only the x with no descent in ``fixed``, the left and right
    descents of w that u lacks; the verdict is kept on the context. Proof:
    x -> xs and x -> sx map the edge {x, xt} to {xs, xs sts} and {sx, sx t}.
    For s a right (left) descent of w that u lacks, they map [u, w] onto
    itself by the lifting property (Bjorner-Brenti, Prop. 2.2.7). So the
    degree is constant on W_I x W_J, with I and J the left and right
    descents of w that u lacks, and the shortest element of each such
    double coset has no descent in ``fixed``.
    """
    key = ("degree-regular", u, w)
    verdict = ctx.verdicts.get(key)
    if verdict is None:
        g, descents = ctx.group, ctx.group.descents
        members, ell = g.interval(u, w), g.length[w] - g.length[u]
        fixed, degree = descents[w] & ~descents[u], _degree(g, members)
        verdict = ctx.verdicts[key] = all(
            degree(x) == ell for x in members if not descents[x] & fixed)
    return verdict


def carrell_peterson_equal(ctx: RContext, w: int) -> tuple[Fraction, bool]:
    """Average of the Poincare polynomial against half the length of w."""
    avg = average(poincare(ctx, w))
    return avg, avg == Fraction(ctx.group.length[w], 2)


@lru_cache(maxsize=None)
def _boolean_coeffs(ell: int) -> tuple[int, ...]:
    """Coefficients of (1+q)^ell, the shifted sum of a Boolean interval."""
    return tuple(math.comb(ell, i) for i in range(ell + 1))


def interval_shifted_sum(ctx: RContext, u: int, w: int) -> IntPoly:
    """Sum of the shifted polynomials from u over the whole interval [u, w]
    (``RContext.shifted_sum``)."""
    g = ctx.group
    return ctx.shifted_sum(u, g.interval(u, w), g.length[w] - g.length[u])


def bruhat_poincare(ctx: RContext, w: int) -> IntPoly:
    """Sum of the shifted polynomials of all v below w (lower-interval form)."""
    return interval_shifted_sum(ctx, ctx.group.identity, w)


def is_bruhat_boolean(ctx: RContext, u: int, w: int) -> bool:
    """Whether the interval's shifted sum is exactly (1+q)^length."""
    ell = ctx.group.length[w] - ctx.group.length[u]
    return interval_shifted_sum(ctx, u, w).coeffs == _boolean_coeffs(ell)


def regular_via_upper_boolean(ctx: RContext, u: int, w: int) -> bool:
    """Regularity criterion: every upper subinterval [v, w] of [u, w] is Bruhat-Boolean.

    Only the v whose left and right descent sets both contain those of w
    are tested, each by its shifted sum over [v, w] (from the order, not
    the graph). The verdict is kept on the context.

    The other v need no test. Write S(v, w) for the sum of shifted(v, x)
    over x in [v, w]. Let s be a left descent of w with sv > v. By the
    lifting property (Bjorner-Brenti, Prop. 2.2.7) x -> sx maps [v, w]
    onto itself, so [v, w] splits into pairs y < sy. The left form of the
    descent recursion (Bjorner-Brenti, Thm 5.1.1) gives
    R(v, sy) = (q-1) R(v, y) + q R(sv, y) and R(sv, sy) = R(v, y). So
    the sum of R(v, x) over [v, w] is q times the sum over the pairs of
    R(v, y) + R(sv, y), and that sum is the sum of R(sv, x) over [v, w],
    which is the sum over [sv, w] since R(sv, x) = 0 unless sv <= x.
    At q + 1 this reads S(v, w) = (q+1) S(sv, w). The mirror identity
    for a right descent s of w with vs > v follows from
    R(u, w) = R(u^-1, w^-1). Hence [v, w] is Bruhat-Boolean exactly when
    [sv, w] is; sv lies in [u, w] again, one length higher. Climbing so
    ends, inside [u, w] and with the same verdict, at a v whose descents
    contain those of w.
    """
    key = ("upper-boolean", u, w)
    verdict = ctx.verdicts.get(key)
    if verdict is None:
        g, descents = ctx.group, ctx.group.descents
        top = descents[w]
        verdict = ctx.verdicts[key] = all(
            is_bruhat_boolean(ctx, v, w) for v in g.interval(u, w)
            if descents[v] & top == top)
    return verdict


def shifted_average_fires(ctx: RContext, w: int) -> tuple[Fraction, bool]:
    """Irregularity test from the average of the Bruhat-Poincare polynomial.

    Returns (average, fired). A fired test proves the lower interval
    irregular; a silent one proves nothing (the implication is one-way).
    """
    avg = average(bruhat_poincare(ctx, w))
    return avg, avg != Fraction(ctx.group.length[w], 2)


# -- coefficient counts for interval sums ---------------------------------------


def p1_p2(group: GroupTable, members: tuple[int, ...], order: tuple[int, ...],
          interval_sum: IntPoly) -> tuple[int, int]:
    """Height excess over edges from the bottom, and increasing two-step paths.

    On the interval whose ascending ids are ``members``, p1 sums (height - 1)
    over the edges leaving the bottom element; p2 counts label-increasing
    paths of absolute length two from the bottom to anywhere in the
    interval. Only the rows of the bottom and of its out-neighbours are
    read. Their sum is asserted to match the q^2 coefficient of
    ``interval_sum``, the interval's shifted sum.
    """
    u, w, length = members[0], members[-1], group.length
    inside, rank = frozenset(members), {t: i for i, t in enumerate(order)}
    row = edge_row(group, inside, u)
    p1 = sum((length[y] - length[u] - 1) // 2 for y, _ in row)
    p2 = sum(rank[t2] > rank[t] for y, t in row for _, t2 in edge_row(group, inside, y))
    if length[w] - length[u] >= 2 and p1 + p2 != interval_sum.coefficient(2):
        raise AssertionError("p1 + p2 must equal the q^2 coefficient of the interval sum")
    return p1, p2


class DeodharVerdict(NamedTuple):
    """Out-degree and two-step counts of one interval, with strictness flags.

    Two regularity notions are recorded. ``degree_regular`` asks every
    vertex of the induced Bruhat graph to have degree ell; it matches the
    classical picture on lower intervals but can fail on general intervals
    that are perfectly smooth otherwise. ``boolean_regular`` asks every
    upper subinterval to be Bruhat-Boolean; that is the notion under which
    the strictness of the out-degree inequality characterizes irregularity
    on every interval (the two notions coincide on lower intervals, which
    the tests check exhaustively).
    """

    ell: int
    f1: int
    f2: int
    f1_strict: bool
    f2_strict: bool
    degree_regular: bool
    boolean_regular: bool

    @property
    def f1_holds(self) -> bool:
        return self.f1 >= self.ell

    @property
    def f2_holds(self) -> bool:
        return self.f2 >= math.comb(self.ell, 2)

    @property
    def consistent(self) -> bool:
        # strict first inequality is equivalent to irregularity; a strict
        # second inequality may only happen on irregular intervals
        return (self.f1_strict == (not self.boolean_regular)) and (
            not self.f2_strict or not self.boolean_regular
        )


def deodhar_check(ctx: RContext, u: int, w: int) -> DeodharVerdict:
    """Both degree inequalities for [u, w], with strictness records."""
    g = ctx.group
    members, ell = g.interval(u, w), g.length[w] - g.length[u]
    interval_sum = ctx.shifted_sum(u, members, ell)
    f1, f2 = interval_sum.coefficient(1), interval_sum.coefficient(2)
    if f1 != _degree(g, members)(u):  # every edge at u goes up
        raise AssertionError("q coefficient of the interval sum must be the out-degree")
    return DeodharVerdict(
        ell=ell,
        f1=f1,
        f2=f2,
        f1_strict=f1 > ell,
        f2_strict=f2 > math.comb(ell, 2),
        degree_regular=is_regular(ctx, u, w),
        boolean_regular=regular_via_upper_boolean(ctx, u, w),
    )


# -- dihedral bound polynomials ---------------------------------------------------


# d_0, d_1, ... as far as any caller has asked, extended on demand
_DIHEDRAL = [ONE, Q, monomial(2)]


def dihedral_poly(n: int) -> IntPoly:
    """d_0 = 1, d_1 = q, d_2 = q^2, then d_n = q d_{n-1} + (q+1) d_{n-2}.

    Every d_k is computed once and kept, so d_0, ..., d_N cost 2N products.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    polys = _DIHEDRAL
    while len(polys) <= n:
        polys.append(Q * polys[-1] + Q_PLUS_ONE * polys[-2])
    return polys[n]


def dihedral_series(count: int) -> list[IntPoly]:
    """Expand (1 - (q+1) z^2) / ((1+z)(1 - (q+1) z)) as a power series in z.

    Generic term-by-term series division: solve sum c_n z^n * denominator
    = numerator. Coefficients are polynomials in q; the denominator has
    constant term 1 so the division is exact.
    """
    numerator = {0: ONE, 2: -1 * Q_PLUS_ONE}
    denominator = {0: ONE, 1: -1 * Q, 2: -1 * Q_PLUS_ONE}
    out: list[IntPoly] = []
    for n in range(count):
        acc = numerator.get(n, ZERO)
        for k, dk in denominator.items():
            if 1 <= k <= n:
                acc = acc - dk * out[n - k]
        out.append(acc)
    return out


def dihedral_bounds_ok(ctx: RContext, u: int, w: int) -> bool:
    """q^n <= shifted <= d_n and n q^(n-1) <= shifted' <= d_n' coefficientwise,
    checked once per distinct (n, shifted) value and kept on the context."""
    n = ctx.group.length[w] - ctx.group.length[u]
    if n < 1:
        return True
    f = ctx.shifted(u, w)
    key = ("dihedral-bounds", n, f)
    verdict = ctx.verdicts.get(key)
    if verdict is None:
        fd = f.derivative()
        verdict = ctx.verdicts[key] = (
            coeffwise_leq(monomial(n), f)
            and coeffwise_leq(f, dihedral_poly(n))
            and coeffwise_leq(monomial(n - 1, n), fd)
            and coeffwise_leq(fd, dihedral_poly(n).derivative())
        )
    return verdict


# -- pattern containment (type A) -------------------------------------------------

PATTERNS = ("3412", "4231")


def pattern_contains(perm: Sequence[int], pattern: str) -> bool:
    """Containment of 3412 or 4231, tested on every subsequence of four entries."""
    if pattern not in PATTERNS:
        raise ValueError(f"pattern must be one of {PATTERNS}")
    return any(c < d < a < b if pattern == "3412" else d < b < c < a
               for a, b, c, d in combinations(perm, 4))


def is_singular(perm: Sequence[int]) -> bool:
    """A permutation containing 3412 or 4231."""
    return pattern_contains(perm, "3412") or pattern_contains(perm, "4231")


# -- group-wide facts ----------------------------------------------------------------


class ObservationResult(NamedTuple):
    sum_of_sizes: int
    expected: int
    sum_ok: bool
    poly_ok: bool

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.poly_ok


def observation_sum(ctx: RContext) -> ObservationResult:
    """Sizes over the whole group sum to 2^length(w0), and the full
    Bruhat-Poincare polynomial is (1+q)^length(w0)."""
    g = ctx.group
    n = g.length[g.w0]
    s = sum(ctx.lower_sizes(range(len(g))))
    poly_ok = bruhat_poincare(ctx, g.w0).coeffs == _boolean_coeffs(n)
    return ObservationResult(s, 2 ** n, s == 2 ** n, poly_ok)


class FourWayVerdict(NamedTuple):
    w: int
    degree_regular: bool
    average_equal: bool
    upper_boolean: bool
    pattern_smooth: Optional[bool]  # None outside type A

    @property
    def agree(self) -> bool:
        votes = [self.degree_regular, self.average_equal, self.upper_boolean]
        if self.pattern_smooth is not None:
            votes.append(self.pattern_smooth)
        return all(votes) or not any(votes)


def four_way_regularity(ctx: RContext, w: int) -> FourWayVerdict:
    """All regularity criteria for the lower interval [e, w], side by side."""
    g = ctx.group
    _, avg_equal = carrell_peterson_equal(ctx, w)
    pattern: Optional[bool] = None
    if g.descriptor.family == "A":
        pattern = not is_singular(g.form(w))
    return FourWayVerdict(
        w=w,
        degree_regular=is_regular(ctx, g.identity, w),
        average_equal=avg_equal,
        upper_boolean=regular_via_upper_boolean(ctx, g.identity, w),
        pattern_smooth=pattern,
    )


def conjecture_violation(ctx: RContext, u: int, w: int) -> Optional[dict]:
    """Check (1+q)^ell <= interval shifted sum; describe any failure."""
    ell = ctx.group.length[w] - ctx.group.length[u]
    s = interval_shifted_sum(ctx, u, w)
    bound = IntPoly(_boolean_coeffs(ell))
    if coeffwise_leq(bound, s):
        return None
    g = ctx.group
    return {
        "u": g.display(u),
        "w": g.display(w),
        "ell": ell,
        "interval_sum": s.text(),
        "lower_bound": bound.text(),
    }


class EdgeSizeTally(NamedTuple):
    edges: int
    equal: int
    strict: int
    equal_examples: tuple[tuple[str, str], ...]
    strict_examples: tuple[tuple[str, str], ...]


# examples of each kind that the edge-size tally lists
TALLY_EXAMPLES = 5


def edge_size_tally(ctx: RContext) -> EdgeSizeTally:
    """Across all Bruhat edges u -> v, compare the sizes of u and v.

    Monotonicity is asserted (never decreasing); the tally reports how
    often the size stays equal versus strictly grows, with the first few
    examples of each in (u, reflection) order. Descriptive only: the
    general strictness question is open. Each reflection column is compared
    against the sizes whole, one C-level pass per comparison.
    """
    g = ctx.group
    length = g.length
    sizes = ctx.lower_sizes(range(len(g)))
    columns = tuple(g.reflection_columns().values())
    edges = equal = 0
    # (u, column index) of the first examples of each kind, per column
    equal_at: list[tuple[int, int]] = []
    strict_at: list[tuple[int, int]] = []
    for k, col in enumerate(columns):
        up = list(map(lt, length, map(length.__getitem__, col)))  # u -> u*t is an edge
        above = list(map(sizes.__getitem__, col))
        if any(map(and_, up, map(gt, sizes, above))):
            raise AssertionError("size must not decrease along a Bruhat edge")
        same = list(map(and_, up, map(eq, sizes, above)))
        grew = map(and_, up, map(lt, sizes, above))  # read only up to the last example
        edges += sum(up)
        equal += sum(same)
        equal_at += ((u, k) for u in islice(compress(count(), same), TALLY_EXAMPLES))
        strict_at += ((u, k) for u in islice(compress(count(), grew), TALLY_EXAMPLES))

    def examples(at: list[tuple[int, int]]) -> tuple[tuple[str, str], ...]:
        return tuple((g.display(u), g.display(columns[k][u]))
                     for u, k in sorted(at)[:TALLY_EXAMPLES])

    return EdgeSizeTally(edges, equal, edges - equal, examples(equal_at), examples(strict_at))


# -- one-interval report ---------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_json(f: IntPoly) -> dict:
    return {"coeffs": [str(c) for c in f.coeffs], "text": f.text()}


def interval_report(ctx: RContext, u: int, w: int) -> dict:
    """Everything this library knows about one interval, as a JSON-ready dict.

    Lower intervals also get their Poincare polynomial and the two average
    criteria, and in type A the pattern criterion.
    """
    g = ctx.group
    members, ell = g.interval(u, w), g.length[w] - g.length[u]
    gamma, r = ctx.gamma_vector(u, w), ctx.r(u, w)
    if reassemble_r(gamma) != r:  # R-tilde's route against R's
        raise AssertionError(f"the gamma vector of [{g.display(u)}, {g.display(w)}] is not its R")
    shifted = ctx.shifted(u, w)
    interval_sum = ctx.shifted_sum(u, members, ell)
    p1, p2 = p1_p2(g, members, default_reflection_order(g), interval_sum)
    regular = is_regular(ctx, u, w)
    regularity = {
        "regular": regular,
        "by_degrees": regular,
        "by_upper_boolean": regular_via_upper_boolean(ctx, u, w),
    }
    out = {
        "group": g.descriptor.spec_string(),
        "u": g.display(u),
        "w": g.display(w),
        "ell": ell,
        "absolute_length": gamma.absolute_length,
        "r": _poly_json(r),
        "rtilde": _poly_json(ctx.rtilde(u, w)),
        "shifted_r": _poly_json(shifted),
        "gamma": {str(j): c for j, c in gamma.entries},
        "size": ctx.bruhat_size(u, w),
        "total": ctx.bruhat_total(u, w),
        "average": _frac_str(average(shifted)) if shifted else None,
        "f_tilde": {f"f{i}": v for i, v in enumerate(interval_sum.coeffs)},
        "f1": interval_sum.coefficient(1),
        "f2": interval_sum.coefficient(2),
        "p1": p1,
        "p2": p2,
        "regularity": regularity,
        "bruhat_boolean": interval_sum.coeffs == _boolean_coeffs(ell),
        "dihedral_bounds_ok": dihedral_bounds_ok(ctx, u, w),
    }
    if u == g.identity:
        poincare_avg, regularity["by_average"] = carrell_peterson_equal(ctx, w)
        shifted_avg, regularity["average_criterion_fired"] = shifted_average_fires(ctx, w)
        out["poincare"] = _poly_json(poincare(ctx, w))
        out["poincare_average"] = _frac_str(poincare_avg)
        out["bruhat_poincare_average"] = _frac_str(shifted_avg)
        if g.descriptor.family == "A":
            regularity["by_pattern_smooth"] = not is_singular(g.form(w))
    return out
