"""The R-polynomial family on Bruhat intervals, via memoized descent recursions.

For a right descent s of w (so ws < w) and u <= w, all three families
satisfy the same two-branch recursion: when s also lowers u the pair drops
to (us, ws); otherwise the value is a fixed linear combination of the
values at (u, ws) and (us, ws). The three families differ only in the two
coefficient polynomials of the second branch:

    R:        (q-1) * R[u, ws]  +  q     * R[us, ws]
    R-tilde:   q    * Rt[u, ws] +  1     * Rt[us, ws]
    shifted:   q    * Rs[u, ws] + (q+1)  * Rs[us, ws]

The memo strips every descent that u and w share, on the right as in the
first branch and on the left as in its mirror image, before it computes a
pair; so only the second branch is ever computed. ``_RULES`` holds each
family's kernel, which applies its (low, high) in one pass over the two
coefficient tuples, building a single polynomial.

The shifted family is R evaluated at q+1, computed natively; the tests
cross-check it against the substitution.

The values at (e, x) live in one lower row per family, a list indexed by
element id whose entry x holds the value at (e, x); the memo keeps only
pairs with u != e. An entry is filled the first time a caller or a memo
walk reaches it, so a short w fills only its own ideal; after that a sum
over [e, w] or a size per element is a C-level ``map`` over the row, with
no call per pair. ``lower_row`` fills an entry by the first of three
routes that applies. Every family takes the same value at (u, w) and
(u^-1, w^-1) (Bjorner-Brenti, ch. 5), so (e, x) is a copy of (e, x^-1)
once that is filled. Else, for a right descent s of x, the second branch
at u = e combines (e, xs) and (s, xs), and (s, xs) is a row entry or zero
when s is a left descent of xs (the left form of the first branch lowers
it to (e, s*xs)) or is not in the support of xs (then s is not below xs).
Else, for a left descent s of x, the mirror image of that branch combines
(e, sx) and (s, sx) by the same kernel, with (s, sx) the row entry at
sx*s when s is a right descent of sx and zero when s is not in its
support. Row fills and memo walks share one kernel cache per family, so
each family combines each operand pair once.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, repeat, zip_longest
from operator import attrgetter, is_
from typing import NamedTuple, Sequence

from .coxeter import GroupTable
from .poly import IntPoly, ONE, ZERO, split_fields

__all__ = [
    "RContext",
    "GammaVector",
    "reassemble_r",
    "gamma_form_text",
]

# family -> kernel computing low * a + high * b on coefficient tuples (see above)
_RULES = {
    "r": lambda a, b: IntPoly(  # q*(a+b) - a
        [x + y - z for x, y, z in zip_longest((0,) + a, (0,) + b, a, fillvalue=0)]),
    "rtilde": lambda a, b: IntPoly(  # q*a + b
        [x + y for x, y in zip_longest((0,) + a, b, fillvalue=0)]),
    "shifted": lambda a, b: IntPoly(  # q*(a+b) + b
        [x + y + z for x, y, z in zip_longest((0,) + a, (0,) + b, b, fillvalue=0)]),
}

_COEFFS = attrgetter("coeffs")


class GammaVector(NamedTuple):
    """Coefficients of the nonnegative R-polynomial of one interval.

    The support runs from the absolute length to the Coxeter length in
    steps of two; every entry is positive and the top entry is 1. Entries
    are (exponent, value) pairs in ascending exponent order.
    """

    absolute_length: int
    coxeter_length: int
    entries: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


class RContext:
    """Memoized R / R-tilde / shifted-R computation on one group.

    The memo tables are plain dicts keyed by id pairs; values are pure
    functions of the pair, so per-worker contexts recompute identical
    polynomials. The first right descent of w drives the recursion; the
    tests check the values against an oracle that takes the last one.
    """

    def __init__(self, group: GroupTable) -> None:
        self.group = group
        # per element, bit s is set iff the generator s is in its support (is below it)
        support, right = [0] * len(group), group.right
        for w in range(1, len(group)):  # ids ascend with length, so ws comes first
            s = group.first_right_descent(w)
            support[w] = support[right[s][w]] | 1 << s
        self._support = support
        # family -> its value at reduced pairs (u, w) with u != e, by (u, w)
        self._memo: dict[str, dict[tuple[int, int], IntPoly]] = {name: {} for name in _RULES}
        # family -> its value at (e, x) by x, None where no caller or walk reached x yet
        self._rows: dict[str, list] = {name: [None] * len(group) for name in _RULES}
        # family -> kernel value by the ids of its two operands, for row fills and walks;
        # each operand lives in _interned (or is ONE or ZERO): an id stands for one value
        self._kernels: dict[str, dict[tuple[int, int], IntPoly]] = {name: {} for name in _RULES}
        # every memo and row value, by its coefficients: equal polynomials share one object
        self._interned: dict[tuple[int, ...], IntPoly] = {}
        # a shifted coefficient is at most 2^length(w0) (see ``shifted_sum``), and
        # a sum has at most |W| terms: bits per coefficient of a packed sum
        self._coefficient_cap = 1 << group.length[group.w0]
        self._packed_width = (len(group) * self._coefficient_cap).bit_length()
        # packed shifted values by the id of the interned value, which _interned keeps alive
        self._packed: dict[int, int] = {}
        # _pack(shifted(e, x)) by x, None where no sum asked yet; whole once
        # ``fill_packed_row`` has run, and then a lower sum scans no entry for None
        self._packed_row: list = [None] * len(group)
        self._packed_row_whole = False
        # analysis verdicts keyed by (question tag, *arguments), shared by the checks
        self.verdicts: dict[tuple, bool] = {}
        self.hits = 0
        self.misses = 0

    def _family(self, name: str, u: int, w: int) -> IntPoly:
        """The value of one family at (u, w), filling the memo and the lower
        row on the way.

        Each pair is reduced first: while u != w, both ends step down their
        lowest shared right descent, else their lowest shared left descent.
        Neither step changes the value (Bjorner-Brenti, Thm 5.1.1, and R(u, w) =
        R(u^-1, w^-1)) or comparability (Deodhar's Property Z). A reduced pair
        is read once: (e, w) from the lower row, any other from the memo, which
        holds reduced pairs with u != e only. On a reduced pair the first right
        descent s of w raises u, so every miss combines (u, ws) and (us, ws),
        on an explicit stack that Python's recursion limit does not bound.
        """
        memo, row = self._memo[name], self._rows[name]
        g, step, kernel, interned = self.group, _RULES[name], self._kernels[name], self._interned
        e, right, descents, descent = g.identity, g.right, g.descents, g.first_right_descent
        sides = right + g.left  # bit k of a descent mask is read from column k
        hits = misses = 0
        comparable = False  # whether u <= w is already known
        stack = []  # per missed pair: [its store, its key there, us, ws, value of (u, ws)]
        while True:
            # reduce (u, w), right descents first; no pair on the way can be a key
            while u != w and (shared := descents[u] & descents[w]):
                s = (shared & -shared).bit_length() - 1
                col = sides[s]
                u, w = col[u], col[w]
            if (value := ONE if u == w else row[w] if u == e else memo.get((u, w))) is not None:
                hits += u != w  # a row or memo hit unless (u, w) is diagonal
            # only comparable pairs enter the memo, so the order test can wait. By
            # the lifting property (Bjorner-Brenti, Prop. 2.2.7) u <= w gives
            # u <= ws; (us, ws) then needs a test.
            elif comparable or g.leq(u, w):
                misses += 1
                s = descent(w)
                col = right[s]
                ws = col[w]
                stack.append([row, w, col[u], ws, None] if u == e
                             else [memo, (u, w), col[u], ws, None])
                w, comparable = ws, True
                continue
            else:
                value = ZERO
            while stack:  # hand the value up to the first frame that needs a pair
                frame = stack[-1]
                if frame[4] is None:  # value is that of (u, ws); (us, ws) is next
                    frame[4] = value
                    u, w, comparable = frame[2], frame[3], False
                    break
                # each operand is a row or memo value (interned, so alive), ONE or ZERO
                if (made := kernel.get(key := (id(frame[4]), id(value)))) is None:
                    made = step(frame[4].coeffs, value.coeffs)
                    made = kernel[key] = interned.setdefault(made.coeffs, made)
                frame[0][frame[1]] = value = made
                stack.pop()
            else:
                self.hits += hits
                self.misses += misses
                return value

    # -- the three families -------------------------------------------------

    def r(self, u: int, w: int) -> IntPoly:
        """Classic R-polynomial of [u, w] (0 when u is not below w)."""
        return self._family("r", u, w)

    def rtilde(self, u: int, w: int) -> IntPoly:
        """Nonnegative R-polynomial; monic of degree length(u, w)."""
        return self._family("rtilde", u, w)

    def shifted(self, u: int, w: int) -> IntPoly:
        """R evaluated at q+1, computed by its own native recursion."""
        return self._family("shifted", u, w)

    def lower_row(self, name: str, members: Sequence[int]) -> list:
        """The lower row of a family: ``row[x]`` is its value at (e, x).

        Every x of ``members`` is filled if it is not yet, in ascending id
        order (so by length), by the first of three routes that applies
        (see the module docstring):

        1. ``row[x^-1]``, if it is filled: every family takes the same value
           at (e, x) and (e, x^-1);
        2. for a right descent s of x, the family's kernel on ``row[xs]`` and
           ``row[s*xs]`` (s a left descent of xs), or on ``row[xs]`` and zero
           (s not in the support of xs);
        3. for a left descent s of x, the mirror image: the kernel on
           ``row[sx]`` and ``row[sx*s]`` (s a right descent of sx), or on
           ``row[sx]`` and zero (s not in the support of sx).

        A descent whose operands are still None is passed over. An x that no
        route serves goes through ``_family``, whose walk reads (e, xs) from
        the row, sends only (s, xs) through the memo and fills the row entries
        it computes on the way. Entries that no caller or walk has reached
        stay None.
        """
        row = self._rows[name]
        g = self.group
        e, n, inverse, descents = g.identity, g.num_generators, g.inverse, g.descents
        sides = g.right + g.left  # bit k of a descent mask is read from column k
        support, interned = self._support, self._interned
        step, kernel = _RULES[name], self._kernels[name]
        for x in sorted(compress(members, map(is_, map(row.__getitem__, members), repeat(None)))):
            value = row[inverse[x]]
            todo = 0 if value is not None else descents[x]  # right descents, then left
            while todo:
                k = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                s, mirror = k % n, (k + n) % (2 * n)  # the generator and its other side
                y = sides[k][x]  # xs, or sx for a left descent
                if descents[y] >> mirror & 1:
                    b = row[sides[mirror][y]]  # (s, y) lowers to (e, s*xs), or (e, sx*s)
                elif support[y] >> s & 1:
                    continue  # (s, y) is a pair of its own: try the next descent
                else:
                    b = ZERO  # s is not below y
                if (a := row[y]) is not None and b is not None:
                    key = (id(a), id(b))
                    if (value := kernel.get(key)) is None:
                        value = step(a.coeffs, b.coeffs)
                        value = kernel[key] = interned.setdefault(value.coeffs, value)
                    break
            row[x] = self._family(name, e, x) if value is None else value
        return row

    def lower_sizes(self, members: Sequence[int]) -> list[int]:
        """The size of [e, x] for each x of ``members``, in order: shifted at 1,
        which must equal R at 2 (both rows are read)."""
        shifted = map(self.lower_row("shifted", members).__getitem__, members)
        via_shift = list(map(sum, map(_COEFFS, shifted)))
        via_r = list(map(IntPoly.__call__, map(self.lower_row("r", members).__getitem__, members),
                         repeat(2)))
        if via_shift != via_r:
            raise AssertionError("the two size routes disagree")
        return via_shift

    # -- interval sums of shifted values -------------------------------------------

    def shifted_sum(self, u: int, members: Sequence[int], degree: int) -> IntPoly:
        """The sum of shifted(u, x) over x in ``members``, a polynomial of
        degree at most ``degree`` (the length of the interval they span).

        Each term is packed into one int, coefficient i in bits [i*b, (i+1)*b)
        with b = (|W| * 2^length(w0)).bit_length(), so the sum is one C-level
        ``sum`` and one split into fields. For u = e the terms come from the
        packed lower row: once ``fill_packed_row`` has made it whole, the sum
        is read straight off it; before, the members whose entries are None
        are filled first, from the shifted lower row. For other u the terms
        come from the memo. Each distinct value is packed once, and its
        coefficients are checked then to lie in [0, 2^length(w0)]. The cap
        holds for every shifted value: shifted(u, x) <= d_n coefficientwise
        with n = length(u, x) (the dihedral upper bound that ``th4-bounds``
        verifies), so a coefficient is at most d_n(1) = J_n <= 2^n. A sum of
        at most |W| terms therefore never carries from one field into the
        next, since |W| * 2^length(w0) < 2^b.
        """
        if u == self.group.identity:
            row = self._packed_row
            if not self._packed_row_whole and (missing := list(
                    compress(members, map(is_, map(row.__getitem__, members), repeat(None))))):
                shifted = self.lower_row("shifted", missing)
                for x in missing:
                    row[x] = self._pack(shifted[x])
            total = sum(map(row.__getitem__, members))
        else:
            total = sum(map(self._pack, map(partial(self._family, "shifted", u), members)))
        width = self._packed_width
        if total >> (degree + 1) * width:
            raise AssertionError("a packed sum has a coefficient above its degree")
        return IntPoly(split_fields(total, width))

    def fill_packed_row(self) -> None:
        """Fill the shifted lower row and the packed row for every element,
        each distinct value packed (and its coefficients checked) once."""
        if not self._packed_row_whole:
            shifted = self.lower_row("shifted", range(len(self.group)))
            self._packed_row = list(map(self._pack, shifted))
            self._packed_row_whole = True

    def _pack(self, value: IntPoly) -> int:
        """A shifted value as one int in the format of ``shifted_sum``."""
        value = self._interned.setdefault(value.coeffs, value)
        packed = self._packed.get(id(value))
        if packed is None:
            coeffs, width = value.coeffs, self._packed_width
            if coeffs and min(coeffs) < 0:
                raise AssertionError("a shifted polynomial has a negative coefficient")
            if coeffs and max(coeffs) > self._coefficient_cap:
                raise AssertionError("a shifted coefficient exceeds 2^length(w0)")
            packed = self._packed[id(value)] = sum(
                c << i * width for i, c in enumerate(coeffs))
        return packed

    # -- derived data ---------------------------------------------------------

    def gamma_vector(self, u: int, w: int) -> GammaVector:
        """Support and coefficients of the nonnegative R-polynomial.

        Validates the structural facts: positive entries, step-two support,
        monic top coefficient.
        """
        g = self.group
        if not g.leq(u, w):
            raise ValueError("gamma vector requires comparable endpoints")
        rt = self.rtilde(u, w)
        ell = g.length[w] - g.length[u]
        entries = tuple((i, c) for i, c in enumerate(rt.coeffs) if c != 0)
        if not entries:
            raise AssertionError("nonzero interval must have a nonzero polynomial")
        a = entries[0][0]
        if rt.degree != ell or entries[-1][1] != 1:
            raise AssertionError("polynomial must be monic of degree length(u, w)")
        for e, v in entries:
            if v <= 0 or (e - a) % 2 != 0:
                raise AssertionError("support must step by two with positive entries")
        return GammaVector(a, ell, entries)

    def bruhat_size(self, u: int, w: int) -> int:
        """Shifted polynomial at 1; must equal R at 2 (both are computed)."""
        via_shift = self.shifted(u, w)(1)
        via_r = self.r(u, w)(2)
        if via_shift != via_r:
            raise AssertionError("the two size routes disagree")
        return via_shift

    def bruhat_total(self, u: int, w: int) -> int:
        """Derivative of the shifted polynomial at 1; must equal R' at 2."""
        via_shift = self.shifted(u, w).derivative()(1)
        via_r = self.r(u, w).derivative()(2)
        if via_shift != via_r:
            raise AssertionError("the two total routes disagree")
        return via_shift


def reassemble_r(gamma: GammaVector) -> IntPoly:
    """Rebuild R from its gamma vector: sum gamma_j q^((ell-j)/2) (q-1)^j, with
    (q-1)^j expanded as the signed binomial coefficients (-1)^(j-i) C(j, i) q^i,
    each from the one before."""
    ell = gamma.coxeter_length
    coeffs = [0] * (ell + 1)
    for j, gamma_j in gamma.entries:
        low = (ell - j) // 2
        term = -gamma_j if j % 2 else gamma_j  # the coefficient of q^0 in gamma_j (q-1)^j
        for i in range(j + 1):
            coeffs[low + i] += term
            term = -term * (j - i) // (i + 1)  # exact: C(j, i)(j-i) = C(j, i+1)(i+1)
    return IntPoly(coeffs)


def gamma_form_text(gamma: GammaVector) -> str:
    """Render R in its factored shape, e.g. ``(q-1)^6 + 3*q*(q-1)^4 + q^2*(q-1)^2``."""
    if gamma.coxeter_length == 0:
        return "1"
    terms = []
    for j, coeff in reversed(gamma.entries):
        parts = []
        if coeff != 1:
            parts.append(str(coeff))
        q_exp = (gamma.coxeter_length - j) // 2
        if q_exp == 1:
            parts.append("q")
        elif q_exp > 1:
            parts.append(f"q^{q_exp}")
        if j == 1:
            parts.append("(q-1)")
        elif j > 1:
            parts.append(f"(q-1)^{j}")
        terms.append("*".join(parts) if parts else "1")
    return " + ".join(terms)
