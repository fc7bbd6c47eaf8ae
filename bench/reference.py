"""Independent reference computations on one-line permutations.

Nothing here imports bruhatpoly. Bruhat order is decided by the rank-matrix
(dot-matrix) criterion, and R-polynomials come from the left-descent form
of the Kazhdan-Lusztig recursion, whereas the program uses the right-descent
recursion on element ids. Polynomials are tuples of integer coefficients,
constant term first, with no trailing zeros.
"""

from __future__ import annotations

from itertools import combinations, permutations

Perm = tuple[int, ...]
Poly = tuple[int, ...]


def parse_perm(text: str) -> Perm:
    """A one-line permutation as the program prints it: '3412' or '3,4,1,2'."""
    parts = text.split(",") if "," in text else list(text)
    return tuple(int(x) for x in parts)


def inversions(p: Perm) -> int:
    return sum(1 for i, j in combinations(range(len(p)), 2) if p[i] > p[j])


def all_perms(n: int) -> list[Perm]:
    return list(permutations(range(1, n + 1)))


def transpositions(n: int) -> set[Perm]:
    out = set()
    for i, j in combinations(range(n), 2):
        p = list(range(1, n + 1))
        p[i], p[j] = p[j], p[i]
        out.add(tuple(p))
    return out


def is_transposition_step(u: Perm, v: Perm) -> bool:
    """Whether v = u*t for a transposition t: they differ in exactly two places."""
    return sum(1 for a, b in zip(u, v) if a != b) == 2


class BruhatOrder:
    """Bruhat order on S_n by the rank-matrix criterion.

    u <= w iff #{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j} for all i, j
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5).
    """

    def __init__(self) -> None:
        self._ranks: dict[Perm, tuple[int, ...]] = {}

    def ranks(self, p: Perm) -> tuple[int, ...]:
        r = self._ranks.get(p)
        if r is None:
            n = len(p)
            out = []
            for j in range(2, n + 1):
                count = 0
                for i in range(n - 1):
                    if p[i] >= j:
                        count += 1
                    out.append(count)
            r = self._ranks[p] = tuple(out)
        return r

    def leq(self, u: Perm, w: Perm) -> bool:
        return all(a <= b for a, b in zip(self.ranks(u), self.ranks(w)))

    def comparable_pairs(self, n: int) -> int:
        perms = all_perms(n)
        return sum(1 for u in perms for w in perms if self.leq(u, w))


def _add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _times_q(a: Poly) -> Poly:
    return (0,) + a if a else a


def _times_q_minus_one(a: Poly) -> Poly:
    return _add(_times_q(a), tuple(-c for c in a))


def _swap_values(p: Perm, i: int) -> Perm:
    """s_i * p: exchange the values i and i+1."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in p)


def _left_descent_at(p: Perm, i: int) -> bool:
    """s_i is a left descent of p iff i+1 stands before i in one-line form."""
    return p.index(i + 1) < p.index(i)


class RPolynomials:
    """R_{u,w} for permutations by the left-descent recursion, memoized.

    For the largest i with s_i a left descent of w:
    R_{u,w} = R_{s_i u, s_i w} when s_i is also a left descent of u, and
    R_{u,w} = (q-1) R_{u, s_i w} + q R_{s_i u, s_i w} otherwise.
    """

    def __init__(self, order: BruhatOrder | None = None) -> None:
        self.order = order or BruhatOrder()
        self._memo: dict[tuple[Perm, Perm], Poly] = {}
        self._length: dict[Perm, int] = {}

    def length(self, p: Perm) -> int:
        n = self._length.get(p)
        if n is None:
            n = self._length[p] = inversions(p)
        return n

    def r(self, u: Perm, w: Perm) -> Poly:
        if u == w:
            return (1,)
        if self.length(u) >= self.length(w) or not self.order.leq(u, w):
            return ()
        key = (u, w)
        value = self._memo.get(key)
        if value is not None:
            return value
        i = max(k for k in range(1, len(w)) if _left_descent_at(w, k))
        sw = _swap_values(w, i)
        su = _swap_values(u, i)
        if _left_descent_at(u, i):
            value = self.r(su, sw)
        else:
            value = _add(_times_q_minus_one(self.r(u, sw)), _times_q(self.r(su, sw)))
        self._memo[key] = value
        return value


def evaluate(poly: Poly, x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def derivative_at(poly: Poly, x: int) -> int:
    return evaluate(tuple(i * c for i, c in enumerate(poly))[1:], x)
