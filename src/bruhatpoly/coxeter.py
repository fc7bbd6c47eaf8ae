"""Finite Coxeter groups of type A and dihedral type, fully enumerated.

A :class:`GroupTable` holds one group: canonical forms, lengths, product
tables, the reflection set and Bruhat order queries. Type A rank n is the
symmetric group on n+1 letters, whose forms are one-line permutations kept
as ``bytes`` (values 1..n+1); the dihedral group I2(m) of order 2m uses
(rotation, flip) pairs. Forms are multiplied only while the group is
enumerated, once per (form, generator) and on the left: s*f swaps the values
i and i+1 of a type A form, one ``bytes.translate``. One pass finds each
length level and the left product table with it. Every other table is read
off that table and the level sizes: the length of x is its level, and the
right table and the inverses are filled in id order from shorter elements.
Then all is integer tables, and forms serve only to parse and display. The
tables are column-major, one tuple of ids per generator s: ``right[s][x]``
is x*s and ``left[s][x]`` is s*x. ``mul`` walks the first right descents of
its second factor, and the columns x -> x*t per reflection t are built on
first use. Tables are immutable after construction. Bruhat order is
answered by a walk down right descents (no memo); lower ideals, whole or
cut at a length cap, are built lazily on first use, from the columns of
``right``; only the ideals callers ask for are kept, per table and cap. A
kept ideal is a pure function of its top element and cap, so sharing a
table between worker processes (or rebuilding it per worker) gives
identical answers.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, count, repeat
from operator import eq, gt, lshift, methodcaller, or_, sub
from typing import Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "CoxeterDescriptor",
    "GroupTable",
    "Interval",
    "SizeLimitError",
    "EmptyIntervalError",
    "enumerate_group",
]

# the largest group order enumerate_group accepts
DEFAULT_MAX_ORDER = 10**6


class SizeLimitError(ValueError):
    """The requested group is larger than ``DEFAULT_MAX_ORDER``."""


class EmptyIntervalError(ValueError):
    """Raised when asked for [u, w] with u not below w in Bruhat order."""


class Frozen:
    """A read-only record on slots, for the records that cannot be tuples:
    ``__init__`` sets the fields ``_fields`` in order, and a record pickles
    as its class and field values. The other records are ``NamedTuple``
    classes, which cost far less to import and create than dataclasses."""

    __slots__ = _fields = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(map(self.__getattribute__, self._fields))


class CoxeterDescriptor(NamedTuple("CoxeterDescriptor", [("family", str), ("param", int)])):
    """Which finite Coxeter group to build.

    ``family`` is ``"A"`` (rank = number of generators, group S_{rank+1})
    or ``"I2"`` (param m >= 2, group of order 2m).
    """

    __slots__ = ()

    def __new__(cls, family: str, param: int) -> "CoxeterDescriptor":
        if family == "A":
            if param < 1:
                raise ValueError("type A rank must be >= 1")
        elif family == "I2":
            if param < 2:
                raise ValueError("dihedral parameter must be >= 2")
        else:
            raise ValueError(f"unknown family {family!r} (expected 'A' or 'I2')")
        return super().__new__(cls, family, param)

    @property
    def num_generators(self) -> int:
        return self.param if self.family == "A" else 2

    def order(self, cap: int | None = None) -> int | None:
        """The group order, or None once a running product passes ``cap``
        with factors still to multiply, so a huge rank is refused at once."""
        if self.family != "A":
            return 2 * self.param
        out = 1
        for k in range(2, self.param + 2):
            if cap is not None and out > cap:
                return None
            out *= k
        return out

    def spec_string(self) -> str:
        return f"A{self.param}" if self.family == "A" else f"I2:{self.param}"

    @classmethod
    def parse(cls, text: str) -> "CoxeterDescriptor":
        """Parse "A3" or "I2:7" style group specs."""
        s = text.strip()
        for family, prefix, kind in (("I2", "I2:", "dihedral"), ("A", "A", "type A")):
            if s.startswith(prefix):
                try:
                    param = int(s[len(prefix):])
                except ValueError as exc:
                    raise ValueError(f"bad {kind} group spec {text!r}") from exc
                try:
                    return cls(family, param)
                except ValueError as exc:  # keep the reason the parameter is refused
                    raise ValueError(f"bad {kind} group spec {text!r}: {exc}") from exc
        raise ValueError(f"unrecognized group spec {text!r} (expected e.g. 'A3' or 'I2:7')")


# -- canonical forms per family ---------------------------------------------
#
# Type A: one-line permutations of 1..n+1 as bytes, which index to the same
# ints and compare in the same order as tuples of them.
# Dihedral: (k, flip) meaning rot^k if flip == 0 else rot^k * s1,
# where rot = s1*s2 has order m.

# one-line values to their digits, for display
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _identity_form(desc: CoxeterDescriptor):
    if desc.family == "A":
        return bytes(range(1, desc.param + 2))
    return (0, 0)


def _generator_maps(desc: CoxeterDescriptor) -> list:
    """The maps f -> s*f on canonical forms, one per generator s."""
    if desc.family == "A":  # s_i swaps the values i and i+1
        return [methodcaller("translate", bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))))
                for i in range(1, desc.param + 1)]
    m = desc.param  # s1 = (0, 1) and s2 = s1*rot
    return [lambda f: (-f[0] % m, f[1] ^ 1), lambda f: ((-f[0] - 1) % m, f[1] ^ 1)]


def _fill_down(table: tuple, left: tuple, first: tuple, start: int) -> tuple[int, ...]:
    """The column c with c[0] = start and c[x] = table[t][c[t*x]], t the first
    left descent of x, filled in id order: t*x is shorter than x, so its id
    is smaller and its entry is already filled."""
    out = [start] * len(first)
    for x in range(1, len(first)):
        t = first[x]
        out[x] = table[t][out[left[t][x]]]
    return tuple(out)


class Interval(Frozen):
    """A Bruhat interval [bottom, top] of length difference ``ell``: its
    ``members`` are ids sorted by (length, form), and ``len`` counts them."""

    __slots__ = _fields = ("bottom", "top", "ell", "members")
    bottom: int
    top: int
    ell: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return type(other) is Interval and self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())


class GroupTable:
    """A fully enumerated finite Coxeter group.

    Elements are dense integer ids, assigned in (length, canonical form)
    order, so id 0 is the identity and the last id is the longest element.
    Built by :func:`enumerate_group` from the forms and the left product
    table in that id order, and the number of elements of each length.
    The product tables are column-major: ``right[s][x]`` is x*s and
    ``left[s][x]`` is s*x, one tuple of ids per generator s. With t the
    first left descent of x, x*s = t*((t*x)*s) and x^-1 = (t*x)^-1*t read
    only shorter elements, so the right columns and the inverses fill in id
    order. ``descents[x]`` has bit s set iff s is a right descent of x and
    bit n + s iff s is a left one (n generators); equal masks share one int.
    Each ``left[s]`` must be an involution that moves every element one
    length level, and only the identity may have no left descent; the
    build raises AssertionError otherwise.
    """

    def __init__(self, descriptor: CoxeterDescriptor, forms: tuple, left: tuple,
                 sizes: Sequence[int]) -> None:
        self.descriptor = descriptor
        self.forms = forms
        self.num_generators = n = descriptor.num_generators
        self.left = left
        self.identity = 0
        self.length = length = tuple(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
        if sizes[-1] != 1:
            raise AssertionError("finite Coxeter group must have a unique longest element")
        self.w0 = len(forms) - 1
        ids = range(len(forms))
        for col in left:
            if not all(map(eq, map(col.__getitem__, col), ids)):
                raise AssertionError("each generator column must be an involution")
            if not set(map(sub, map(length.__getitem__, col), length)) <= {-1, 1}:
                raise AssertionError("each generator must move every element one level")
        # left descents, a column at a time: ids ascend with length, so s
        # lowers x iff s*x < x as ids
        bits = (map(lshift, map(gt, ids, col), repeat(s)) for s, col in enumerate(left))
        masks = list(map(sum, zip(*bits)))
        if masks.count(0) != 1:
            raise AssertionError("only the identity may have no left descent")
        first = {d: (d & -d).bit_length() - 1 for d in set(masks)}
        first_left = tuple(map(first.__getitem__, masks))
        # x*s = t*((t*x)*s) and x^-1 = (t*x)^-1*t, t the first left descent of x
        self.right = right = tuple(_fill_down(left, left, first_left, col[0]) for col in left)
        self._inverse = inverse = _fill_down(right, left, first_left, 0)
        # the right descents of x are the left descents of x^-1, so the right
        # masks are the left masks permuted and share their first descents
        right_masks = list(map(masks.__getitem__, inverse))
        self._first_descent = tuple(map(first.__getitem__, right_masks))
        shared = {}
        masks = list(map(or_, right_masks, map(lshift, masks, repeat(n))))
        self.descents = tuple(map(shared.setdefault, masks, masks))
        self.reflections = self._find_reflections()
        self._columns: dict[int, tuple[int, ...]] | None = None
        self._ideals: dict[Optional[int], dict[int, tuple[int, ...]]] = {}  # cap -> w -> ideal

    @cached_property
    def index(self) -> dict:
        """Canonical form, as a tuple, -> id; built on first use (only parsing needs it)."""
        return dict(zip(map(tuple, self.forms), range(len(self.forms))))

    # -- construction helpers ------------------------------------------------

    def _find_reflections(self) -> tuple[int, ...]:
        """The conjugates of the generators, as the closure of the generators
        under t -> s t s, read from the product tables. Each reflection is
        kept in discovery order with the (t, s) it came from."""
        left, right = self.left, self.right
        self._closure = refl = {col[self.identity]: (None, s) for s, col in enumerate(right)}
        frontier = list(refl)
        while frontier:
            nxt = []
            for t in frontier:
                for s in range(self.num_generators):
                    c = left[s][right[s][t]]
                    if c not in refl:
                        refl[c] = (t, s)
                        nxt.append(c)
            frontier = nxt
        out = tuple(sorted(refl))
        if len(out) != self.length[self.w0]:
            raise AssertionError("reflection count must equal the length of the longest element")
        for t in out:
            if self.mul(t, t) != self.identity:
                raise AssertionError("reflections must be involutions")
        return out

    # -- group structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.forms)

    def mul(self, a: int, b: int) -> int:
        """a*b, by a walk down the first right descents of b along ``right``."""
        right, first = self.right, self._first_descent
        word = []
        while b:  # id 0 is the identity
            s = first[b]
            word.append(s)
            b = right[s][b]
        for s in reversed(word):
            a = right[s][a]
        return a

    def reflection_columns(self) -> dict[int, tuple[int, ...]]:
        """``columns[t][x]`` is x*t for every reflection t (keys ascending).

        Built on first use, in the order the conjugation closure found the
        reflections: x*(sts) = ((x*s)*t)*s, two lookups per entry.
        """
        if self._columns is None:
            gens, cols = self.right, {}
            for c, (t, s) in self._closure.items():
                col = gens[s]
                cols[c] = col if t is None else tuple(  # c is the generator s, or s t s
                    map(col.__getitem__, map(cols[t].__getitem__, col)))
            self._columns = {t: cols[t] for t in self.reflections}
        return self._columns

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def generator(self, s: int) -> int:
        """Element id of the generator with index s (0-based)."""
        return self.right[s][self.identity]

    def elements(self) -> Iterator[int]:
        return iter(range(len(self.forms)))

    def left_descents(self, w: int) -> tuple[int, ...]:
        n, d = self.num_generators, self.descents[w]
        return tuple(s for s in range(n) if d >> (n + s) & 1)

    def first_right_descent(self, w: int) -> int:
        """Smallest-index right descent; -1 for the identity."""
        return self._first_descent[w]

    # -- Bruhat order ----------------------------------------------------------

    def leq(self, u: int, w: int) -> bool:
        """Bruhat order test by a walk down the first right descents of w.

        With s the first right descent of w: u <= w iff min(u, us) <= ws
        (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2). The
        identity is below everything, which ends the walk early.
        """
        length, right, first = self.length, self.right, self._first_descent
        while u != w:
            lu = length[u]
            if lu >= length[w]:
                return False
            if lu == 0:
                return True
            col = right[first[w]]
            us = col[u]
            if length[us] < lu:
                u = us
            w = col[w]
        return True

    def lower_ideal(self, w: int, cap: Optional[int] = None) -> tuple[int, ...]:
        """Ids of the v <= w with length(w) - length(v) <= cap (all v <= w
        without a cap) in ascending order, built lazily and kept per cap.
        Only the ideal of the w asked for is kept: those on the descent chain
        below it, down to the nearest kept one, are built as temporary sets
        (sorted once, at the top), and in an id-order sweep each of them is
        an earlier top.

        With s the first right descent of w: [e, w] = [e, ws] union [e, ws]*s,
        the second part read off the column of s. A capped ideal is built
        from the capped ideal of ws, and no full ideal is: u <= w iff
        min(u, us) <= ws (the lifting property), and min(u, us) is at most
        one shorter than u, so the capped ideal of w is every x and xs for x
        in the capped ideal of ws, cut at length(w) - cap. Ids run in length
        order, so the cut drops the ids below one bound. A cap of at least length(w0) cuts
        nothing and shares the whole ideals.
        """
        if cap is not None and cap >= self.length[self.w0]:
            cap = None
        ideals = self._ideals.get(cap)
        if ideals is None:
            ideals = self._ideals[cap] = {self.identity: (self.identity,)}
        length, right, first = self.length, self.right, self._first_descent
        top, chain = w, []
        while (below := ideals.get(w)) is None:
            chain.append(w)
            w = right[first[w]][w]
        if chain:
            below = set(below)
            for x in reversed(chain):
                below.update(list(map(right[first[x]].__getitem__, below)))
                if cap is not None:
                    below = set(filter(bisect_left(length, length[x] - cap).__le__, below))
            below = ideals[top] = tuple(sorted(below))
        return below

    def interval(self, u: int, w: int) -> Interval:
        """The Bruhat interval [u, w]; raises EmptyIntervalError if u is not below w."""
        if not self.leq(u, w):
            raise EmptyIntervalError(
                f"[{self.display(u)}, {self.display(w)}] is empty: endpoints are not comparable"
            )
        lu, lw = self.length[u], self.length[w]
        members = self.lower_ideal(w)
        if u != self.identity:
            length = self.length
            members = tuple(v for v in members if length[v] >= lu and self.leq(u, v))
        return Interval(u, w, lw - lu, members)

    def comparable_pairs(self, cap: Optional[int] = None) -> list[tuple[int, int]]:
        """All ordered pairs (u, w) with u <= w and length(w) - length(u) <= cap
        (every pair without a cap), in id order, read off the kept ideals."""
        return sorted((u, w) for w in range(len(self.forms)) for u in self.lower_ideal(w, cap))

    # -- words and display -------------------------------------------------------

    def from_word(self, word: Sequence[int]) -> int:
        """Element obtained by multiplying generators left to right."""
        v = self.identity
        for s in word:
            if not 0 <= s < self.num_generators:
                raise ValueError(f"generator index {s} out of range")
            v = self.right[s][v]
        return v

    def reduced_word(self, v: int) -> tuple[int, ...]:
        """Lexicographically smallest reduced word (greedy left descents)."""
        word = []
        cur = v
        while cur != self.identity:
            s = min(self.left_descents(cur))
            word.append(s)
            cur = self.left[s][cur]
        return tuple(word)

    def display(self, v: int) -> str:
        """Human-readable canonical form: one-line for type A, word for I2."""
        if self.descriptor.family == "A":  # A8 is the last rank under the cap: 9 letters
            return self.forms[v].translate(_DIGITS).decode()
        word = self.reduced_word(v)
        if not word:
            return "e"
        return "".join(f"s{s + 1}" for s in word)


def enumerate_group(descriptor: CoxeterDescriptor) -> GroupTable:
    """Enumerate the group level by level under left multiplication.

    Level k + 1 is every product s*f of a form f of level k, less the forms
    of levels k - 1 and k (the generators are involutions, so a product
    moves at most one level); each level is sorted, so the forms come out
    in (length, canonical form) order with no relabelling. The products of
    a level are kept per generator until the next level has ids, and then
    extend the left product columns by index lookups, so each product is
    made once. More forms than the group order means a generator map is
    not an involution, and raises AssertionError at once. A group of order
    above ``DEFAULT_MAX_ORDER`` is refused before any element is built.
    """
    est = descriptor.order(cap=DEFAULT_MAX_ORDER)
    if est is None or est > DEFAULT_MAX_ORDER:
        shown = "" if est is None else f"{est}, "
        raise SizeLimitError(f"group {descriptor.spec_string()} has order {shown}"
                             f"above the cap {DEFAULT_MAX_ORDER}")
    gens = _generator_maps(descriptor)
    forms, sizes, left = [], [], [[] for _ in gens]
    below, here = {}, {_identity_form(descriptor): 0}  # form -> id, per level
    while here:
        forms += here
        if len(forms) > est:
            raise AssertionError(f"enumerated more than the {est} elements expected")
        sizes.append(len(here))
        products = [list(map(times_g, here)) for times_g in gens]
        above = set(chain.from_iterable(products))
        above.difference_update(below, here)
        above = dict(zip(sorted(above), count(len(forms))))
        below.update(here)  # the old level below is spent: it becomes the index
        below.update(above)  # of the three levels every product lies in
        for col, made in zip(left, products):
            col.extend(map(below.__getitem__, made))
        below, here = here, above
    if len(forms) != est:
        raise AssertionError(f"enumerated {len(forms)} elements, expected {est}")
    for s in range(len(left)):  # one column list alive at a time
        left[s] = tuple(left[s])
    return GroupTable(descriptor, tuple(forms), tuple(left), sizes)
