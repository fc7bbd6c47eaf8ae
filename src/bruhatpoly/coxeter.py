"""Finite Coxeter groups of type A and dihedral type, fully enumerated.

A :class:`GroupTable` holds one group: canonical forms, lengths, product
tables, the reflection set and Bruhat order queries. Type A rank n is the
symmetric group on n+1 letters, whose forms are one-line permutations kept
as ``bytes`` (values 1..n+1); the dihedral group I2(m) of order 2m uses
(rotation, flip) pairs as 4 ``bytes``. A table keeps its forms in one packed
``bytes`` of fixed-width records in id order; a form is a slice of it.
Forms are multiplied only while the group is enumerated, once per (form,
generator) and on the left: s*f swaps the values i and i+1 of a type A
form, one ``bytes.translate``. One pass finds each length level and the
left product table with it. Every other table is read
off that table and the level sizes: the length of x is its level. Each left
column is checked in C-level passes through an ``itemgetter`` of its own
entries (its square must be the identity map, every step must change the
length by one), which also give its left descent bits, packed one byte per
element into one int for all generators. The right table and the inverses
are then filled in one id-order pass from shorter elements.
Then all is integer tables, and forms serve only to parse and display. The
tables are column-major, one tuple of ids per generator s: ``right[s][x]``
is x*s and ``left[s][x]`` is s*x. ``mul`` walks the first right descents of
its second factor, and the columns x -> x*t per reflection t are built on
first use. Tables are immutable after construction. Bruhat order is
answered by a walk down right descents (no memo); lower ideals, whole or
cut at a length cap, are built lazily on first use. Each step down from w
takes a descent s whose ideal is kept, if one is: [e, w] is [e, ws] and
its image under x -> xs, read off ``right[s]``, or, for a left descent,
[e, sw] and its image under x -> sx, read off ``left[s]`` (the lifting
property mirrored through x -> x^-1). Only the ideals callers ask for are
kept, per table and cap. A
kept ideal is a pure function of its top element and cap, so sharing a
table between worker processes (or rebuilding it per worker) gives
identical answers. An interval [u, w] is the ascending tuple of its ids:
the kept ideal of w for u the identity, else the members of that ideal
above u.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, count, repeat
from operator import eq, itemgetter, lshift, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "CoxeterDescriptor",
    "GroupTable",
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
# ints and compare in the same order as tuples of them. Dihedral: (k, flip)
# meaning rot^k if flip == 0 else rot^k * s1, where rot = s1*s2 has order m,
# as 4 bytes, k big-endian and then the flip: they sort as the pairs do.

# one-line values to their digits, for display
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _identity_form(desc: CoxeterDescriptor) -> bytes:
    return bytes(range(1, desc.param + 2)) if desc.family == "A" else bytes(4)


def _generator_maps(desc: CoxeterDescriptor) -> list:
    """One (function, argument) pair per generator s, with s*f = function(f, argument)."""
    if desc.family == "A":  # s_i swaps the values i and i+1, all in C
        return [(bytes.translate, bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))))
                for i in range(1, desc.param + 1)]
    m = desc.param  # s1 = (0, 1) and s2 = s1*rot: s_(c+1)*(k, flip) = (-k - c mod m, flip ^ 1)
    return [(lambda f, c: ((-int.from_bytes(f[:3], "big") - c) % m << 8 | f[3] ^ 1)
             .to_bytes(4, "big"), c) for c in (0, 1)]


# a byte mask to the index of its lowest set bit (0 for the mask 0, which
# only the identity has and no reader looks up)
_FIRST = bytes((d & -d).bit_length() - 1 if d else 0 for d in range(256))


def _fill_right(left: tuple, first: bytes) -> tuple[tuple, tuple[int, ...]]:
    """The right columns and the inverses, filled in id order from
    x*s = t*((t*x)*s) and x^-1 = (t*x)^-1*t, t the first left descent of x:
    t*x is shorter than x, so its id is smaller and its entries are filled."""
    right = [[col[0]] * len(first) for col in left]  # e*s = s*e
    inverse = [0] * len(first)
    for x in range(1, len(first)):
        t = first[x]
        lt = left[t]
        y = lt[x]
        for col in right:
            col[x] = lt[col[y]]
        inverse[x] = right[t][inverse[y]]
    for s in range(len(right)):  # one column list alive at a time
        right[s] = tuple(right[s])
    return tuple(right), tuple(inverse)


class GroupTable:
    """A fully enumerated finite Coxeter group.

    Elements are dense integer ids, assigned in (length, canonical form)
    order, so id 0 is the identity and the last id is the longest element.
    Built by :func:`enumerate_group` from the forms and the left product
    table in that id order (the forms packed into ``forms``, records of one
    width), and the number of elements of each length.
    The product tables are column-major: ``right[s][x]`` is x*s and
    ``left[s][x]`` is s*x, one tuple of ids per generator s. With t the
    first left descent of x, x*s = t*((t*x)*s) and x^-1 = (t*x)^-1*t read
    only shorter elements, so the right columns and the inverses fill in id
    order; ``inverse[x]`` is the id of x^-1. ``descents[x]`` has bit s set
    iff s is a right descent of x and bit n + s iff s is a left one (n
    generators); equal masks share one int.
    Each ``left[s]`` must have one entry per element and be an involution
    that moves every element one length level, and only the identity may
    have no left descent; the build raises AssertionError otherwise. Each
    column is read through one ``itemgetter`` of its entries: its square
    must match the first square (checked once against range), and
    up - length o col (up = length + 1) must be ``bytes`` of 0s and 2s, a
    2 where s lowers x. Shifted by s and added into one int, those bytes
    make every left mask one byte (at most 8 generators under the cap).
    """

    def __init__(self, descriptor: CoxeterDescriptor, forms: bytes, left: tuple,
                 sizes: Sequence[int]) -> None:
        self.descriptor = descriptor
        self.forms = forms
        self.num_generators = n = descriptor.num_generators
        self.left = left
        self.identity = 0
        self.length = length = tuple(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
        if sizes[-1] != 1:
            raise AssertionError("finite Coxeter group must have a unique longest element")
        self.w0 = len(length) - 1
        self._width = len(forms) // len(length)  # bytes per form
        if len(left) > 8:  # a left mask is one byte; A8 has the most generators under the cap
            raise AssertionError("a table holds at most 8 generators")
        # up[x] - length[s*x] is 2 if s lowers x and 0 if it raises it
        up = tuple(chain.from_iterable(map(repeat, range(1, len(sizes) + 1), sizes)))
        ids, packed = None, 0
        for s, col in enumerate(left):
            if len(col) != len(length):
                raise AssertionError("each generator column must have one entry per element")
            at = itemgetter(*col)  # at(seq)[x] is seq[s*x], in one C-level pass
            square = at(col)
            # col is an involution iff its square is the identity map. The first
            # square, checked against range, then stands in for range: it holds the
            # columns' own id objects, so later comparisons match by identity
            if ids is None and all(map(eq, square, count())):
                ids = square
            if square != ids:
                raise AssertionError("each generator column must be an involution")
            try:  # bytes() refuses a negative value: a step two or more levels up
                steps = bytes(map(sub, up, at(length)))
            except ValueError:
                steps = None
            if steps is None or steps.translate(None, b"\0\2"):
                raise AssertionError("each generator must move every element one level")
            packed |= int.from_bytes(steps, "little") << s  # bit s + 1 of byte x: s lowers x
        del ids, square, up  # freed before the fill, which sets the build's peak memory
        # masks[x] has bit s set iff s is a left descent of x
        masks = (packed >> 1).to_bytes(len(length), "little")
        if masks.count(0) != 1:
            raise AssertionError("only the identity may have no left descent")
        self.right, self.inverse = _fill_right(left, masks.translate(_FIRST))
        # the right descents of x are the left descents of x^-1, so the right
        # masks are the left masks permuted
        right_masks = bytes(itemgetter(*self.inverse)(masks))
        self._first_descent = right_masks.translate(_FIRST)  # x -> its first right descent
        shared = {}
        both = list(map(or_, right_masks, map(lshift, masks, repeat(n))))
        self.descents = tuple(map(shared.setdefault, both, both))
        self.reflections = self._find_reflections()
        self._columns: dict[int, tuple[int, ...]] | None = None
        self._ideals: dict[Optional[int], dict[int, tuple[int, ...]]] = {}  # cap -> w -> ideal

    def form(self, v: int) -> bytes:
        """The canonical form of v: its record in ``forms``."""
        return self.forms[v * self._width:(v + 1) * self._width]

    @cached_property
    def index(self) -> dict:
        """Form, as a tuple of its bytes, -> id; built on first use (only parsing needs it)."""
        return dict(zip(map(tuple, map(self.form, self.elements())), self.elements()))

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
            if self.inverse[t] != t:
                raise AssertionError("reflections must be involutions")
        return out

    # -- group structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.length)

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

    def generator(self, s: int) -> int:
        """Element id of the generator with index s (0-based)."""
        return self.right[s][self.identity]

    def elements(self) -> Iterator[int]:
        return iter(range(len(self.length)))

    def left_descents(self, w: int) -> tuple[int, ...]:
        n, d = self.num_generators, self.descents[w]
        return tuple(s for s in range(n) if d >> (n + s) & 1)

    def first_right_descent(self, w: int) -> int:
        """Smallest-index right descent; -1 for the identity."""
        return self._first_descent[w] if w else -1

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
        (sorted once, at the top).

        Each step down the chain takes the first descent of its element whose
        ideal is kept: right descents first, then left ones, lowest index
        first; if none is kept, the first right descent. For a right descent
        s, [e, w] = [e, ws] union [e, ws]*s, the second part read off
        ``right[s]``; for a left descent s, [e, w] = [e, sw] union s*[e, sw],
        read off ``left[s]``. In an id-order sweep the first right descent's
        ideal is always an earlier top, so the chain is one step. A capped
        ideal is built from the capped ideal of ws, and no full ideal is:
        u <= w iff min(u, us) <= ws (the lifting property, Bjorner-Brenti,
        Prop. 2.2.7), and min(u, us) is at most one shorter than u, so the
        capped ideal of w is every x and xs for x in the capped ideal of ws,
        cut at length(w) - cap. x -> x^-1 keeps the order and swaps the
        sides, so the same holds with sw and sx. Ids run in length order, so
        the cut drops the ids below one bound. A cap of at least length(w0)
        cuts nothing and shares the whole ideals.
        """
        if cap is not None and cap >= self.length[self.w0]:
            cap = None
        ideals = self._ideals.get(cap)
        if ideals is None:
            ideals = self._ideals[cap] = {self.identity: (self.identity,)}
        length, descents, first = self.length, self.descents, self._first_descent
        sides = self.right + self.left  # bit k of a descent mask is read from column k
        top, chain = w, []  # per step down: its element and the column it steps along
        while (below := ideals.get(w)) is None:
            todo = descents[w]
            while todo:  # right descents, then left, lowest index first
                k = (todo & -todo).bit_length() - 1
                if sides[k][w] in ideals:
                    break
                todo &= todo - 1
            else:
                k = first[w]
            chain.append((w, sides[k]))
            w = sides[k][w]
        if chain:
            below = set(below)
            for x, col in reversed(chain):
                below.update(list(map(col.__getitem__, below)))
                if cap is not None:
                    below = set(filter(bisect_left(length, length[x] - cap).__le__, below))
            below = ideals[top] = tuple(sorted(below))
        return below

    def interval(self, u: int, w: int) -> tuple[int, ...]:
        """The ids of the Bruhat interval [u, w] in ascending order, so u first
        and w last; for u the identity, the kept lower ideal of w itself.
        Raises EmptyIntervalError if u is not below w."""
        if not self.leq(u, w):
            raise EmptyIntervalError(
                f"[{self.display(u)}, {self.display(w)}] is empty: endpoints are not comparable"
            )
        members = self.lower_ideal(w)
        if u != self.identity:
            length, lu = self.length, self.length[u]
            members = tuple(v for v in members if length[v] >= lu and self.leq(u, v))
        return members

    def comparable_pairs(self, cap: Optional[int] = None) -> list[tuple[int, int]]:
        """All ordered pairs (u, w) with u <= w and length(w) - length(u) <= cap
        (every pair without a cap), in id order, read off the kept ideals."""
        return sorted((u, w) for w in range(len(self.length)) for u in self.lower_ideal(w, cap))

    # -- words and display -------------------------------------------------------

    def from_word(self, word: Sequence[int]) -> int:
        """Element obtained by multiplying generators left to right."""
        v = self.identity
        for s in word:
            if not 0 <= s < self.num_generators:
                raise ValueError(f"generator index {s} out of range")
            v = self.right[s][v]
        return v

    def reduced_word(self, v: int, pick: Callable = min) -> tuple[int, ...]:
        """The reduced word of v that takes the ``pick`` of the left descents
        at each step: with ``min`` the lexicographically smallest, with
        ``max`` the largest (every reduced word starts with a left descent)."""
        word = []
        cur = v
        while cur != self.identity:
            s = pick(self.left_descents(cur))
            word.append(s)
            cur = self.left[s][cur]
        return tuple(word)

    def display(self, v: int) -> str:
        """Human-readable canonical form: one-line for type A, word for I2."""
        if self.descriptor.family == "A":  # A8 is the last rank under the cap: 9 letters
            return self.form(v).translate(_DIGITS).decode()
        word = self.reduced_word(v)
        if not word:
            return "e"
        return "".join(f"s{s + 1}" for s in word)

    def display_pass(self) -> Callable[[Iterable[int]], list[str]]:
        """A function from ids to ``list(map(self.display, ids))``. In type A
        it slices one ``translate`` of the packed forms, made here; a
        dihedral element keeps its word display."""
        if self.descriptor.family != "A":
            return lambda ids: list(map(self.display, ids))
        text, width = self.forms.translate(_DIGITS).decode(), self._width
        return lambda ids: [text[v * width:(v + 1) * width] for v in ids]


def enumerate_group(descriptor: CoxeterDescriptor) -> GroupTable:
    """Enumerate the group level by level under left multiplication.

    Level k + 1 is every product s*f of a form f of level k, less the forms
    of levels k - 1 and k (the generators are involutions, so a product
    moves at most one level); each level is sorted, so the forms come out
    in (length, canonical form) order with no relabelling. A level's products
    are one C-level ``map`` per generator, kept until the next level has ids,
    then extend the left product columns by index lookups: each product is
    made once, and a level's records join the packed forms. More forms than
    the group order means a generator map is not an involution, and raises
    AssertionError at once. A group of order
    above ``DEFAULT_MAX_ORDER`` is refused before any element is built.
    """
    est = descriptor.order(cap=DEFAULT_MAX_ORDER)
    if est is None or est > DEFAULT_MAX_ORDER:
        shown = "" if est is None else f"{est}, "
        raise SizeLimitError(f"group {descriptor.spec_string()} has order {shown}"
                             f"above the cap {DEFAULT_MAX_ORDER}")
    gens = _generator_maps(descriptor)
    forms, sizes, left, found = bytearray(), [], [[] for _ in gens], 0
    below, here = {}, {_identity_form(descriptor): 0}  # form -> id, per level
    while here:
        forms += b"".join(here)  # the records of a level, in id order
        sizes.append(len(here))
        found += len(here)
        if found > est:
            raise AssertionError(f"enumerated more than the {est} elements expected")
        products = [list(map(times, here, repeat(by))) for times, by in gens]
        above = set(chain.from_iterable(products))
        above.difference_update(below, here)
        above = dict(zip(sorted(above), count(found)))
        below.update(here)  # the old level below is spent: it becomes the index
        below.update(above)  # of the three levels every product lies in
        for col, made in zip(left, products):
            col.extend(map(below.__getitem__, made))
        below, here = here, above
    if found != est:
        raise AssertionError(f"enumerated {found} elements, expected {est}")
    for s in range(len(left)):  # one column list alive at a time
        left[s] = tuple(left[s])
    return GroupTable(descriptor, bytes(forms), tuple(left), sizes)
