"""Bruhat graphs on intervals, reflection orders and label-increasing paths.

The directed Bruhat graph has an edge x -> y whenever y = x*t for a
reflection t and the length goes up. The graph of an interval [u, w] keeps
one row per vertex x: the pairs (y, t) of its out-edges, in target order.
An edge's height h = (length difference + 1)/2 is read off the lengths;
height 1 edges are the covering ("short") edges. A reflection order is a
total order on the reflection set whose restriction to every dihedral
reflection subgroup is one of the two natural chains; such orders are built
here from reduced words of the longest element (the tests check the chain
condition).

``IncreasingPathCounts`` counts the label-increasing paths from one bottom
to every element above it, by absolute length, in one pass per reflection
of the order over the whole group's ids; by Dyer's theorem these counts are
the coefficients of R-tilde, and weighted they give the shifted
R-polynomial. It also walks the lexicographically first maximal chain
along rows of covers, for Dyer's EL property. One walker lists the paths
of one interval's graph level by level (``increasing_paths``,
``short_paths``), each as its (vertices, labels) pair of id tuples. It is
not exported: no command calls it, and it stays only as the tests'
reference route for the counts and as a layer the benchmark's traced runs
wrap.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional, Sequence

from .coxeter import GroupTable
from .poly import IntPoly, split_fields

__all__ = [
    "BruhatGraph",
    "ReflectionOrder",
    "InvalidWordError",
    "build_graph",
    "reflection_order_from_word",
    "default_reflection_order",
    "distinct_reflection_orders",
    "IncreasingPathCounts",
    "to_dot",
]

class InvalidWordError(ValueError):
    """A word that is not a reduced expression for the longest element."""


class BruhatGraph(NamedTuple):
    """The Bruhat graph induced on one interval.

    ``members`` are the ids of the interval, ascending (``GroupTable.interval``).
    ``out_edges[x]`` is the row of x: one (y, t) per edge x -> y = x*t, in
    target order. ``in_degree[y]`` counts the edges into y.
    """

    group: GroupTable
    members: tuple[int, ...]
    out_edges: dict[int, tuple[tuple[int, int], ...]]
    in_degree: dict[int, int]

    @property
    def num_vertices(self) -> int:
        return len(self.members)

    @property
    def num_edges(self) -> int:
        return sum(self.in_degree.values())

    def degree(self, v: int) -> int:
        return len(self.out_edges[v]) + self.in_degree[v]


def build_graph(group: GroupTable, members: tuple[int, ...]) -> BruhatGraph:
    """All edges x -> y with both ends in the interval whose ascending ids are
    ``members`` (``GroupTable.interval``) and increasing length."""
    in_degree = dict.fromkeys(members, 0)
    length = group.length
    columns = tuple(group.reflection_columns().items())
    out_edges = {}
    for x in members:
        lx = length[x]
        row = []
        for t, col in columns:
            y = col[x]
            if y in in_degree and length[y] > lx:
                if (length[y] - lx) % 2 == 0:
                    raise AssertionError("Bruhat edges must have odd length difference")
                row.append((y, t))
                in_degree[y] += 1
        out_edges[x] = tuple(sorted(row))
    return BruhatGraph(group, members, out_edges, in_degree)


class ReflectionOrder:
    """A total order on the reflection set, held as a ranked sequence."""

    __slots__ = ("sequence", "rank")

    def __init__(self, sequence: Iterable[int]) -> None:
        self.sequence: tuple[int, ...] = tuple(sequence)
        if len(set(self.sequence)) != len(self.sequence):
            raise ValueError("reflection order contains repeats")
        self.rank: dict[int, int] = {t: i for i, t in enumerate(self.sequence)}

    def reversed(self) -> "ReflectionOrder":
        return ReflectionOrder(self.sequence[::-1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReflectionOrder):
            return self.sequence == other.sequence
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.sequence)

    def __repr__(self) -> str:
        return f"ReflectionOrder({self.sequence})"


def reflection_order_from_word(group: GroupTable, word: Sequence[int]) -> ReflectionOrder:
    """Order the reflections by the inversion sequence of a reduced word.

    For a reduced word s_{i1} ... s_{iN} of the longest element, the k-th
    reflection is the prefix conjugate s_{i1}...s_{i(k-1)} s_{ik}
    s_{i(k-1)}...s_{i1}. The word is validated: each prefix must gain
    length, and the full product must be the longest element.
    """
    n_expected = group.length[group.w0]
    if len(word) != n_expected:
        raise InvalidWordError(
            f"word has {len(word)} letters; the longest element needs {n_expected}"
        )
    prefix = group.identity
    sequence = []
    for pos, s in enumerate(word):
        if not 0 <= s < group.num_generators:
            raise InvalidWordError(f"generator index {s} out of range at position {pos}")
        nxt = group.right[s][prefix]
        sequence.append(group.mul(nxt, group.inverse[prefix]))
        if group.length[nxt] != group.length[prefix] + 1:
            raise InvalidWordError(f"word is not reduced at position {pos}")
        prefix = nxt
    if prefix != group.w0:
        raise InvalidWordError("word does not multiply to the longest element")
    if len(set(sequence)) != n_expected:
        raise AssertionError("inversion sequence of a reduced word must be distinct")
    return ReflectionOrder(sequence)


def default_reflection_order(group: GroupTable) -> ReflectionOrder:
    return reflection_order_from_word(group, group.reduced_word(group.w0))


def distinct_reflection_orders(group: GroupTable) -> list[ReflectionOrder]:
    """The default reflection order, the order of the lexicographically
    largest reduced word of w0 and the reverse of the default, less repeats:
    three on A3 and up, two on A2 and on every dihedral group (which admits
    exactly two) and one on A1."""
    base = default_reflection_order(group)
    orders = [base]
    largest = group.reduced_word(group.w0, max)
    for order in (reflection_order_from_word(group, largest), base.reversed()):
        if order not in orders:
            orders.append(order)
    return orders


# -- path enumeration ---------------------------------------------------------

PathPair = tuple[tuple[int, ...], tuple[int, ...]]  # (vertices, labels) of a listed path


def _walk(graph: BruhatGraph, u: int, w: int, order: Optional[ReflectionOrder],
          short_only: bool) -> list[PathPair]:
    """Every path u -> ... -> w along the admissible edges, as its pair
    (vertices, labels): covers only with ``short_only``, and with an order
    only labels ranked above the last one.

    The partial paths grow by one edge a round, and those that reach w are
    kept, sorted by label-rank word with an order and by vertices without
    one (either fixes a path): the order of a depth-first walk.
    """
    length = graph.group.length
    partial, found = [((u,), ())], []
    while partial:
        grown = []
        for vertices, labels in partial:
            x = vertices[-1]
            if x == w:
                key = tuple(map(order.rank.__getitem__, labels)) if order is not None else vertices
                found.append((key, (vertices, labels)))
                continue
            for y, t in graph.out_edges[x]:
                if short_only and length[y] != length[x] + 1:
                    continue
                if order is not None and labels and order.rank[t] <= order.rank[labels[-1]]:
                    continue
                grown.append(((*vertices, y), (*labels, t)))
        partial = grown
    return [path for _, path in sorted(found)]


def increasing_paths(graph: BruhatGraph, u: int, w: int, order: ReflectionOrder,
                     short_only: bool = False) -> list[PathPair]:
    """All paths u -> ... -> w whose labels strictly increase in the order.

    Paths of absolute length 0 and 1 are increasing by convention. With
    ``short_only`` the search is restricted to covering edges, which yields
    increasing maximal chains. Results come out sorted lexicographically by
    label rank.
    """
    return _walk(graph, u, w, order, short_only)


def short_paths(graph: BruhatGraph, u: int, w: int) -> list[PathPair]:
    """All saturated chains (paths of covering edges) from u to w, as pairs."""
    return _walk(graph, u, w, None, True)


# -- increasing paths from one bottom to every top --------------------------------


class IncreasingPathCounts:
    """Label-increasing paths from one bottom u to every w above it.

    Every Bruhat edge goes up in Bruhat order, so all paths from u to w in
    the graph of the whole group stay inside [u, w]. For the order t_1 < ...
    < t_N, the increasing paths come from extending every path along its
    edge labelled t_k, for k = 1, ..., N (Dyer): the pass for t adds the
    count at yt, one edge longer, to the count at y wherever yt < y. It
    never changes the count at yt, as the edge yt -> y goes up, so it
    updates in place. Counts by absolute length are packed ``width`` bits
    apart in one integer, as an increasing path is fixed by u and its label
    set: no count passes 2^N. The passes keep their last bottom and run up
    to a top id that at least doubles whenever a higher top is asked.
    """

    def __init__(self, group: GroupTable, order: ReflectionOrder) -> None:
        self.group = group
        self._columns = tuple(map(group.reflection_columns().__getitem__, order.sequence))
        self._covers: list = [None] * len(group)  # x -> its (rank, cover) pairs, by rank
        self._width = len(order.sequence) + 1
        self._bottom, self._top, self._count = None, -1, []

    def _packed(self, u: int, w: int) -> int:
        """The counts of the increasing paths u -> w by absolute length, packed."""
        if u != self._bottom or w > self._top:
            top = min(len(self.group) - 1, max(w, 2 * self._top if u == self._bottom else u))
            count, width = [0] * (top + 1), self._width
            count[u] = 1
            for col in self._columns:
                for y in range(u + 1, top + 1):
                    if (x := col[y]) < y and (c := count[x]):
                        count[y] += c << width
            self._bottom, self._top, self._count = u, top, count
        return self._count[w]

    def counts(self, u: int, w: int) -> tuple[int, ...]:
        """c_a, the number of increasing paths u -> w of absolute length a, by a
        without trailing zeros: the coefficients of R-tilde(u, w) for a
        reflection order (Dyer)."""
        return split_fields(self._packed(u, w), self._width)

    def shifted(self, u: int, w: int) -> IntPoly:
        """The sum of c_a (q+1)^((l-a)/2) q^a over a = l mod 2, l mod 2 + 2, ...,
        the shifted R-polynomial for a reflection order, by Horner's rule in q+1
        at q = 2^(2 width), where no coefficient carries into the next."""
        ell, narrow = self.group.length[w] - self.group.length[u], self._width
        packed, mask, width, total = self._packed(u, w), (1 << narrow) - 1, 2 * narrow, 0
        for a in range(ell % 2, ell + 1, 2):
            total = (total << width) + total + ((packed >> a * narrow & mask) << a * width)
        return IntPoly(split_fields(total, width))

    def _cover_row(self, x: int) -> tuple[tuple[int, int], ...]:
        if self._covers[x] is None:
            length = self.group.length
            self._covers[x] = tuple((r, y) for r, y in enumerate(col[x] for col in self._columns)
                                    if length[y] == length[x] + 1)
        return self._covers[x]

    def lex_first(self, u: int, w: int) -> list[int]:
        """Label ranks of the lexicographically first maximal chain of [u, w]:
        the covers of a vertex carry distinct reflections, so its
        lowest-ranked cover in the kept lower ideal of w comes first."""
        ideal, first = self.group.lower_ideal(w), []
        while u != w:
            for r, y in self._cover_row(u):
                if (j := bisect_left(ideal, y)) < len(ideal) and ideal[j] == y:
                    break
            else:
                raise AssertionError("every element below the top of an interval has a cover in it")
            first.append(r)
            u = y
        return first

    def increasing_chains(self, u: int, w: int) -> tuple[int, bool]:
        """The number of increasing maximal chains of [u, w] (paths of absolute
        length l(w) - l(u)), and whether the lexicographically first maximal
        chain is one; Dyer's EL property is (1, True) on every interval."""
        counts, first = self.counts(u, w), self.lex_first(u, w)
        ell = self.group.length[w] - self.group.length[u]
        return (counts[ell] if 0 <= ell < len(counts) else 0,
                all(a < b for a, b in zip(first, first[1:])))


def to_dot(graph: BruhatGraph) -> str:
    """Graphviz DOT rendering: deterministic order, long edges dashed."""
    g = graph.group
    lines = ["digraph bruhat {", "  rankdir=BT;"]
    for v in graph.members:
        lines.append(f'  "{g.display(v)}" [label="{g.display(v)} ({g.length[v]})"];')
    for x in graph.members:  # ascending ids, rows in target order
        for y, _ in graph.out_edges[x]:
            height = (g.length[y] - g.length[x] + 1) // 2
            style = "" if height == 1 else f' [style=dashed, label="h={height}"]'
            lines.append(f'  "{g.display(x)}" -> "{g.display(y)}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
