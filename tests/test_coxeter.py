import collections
import gc
import itertools
import random
import tracemalloc

import pytest

from bruhatpoly import (CoxeterDescriptor, EmptyIntervalError, GroupTable, RContext,
                        SizeLimitError, enumerate_group)
from oracles import (
    conjugate_reflections,
    descent_leq,
    dot_leq,
    form_product,
    generator_ids,
    inversions,
    oracle_form,
    oracle_id,
    reachability,
    row_wise_enumeration,
)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        CoxeterDescriptor("A", 0)
    with pytest.raises(ValueError):
        CoxeterDescriptor("I2", 1)
    with pytest.raises(ValueError):
        CoxeterDescriptor("B", 3)
    assert CoxeterDescriptor.parse("A3") == CoxeterDescriptor("A", 3)
    assert CoxeterDescriptor.parse("I2:7") == CoxeterDescriptor("I2", 7)
    with pytest.raises(ValueError):
        CoxeterDescriptor.parse("F4")


def test_enumeration_sizes(a3, i2_groups):
    assert len(a3) == 24
    assert a3.length[a3.w0] == 6
    assert len(i2_groups[5]) == 10
    assert i2_groups[5].length[i2_groups[5].w0] == 5


def test_size_cap_names_order():
    with pytest.raises(SizeLimitError, match="3628800"):
        enumerate_group(CoxeterDescriptor("A", 9))


def test_a_dihedral_build_makes_no_product_walk(monkeypatch):
    # mul walks up to m descents, so one call per reflection made I2(m) quadratic
    calls = []
    mul = GroupTable.mul
    monkeypatch.setattr(GroupTable, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    group = enumerate_group(CoxeterDescriptor("I2", 3000))
    assert len(group.reflections) == 3000
    assert not calls


def test_type_a_lengths_are_inversions(a3, a4):
    for group in (a3, a4):
        for v in group.elements():
            assert group.length[v] == inversions(group.form(v))


def test_s6_contains_564312_with_length_13():
    a5 = enumerate_group(CoxeterDescriptor("A", 5))
    assert len(a5) == 720
    v = a5.index[(5, 6, 4, 3, 1, 2)]
    assert inversions((5, 6, 4, 3, 1, 2)) == 13
    assert a5.length[v] == 13


def test_length_changes_by_one_under_generators(a3, i2_groups):
    for group in (a3, i2_groups[7]):
        for v in group.elements():
            for s in range(group.num_generators):
                assert abs(group.length[group.right[s][v]] - group.length[v]) == 1


def test_reflections(a2, a3, i2_groups):
    # S4 reflections are exactly the transpositions
    transpositions = set()
    for i in range(1, 4):
        for j in range(i + 1, 5):
            form = list(range(1, 5))
            form[i - 1], form[j - 1] = form[j - 1], form[i - 1]
            transpositions.add(tuple(form))
    assert {tuple(a3.form(t)) for t in a3.reflections} == transpositions
    assert len(i2_groups[5].reflections) == 5
    # S3: the two generators plus their braid conjugate
    s1, s2 = a2.generator(0), a2.generator(1)
    braid = a2.mul(a2.mul(s1, s2), s1)
    assert set(a2.reflections) == {s1, s2, braid}


def test_reflections_are_involutions_and_count(a3, a4, i2_groups):
    for group in (a3, a4, i2_groups[8]):
        assert len(group.reflections) == group.length[group.w0]
        for t in group.reflections:
            assert group.mul(t, t) == group.identity


def test_reflection_closure_matches_conjugation_sweep(a1, a2, a3, a4, i2_groups):
    groups = [a1, a2, a3, a4] + [enumerate_group(CoxeterDescriptor("A", n)) for n in (5, 6)]
    groups += [i2_groups[m] for m in (2, 3, 7, 12)]
    for group in groups:
        assert group.reflections == conjugate_reflections(group)


def test_tables_match_the_form_product(a1, a2, a3, a4, i2_groups):
    groups = [a1, a2, a3, a4, enumerate_group(CoxeterDescriptor("A", 5))]
    groups += [i2_groups[m] for m in (2, 3, 5, 8, 12)]
    for group in groups:
        gens = generator_ids(group)
        e = form_product(group, gens[0], gens[0])
        assert e == group.identity
        columns = group.reflection_columns()
        assert tuple(columns) == group.reflections
        for v in group.elements():
            for s, g in enumerate(gens):
                assert group.right[s][v] == form_product(group, v, g)
                assert group.left[s][v] == form_product(group, g, v)
            assert form_product(group, v, group.inverse[v]) == e
            assert form_product(group, group.inverse[v], v) == e
            for t, col in columns.items():
                assert col[v] == form_product(group, v, t)


@pytest.mark.parametrize("spec", [f"A{n}" for n in range(1, 7)]
                         + [f"I2:{m}" for m in range(2, 13)])
def test_tables_match_the_row_wise_enumeration(spec):
    desc = CoxeterDescriptor.parse(spec)
    group, ref = enumerate_group(desc), row_wise_enumeration(desc)
    # the packed records decode to the oracle's forms in its (length, form)
    # order, so I2's 4-byte records sort as the (k, flip) pairs do
    assert tuple(oracle_form(group, v) for v in group.elements()) == ref.forms
    assert {f: oracle_id(group, f) for f in ref.index} == ref.index
    assert len(group.index) == len(ref.index) == len(group.forms) // len(group.form(0))
    assert group.right == tuple(zip(*ref.right))
    assert group.left == tuple(zip(*ref.left))
    assert group.length == ref.length
    assert group.inverse == ref.inverse
    assert tuple(map(group.first_right_descent, group.elements())) == ref.first_descent
    assert group.descents == ref.descents
    assert group.reflections == ref.reflections


def test_product_columns_are_involutions_conjugate_by_the_inverse(a1, a3, a4, i2_groups):
    for group in (a1, a3, a4, i2_groups[2], i2_groups[7]):
        ids = tuple(group.elements())
        inv = group.inverse
        assert len(group.right) == len(group.left) == group.num_generators
        for right, left in zip(group.right, group.left):
            for col in (right, left):  # col o col = id makes col a permutation of ids
                assert len(col) == len(ids)
                assert tuple(map(col.__getitem__, col)) == ids
            assert left == tuple(inv[right[inv[x]]] for x in ids)


def _swapped(col, a, b):
    col = list(col)
    col[a], col[b] = col[b], col[a]
    return tuple(col)


def _repaired(col, a, b):
    """col with the pairs {a, col[a]} and {b, col[b]} re-paired as {a, b}
    and {col[a], col[b]}: still an involution."""
    out = list(col)
    out[a], out[b], out[col[a]], out[col[b]] = b, a, col[b], col[a]
    return tuple(out)


# planted faults in the first two left generator columns (l0, l1)
COLUMN_FAULTS = {
    "copy": lambda l0, l1: (l0, l0),
    "swap": lambda l0, l1: (_swapped(l0, 3, 5), l1),
    "compose": lambda l0, l1: (tuple(map(l0.__getitem__, l1)), l1),
    "to-identity": lambda l0, l1: (l0[:-1] + (0,), l1),
    "re-pair": lambda l0, l1: (_repaired(l0, 1, 2), l1),
    "unpair": lambda l0, l1: (_swapped(l0, 3, l0[3]), l1),  # 3 and s*3 become fixed points
    # the one-level test at its bounds: e paired with s2*s1 (length 2), w0 with s2*s1*w0
    "e-two-up": lambda l0, l1: (_repaired(l0, 0, l1[l0[0]]), l1),
    "w0-two-down": lambda l0, l1: (_repaired(l0, len(l0) - 1, l1[l0[-1]]), l1),
    "short": lambda l0, l1: (l0[:-1], l1),
    "long": lambda l0, l1: (l0 + (5, 7), l1),
    "nine-plus": lambda l0, l1: (l0, l1) * 5,  # a left descent mask holds 8 generators
}
TOO_MANY = "a table holds at most 8 generators"
WRONG_SIZE = "each generator column must have one entry per element"
NO_INVOLUTION = "each generator column must be an involution"
NOT_ONE_LEVEL = "each generator must move every element one level"
NO_DESCENT = "only the identity may have no left descent"


FAULT_CASES = [
    ("A3", "copy", NO_DESCENT), ("A3", "swap", NO_INVOLUTION), ("A3", "compose", NO_INVOLUTION),
    ("A3", "to-identity", NO_INVOLUTION), ("A3", "re-pair", NOT_ONE_LEVEL),
    ("I2:5", "copy", NO_DESCENT), ("I2:5", "swap", NO_INVOLUTION),
    ("I2:5", "compose", NO_INVOLUTION), ("I2:5", "to-identity", NO_INVOLUTION),
    ("I2:5", "re-pair", NOT_ONE_LEVEL), ("A3", "unpair", NOT_ONE_LEVEL),
    ("I2:5", "unpair", NOT_ONE_LEVEL),
    ("A3", "e-two-up", NOT_ONE_LEVEL), ("I2:5", "e-two-up", NOT_ONE_LEVEL),
    ("A3", "w0-two-down", NOT_ONE_LEVEL), ("I2:5", "w0-two-down", NOT_ONE_LEVEL),
    ("A3", "short", WRONG_SIZE), ("A3", "long", WRONG_SIZE),
    ("I2:5", "short", WRONG_SIZE), ("I2:5", "long", WRONG_SIZE), ("A3", "nine-plus", TOO_MANY),
]


@pytest.mark.parametrize("spec, fault, message", FAULT_CASES,
                         ids=[f"{spec}-{fault}" for spec, fault, _ in FAULT_CASES])
def test_a_faulty_generator_column_is_refused(spec, fault, message):
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    sizes = [group.length.count(k) for k in range(group.length[group.w0] + 1)]
    again = GroupTable(group.descriptor, group.forms, group.left, sizes)
    assert (again.right, again.descents) == (group.right, group.descents)
    left = COLUMN_FAULTS[fault](*group.left[:2]) + group.left[2:]
    with pytest.raises(AssertionError, match=message):
        GroupTable(group.descriptor, group.forms, left, sizes)


@pytest.mark.parametrize("spec", ["A7", "I2:1000"])
def test_descent_masks_match_a_per_element_recomputation(spec):
    # A7 has 7 generators, so 14 mask bits; ids ascend with length, so s is a
    # descent of x on a side iff the product on that side has a smaller id
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    n = group.num_generators
    for x in group.elements():
        right = [s for s in range(n) if group.right[s][x] < x]
        left = [s for s in range(n) if group.left[s][x] < x]
        assert group.descents[x] == sum(1 << s for s in right) + sum(1 << n + s for s in left)
        assert group.first_right_descent(x) == (right[0] if right else -1)
    assert group.first_right_descent(group.identity) == -1


def test_a6_tables_keep_at_most_226_bytes_per_element():
    # traced bytes that the group and a fresh R context keep: 215.8 per
    # element with the forms packed in one bytes (the bound is that plus
    # about 5 %). Before: 256.8 with one bytes object per form, once the
    # context made its lower rows up front (225 when they were made on
    # first use), 287 with tuple forms, and 439 with row tuples for both
    # product tables and a per-context copy of the descent masks
    gc.collect()
    tracemalloc.start()
    try:
        group = enumerate_group(CoxeterDescriptor("A", 6))
        ctx = RContext(group)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / len(ctx.group) <= 226


def test_mul_walk_matches_the_form_product(a3, i2_groups):
    for group in (a3, i2_groups[7]):
        for a, b in itertools.product(group.elements(), repeat=2):
            assert group.mul(a, b) == form_product(group, a, b)


def test_bruhat_leq_examples(a3, pid):
    e = a3.identity
    w3412 = pid(a3, "3412")
    w4231 = pid(a3, "4231")
    assert a3.leq(e, w3412)
    assert a3.leq(w3412, w3412)
    # 3412 and 4231 are incomparable: the dot criterion rejects the pair,
    # whatever the Hasse picture of the ambient group may suggest
    assert not dot_leq((3, 4, 1, 2), (4, 2, 3, 1))
    assert not a3.leq(w3412, w4231)


def _assert_order_matches(group, below) -> None:
    """leq, lower_ideal, interval and comparable_pairs against an oracle
    relation: below(u, w) is the oracle's answer to u <= w. An interval is
    the tuple of its ids, ascending, so u first and w last; a lower one is
    the kept lower ideal itself."""
    n = len(group)
    rel = {(u, w) for u in range(n) for w in range(n) if below(u, w)}
    for u in range(n):
        for w in range(n):
            assert group.leq(u, w) == ((u, w) in rel)
    for w in range(n):
        assert group.lower_ideal(w) == tuple(v for v in range(n) if (v, w) in rel)
    for u, w in rel:
        members = tuple(v for v in range(n) if (u, v) in rel and (v, w) in rel)
        interval = group.interval(u, w)
        assert type(interval) is tuple and interval == members  # members ascend, as range(n)
        assert interval[0] == u and interval[-1] == w
        if u == group.identity:
            assert interval is group.lower_ideal(w)
    assert group.comparable_pairs() == sorted(rel)


def test_bruhat_matches_dot_criterion(a1, a2, a3, a4):
    for group in (a1, a2, a3, a4):
        _assert_order_matches(group, lambda u, w: dot_leq(group.form(u), group.form(w)))


def test_bruhat_matches_descent_recursion(a1, a2, a3, a4):
    for group in (a1, a2, a3, a4):
        memo: dict = {}
        _assert_order_matches(group, lambda u, w: descent_leq(group, u, w, memo))


def test_bruhat_matches_edge_reachability(a3, i2_groups):
    for group in (a3, *(i2_groups[m] for m in (2, 3, 5, 7, 8, 12))):
        reach = reachability(group)
        _assert_order_matches(group, lambda u, w: w in reach[u])


@pytest.mark.parametrize("spec", ["A4", "I2:7"])
def test_lower_ideals_asked_in_a_shuffled_order_match_the_order_oracle(spec):
    # out of id order, a top often finds a kept ideal only one step down some
    # left descent, or a later right one, and steps down it; the oracle knows
    # nothing of steps: the dot criterion in type A, edge reachability else
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    n, length = len(group), group.length
    if group.descriptor.family == "A":
        forms = list(map(group.form, group.elements()))
        below = {w: {v for v in range(n) if dot_leq(forms[v], forms[w])} for w in range(n)}
    else:
        reach = reachability(group)
        below = {w: {v for v in range(n) if w in reach[v]} for w in range(n)}
    tops = random.Random(45).sample(range(n), n)  # takes left steps on both groups
    for cap in (None, *range(length[group.w0] + 1)):
        for w in tops:
            expected = tuple(sorted(v for v in below[w]
                                    if cap is None or length[w] - length[v] <= cap))
            assert group.lower_ideal(w, cap) == expected, (w, cap)


def test_a_step_down_a_left_descent_reads_its_left_column(monkeypatch):
    # w = s1 s2 s3 has s1 as its only left descent and s3 as its only right
    # one; with the ideal of s1*w = s2 s3 kept and that of w*s3 = s1 s2 not,
    # [e, w] is [e, s2 s3] and its image under x -> s1*x, read off left[s1]
    group = enumerate_group(CoxeterDescriptor("A", 3))
    w, sw = group.from_word((0, 1, 2)), group.from_word((1, 2))
    assert group.left[0][w] == sw and group.left_descents(w) == (0,)
    assert group.first_right_descent(w) == 2 and group.descents[w] & 0b0111 == 0b100
    kept = group.lower_ideal(sw)
    assert sorted(group._ideals[None]) == [group.identity, sw]
    reads = collections.Counter()

    def spy(side, s, col):
        class Column(tuple):
            def __getitem__(self, x):
                reads[side, s] += 1
                return tuple.__getitem__(self, x)
        return Column(col)

    for side in ("left", "right"):
        monkeypatch.setattr(group, side, tuple(spy(side, s, col)
                                              for s, col in enumerate(getattr(group, side))))
    ideal = group.lower_ideal(w)
    assert ideal == tuple(v for v in group.elements() if dot_leq(group.form(v), group.form(w)))
    assert len(ideal) == 2 * len(kept)
    assert reads["left", 0] >= len(kept)  # every member of [e, s2 s3] moved by s1
    # the right column of s3 is read once, to find w*s3's ideal not kept
    assert {key: n for key, n in reads.items() if key[0] == "right"} == {("right", 2): 1}
    assert sorted(group._ideals[None]) == [group.identity, sw, w]


def test_interval_members_strictly_ascending(a3):
    for u, w in a3.comparable_pairs():
        members = a3.interval(u, w)
        assert all(a < b for a, b in zip(members, members[1:]))


def test_bruhat_is_partial_order(a3, i2_groups):
    for group in (a3, i2_groups[8]):
        n = len(group)
        for u in range(n):
            assert group.leq(u, u)
        for u, w in itertools.permutations(range(n), 2):
            if group.leq(u, w) and group.leq(w, u):
                raise AssertionError("antisymmetry violated")
        for u in range(n):
            for v in range(n):
                if not group.leq(u, v):
                    continue
                for w in range(n):
                    if group.leq(v, w):
                        assert group.leq(u, w)


def test_interval_examples(a3, pid):
    e = a3.identity
    assert len(a3.interval(e, pid(a3, "3412"))) == 14
    assert a3.interval(e, e) == (e,)
    # the paper's Poincare polynomial for 4231 evaluates to 20 at q=1
    assert sum((1, 3, 5, 6, 4, 1)) == 20
    assert len(a3.interval(e, pid(a3, "4231"))) == 20
    with pytest.raises(EmptyIntervalError):
        a3.interval(pid(a3, "3412"), pid(a3, "4231"))


def test_interval_cardinality_bounds(a3, pid):
    # every interval carries at least two elements per middle rank; the
    # 2^ell ceiling is a lower-interval fact only (reduced subword count)
    for u, w in a3.comparable_pairs():
        ell = a3.length[w] - a3.length[u]
        if ell >= 1:
            members = a3.interval(u, w)
            assert 2 * ell <= len(members)
            if u == a3.identity:
                assert len(members) <= 2 ** ell
    # witness that the ceiling fails away from the identity
    assert len(a3.interval(pid(a3, "1324"), pid(a3, "3412"))) == 10 > 2 ** 3


def descent_bits(group, v, side):
    """Right (side 0) or left (side 1) descents of v, from the bits of the
    group's descent mask that the R recursion reads."""
    n = group.num_generators
    return tuple(s for s in range(n) if group.descents[v] >> (side * n + s) & 1)


def test_descents(a3, pid):
    assert descent_bits(a3, a3.identity, 0) == ()
    assert descent_bits(a3, a3.w0, 0) == (0, 1, 2)
    assert descent_bits(a3, a3.w0, 1) == a3.left_descents(a3.w0) == (0, 1, 2)
    # one-line rule: descent positions i with w(i) > w(i+1)
    w = pid(a3, "3412")
    positions = tuple(i for i in range(3) if a3.form(w)[i] > a3.form(w)[i + 1])
    assert positions == (1,)
    assert descent_bits(a3, w, 0) == (1,)


def test_descents_match_one_line_rule(a4):
    for v in a4.elements():
        form = a4.form(v)
        rule = tuple(i for i in range(4) if form[i] > form[i + 1])
        assert descent_bits(a4, v, 0) == rule
        # left descents: i + 2 stands before i + 1 in the one-line form
        left = tuple(i for i in range(4) if form.index(i + 2) < form.index(i + 1))
        assert descent_bits(a4, v, 1) == a4.left_descents(v) == left


def test_elements_sorted_by_length_then_form(a3):
    keys = [(a3.length[v], a3.form(v)) for v in a3.elements()]
    assert keys == sorted(keys)


def reduced_words(group, v):
    """Every reduced word of v: each starts with a left descent of v."""
    if v == group.identity:
        return [()]
    return [(s, *rest) for s in group.left_descents(v)
            for rest in reduced_words(group, group.left[s][v])]


def test_words_and_display(a3, i2_groups):
    w0 = a3.reduced_word(a3.w0)
    assert len(w0) == 6
    assert a3.from_word(w0) == a3.w0
    words = reduced_words(a3, a3.w0)
    assert len(words) == 16
    assert (w0, a3.reduced_word(a3.w0, max)) == (min(words), max(words))
    assert a3.display(a3.identity) == "1234"
    m5 = i2_groups[5]
    assert m5.display(m5.identity) == "e"
    assert m5.display(m5.generator(0)) == "s1"
    # below the braid length the two alternating words are distinct elements
    assert m5.from_word((0, 1, 0)) != m5.from_word((1, 0, 1))
    assert m5.length[m5.from_word((0, 1, 0, 1, 0))] == 5
    assert m5.from_word((0, 1, 0, 1, 0)) == m5.from_word((1, 0, 1, 0, 1)) == m5.w0
