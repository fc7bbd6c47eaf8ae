"""Output checkers for the benchmark workloads.

Each checker takes the CLI's standard output and returns a list of
problems, empty when the output is right. The checks test properties the
computation must have, recomputed with the independent code in
``reference.py``; none compares against a saved copy of earlier output.
"""

from __future__ import annotations

import json
import math
import random
import re

import reference as ref

# canonical order of the verify checks
VERIFY_CHECKS = ("th1-monotone", "th1-odd", "th2", "th3", "th4-bounds", "el-unique",
                 "oracle-eq", "cp-fourway", "obs-sum", "gen-func")
# checks whose scope is every comparable pair of the group
ALL_PAIR_CHECKS = ("th1-monotone", "th4-bounds")
# checks with one item per group element
PER_ELEMENT_CHECKS = ("th1-odd", "th2", "cp-fourway")
# checks over intervals: every comparable pair, or one lower interval per element
INTERVAL_CHECKS = ("th3", "el-unique", "oracle-eq")

_CHECK_LINE = re.compile(r"^([a-z0-9-]+): (PASS|FAIL) \(scope=(\d+)\)(.*)$")
_SUITE_LINE = re.compile(r"^suite: (PASS|FAIL) \((\d+)/(\d+)\)$")


def check_verify(text: str, n: int, parts: int = 1) -> list[str]:
    """``verify --group A{n-1}`` output, possibly split over ``parts`` runs
    that each ran some of the checks in canonical order."""
    errors = []
    perms = ref.all_perms(n)
    pairs = ref.BruhatOrder().comparable_pairs(n)
    expected_scope = {name: {len(perms)} for name in PER_ELEMENT_CHECKS}
    expected_scope.update({name: {pairs} for name in ALL_PAIR_CHECKS})
    expected_scope.update({name: {len(perms), pairs} for name in INTERVAL_CHECKS})
    expected_scope["obs-sum"] = {1}
    seen = []
    headers = suites = ran = 0
    for line in text.splitlines():
        if line == f"group: A{n - 1}":
            headers += 1
            continue
        suite = _SUITE_LINE.match(line)
        if suite:
            suites += 1
            ran += int(suite.group(3))
            if suite.group(1) != "PASS" or suite.group(2) != suite.group(3):
                errors.append(f"suite line reports failure: {line!r}")
            continue
        match = _CHECK_LINE.match(line)
        if not match:
            errors.append(f"unexpected line {line!r}")
            continue
        name, status, scope, detail = match.group(1), match.group(2), int(match.group(3)), match.group(4)
        seen.append(name)
        if status != "PASS":
            errors.append(f"{name} failed: {line!r}")
        allowed = expected_scope.get(name)
        if allowed is not None and scope not in allowed:
            errors.append(f"{name} scope {scope}, expected one of {sorted(allowed)}")
        if allowed is None and scope < 1:
            errors.append(f"{name} has an empty scope")
        if name == "obs-sum":
            found = re.search(r"sum of sizes = (\d+)", detail)
            total = sum(ref.evaluate(ref.RPolynomials().r(perms[0], w), 2) for w in perms)
            top = ref.inversions(perms[-1])
            if total != 2 ** top:
                errors.append(f"reference sizes sum to {total}, not 2^{top}")
            if not found or int(found.group(1)) != total:
                errors.append(f"obs-sum reports {detail.strip()!r}, expected a sum of {total}")
    if tuple(seen) != VERIFY_CHECKS:
        errors.append(f"checks reported {seen}, expected {list(VERIFY_CHECKS)}")
    if headers != parts or suites != parts or ran != len(VERIFY_CHECKS):
        errors.append(f"{headers} headers and {suites} suite lines over {ran} checks; "
                      f"expected {parts} and {parts} over {len(VERIFY_CHECKS)}")
    return errors


def _load_json(text: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return None, ["output is not a JSON object"]
    return doc, []


def check_scan(text: str, n: int, sample: int) -> list[str]:
    """``scan --group A{n-1}`` output with a default sample of ``sample`` intervals."""
    doc, errors = _load_json(text)
    if doc is None:
        return errors
    if doc.get("group") != f"A{n - 1}":
        errors.append(f"group {doc.get('group')!r}")
    if doc.get("violations") != []:
        errors.append(f"violations reported: {doc.get('violations')!r}")
    if doc.get("intervals_checked") != sample or doc.get("sample") != {"size": sample, "seed": 0}:
        errors.append(f"checked {doc.get('intervals_checked')!r} intervals with sample "
                      f"{doc.get('sample')!r}; expected {sample} at seed 0")
    tally = doc.get("edge_tally") or {}
    expected_edges = math.factorial(n) * math.comb(n, 2) // 2
    edges, equal, strict = tally.get("edges"), tally.get("equal"), tally.get("strict")
    if edges != expected_edges:
        errors.append(f"edges {edges!r}, expected |W|*|T|/2 = {expected_edges}")
    if not (isinstance(equal, int) and isinstance(strict, int) and equal >= 0 and strict >= 0
            and equal + strict == edges):
        errors.append(f"equal {equal!r} + strict {strict!r} != edges {edges!r}")
        return errors
    rpolys = ref.RPolynomials()
    identity = tuple(range(1, n + 1))
    for label, count, same in (("equal", equal, True), ("strict", strict, False)):
        examples = tally.get(f"{label}_examples")
        if not isinstance(examples, list) or (count > 0) != bool(examples) or len(examples) > count:
            errors.append(f"{label} examples {examples!r} for a count of {count}")
            continue
        for pair in examples:
            u, v = (ref.parse_perm(x) for x in pair)
            if sorted(u) != list(identity) or sorted(v) != list(identity):
                errors.append(f"{label} example {pair!r} is not a pair of permutations")
                continue
            if not ref.is_transposition_step(u, v) or ref.inversions(u) >= ref.inversions(v):
                errors.append(f"{label} example {pair!r} is not a Bruhat edge")
                continue
            su = ref.evaluate(rpolys.r(identity, u), 2)
            sv = ref.evaluate(rpolys.r(identity, v), 2)
            if (su == sv) != same or su > sv:
                errors.append(f"{label} example {pair!r} has sizes {su} and {sv}")
    return errors


def check_table(text: str, n: int, seed: int) -> list[str]:
    """``table --table r-polys --group A{n-1} --format json`` output."""
    doc, errors = _load_json(text)
    if doc is None:
        return errors
    if doc.get("group") != f"A{n - 1}":
        errors.append(f"group {doc.get('group')!r}")
    rows = doc.get("classes")
    if not isinstance(rows, list) or not rows:
        return errors + ["no classes"]
    identity = tuple(range(1, n + 1))
    top = math.comb(n, 2)
    members_seen: list = []
    edge_members: set = set()
    weighted_sizes = 0
    for i, row in enumerate(rows):
        try:
            members = [ref.parse_perm(m) for m in row["members"]]
            coeffs = [int(c) for c in row["coeffs"]]
            ell, size, index = row["ell"], row["size"], row["class"]
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"class {i} is malformed: {exc!r}")
            continue
        if index != i or not members:
            errors.append(f"class {i} has index {index!r} and {len(members)} members")
            continue
        members_seen.extend(members)
        if any(ref.inversions(m) != ell for m in members):
            errors.append(f"class {i}: ell {ell} is not every member's inversion count")
        if len(coeffs) != ell + 1 or coeffs[-1] != 1:
            errors.append(f"class {i}: R is not monic of degree {ell}")
        at_one = ref.evaluate(coeffs, 1)
        if at_one != (1 if members == [identity] else 0):
            errors.append(f"class {i}: R(1) = {at_one}")
        slope = ref.derivative_at(coeffs, 1)
        if slope not in (0, 1):
            errors.append(f"class {i}: R'(1) = {slope}")
        if slope == 1:
            edge_members.update(members)
        if size != ref.evaluate(coeffs, 2):
            errors.append(f"class {i}: size {size!r} != R(2)")
        if isinstance(size, int):
            weighted_sizes += size * len(members)
    if len(members_seen) != math.factorial(n) or set(members_seen) != set(ref.all_perms(n)):
        errors.append(f"members do not partition S{n}: {len(members_seen)} listed, "
                      f"{len(set(members_seen))} distinct")
    if edge_members != ref.transpositions(n):
        errors.append(f"R'(1) = 1 on {len(edge_members)} elements, not on the "
                      f"{math.comb(n, 2)} transpositions")
    if weighted_sizes != 2 ** top:
        errors.append(f"sizes sum to {weighted_sizes}, not 2^{top}")
    if errors:
        return errors
    # one member per class, drawn by the seed, against the independent recursion
    rng = random.Random(seed)
    rpolys = ref.RPolynomials()
    for i, row in enumerate(rows):
        member = ref.parse_perm(rng.choice(row["members"]))
        expected = [str(c) for c in rpolys.r(identity, member)]
        if row["coeffs"] != expected:
            errors.append(f"class {i}: R of {member} is {expected}, table says {row['coeffs']}")
    return errors
