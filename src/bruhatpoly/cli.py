"""Command-line front end: compute, verify, scan and export.

Subcommands:

    interval    full JSON report for one Bruhat interval
    table       R-polynomial classes of a group, or the dihedral bound table
    verify      run the named check suite; nonzero exit on any failure
    scan        conjecture scan (interval sums and edge-size tally)
    export-dot  Graphviz rendering of an interval's Bruhat graph

Output is deterministic: identical arguments give byte-identical output,
for any worker count. Exit codes: 0 success, 1 check failure, 2 bad usage,
3 internal error (a library invariant failed or the library raised
ValueError; reported on one stderr line).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from itertools import chain, repeat
from operator import add
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from . import analysis, suite
from .coxeter import CoxeterDescriptor, GroupTable, enumerate_group
from .graph import to_dot
from .poly import size as poly_size
from .poly import total as poly_total
from .rpoly import RContext, gamma_form_text, reassemble_r

CHECK_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


# last row of the dihedral table; its memory grows as n^3 (394 MB at 1000)
DIHEDRAL_MAX_N = 500


class CliError(Exception):
    """Usage-level error: reported cleanly, exit status 2."""


# -- element literals ------------------------------------------------------------


def parse_element(group: GroupTable, text: str) -> int:
    """Parse an element literal: 'e', 'w0', a one-line permutation such as
    '3412' (or '3,4,1,2'), or a word in the generators such as 's1 s2 s1' or
    's1s2s1' (the form dihedral elements display in)."""
    s = text.strip()
    if not s:
        raise CliError("empty element literal")
    if s == "e":
        return group.identity
    if s == "w0":
        return group.w0
    if s.startswith("s") or " " in s:
        return _parse_word(group, s)
    if group.descriptor.family == "A":
        return _parse_one_line(group, s)
    raise CliError(
        f"element literal {text!r} not understood for group "
        f"{group.descriptor.spec_string()}; use 'e', 'w0' or a word like 's1 s2 s1'"
    )


def _parse_word(group: GroupTable, s: str) -> int:
    word = []
    for pos, token in enumerate(s.split()):
        if not token.startswith("s"):
            raise CliError(f"word token {token!r} at position {pos} must look like 's1'")
        # a run such as 's1s2' is read generator by generator
        for part in re.findall(r"s\d+", token) if re.fullmatch(r"(?:s\d+)+", token) else [token]:
            try:
                idx = int(part[1:])
            except ValueError:
                raise CliError(f"word token {token!r} at position {pos} has no generator index")
            if not 1 <= idx <= group.num_generators:
                raise CliError(
                    f"generator {part!r} at position {pos} out of range 1..{group.num_generators}")
            word.append(idx - 1)
    return group.from_word(word)


def _parse_one_line(group: GroupTable, s: str) -> int:
    n = group.descriptor.param + 1
    if "," in s:
        values = []
        for pos, item in enumerate(s.split(",")):
            try:
                values.append(int(item))
            except ValueError:
                raise CliError(f"one-line entry {item!r} at position {pos} is not an integer")
    else:
        values = []
        for pos, ch in enumerate(s):
            if not ch.isdigit():
                raise CliError(f"invalid character {ch!r} at position {pos} in one-line form")
            values.append(int(ch))
    if sorted(values) != list(range(1, n + 1)):
        raise CliError(f"{s!r} is not a permutation of 1..{n}")
    return group.index[tuple(values)]


# -- shared plumbing ----------------------------------------------------------------


def _make_group(args: argparse.Namespace) -> GroupTable:
    """The group of ``--group``, whose canonical spec replaces the text given,
    so that equivalent specs ('A5', 'A05', ' A5') give the same output."""
    try:
        group = enumerate_group(CoxeterDescriptor.parse(args.group))
    except ValueError as exc:
        raise CliError(str(exc))
    args.group = group.descriptor.spec_string()
    return group


def _write(stream: TextIO, text: str | Iterable[str]) -> None:
    """Write ``text``, or its pieces, to stdout or stderr; a closed pipe keeps the exit status."""
    try:
        stream.writelines([text] if isinstance(text, str) else text)
        stream.flush()
    except BrokenPipeError:  # the reader left: drop the rest, the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    if not out:
        _write(sys.stdout, text)
        return
    try:
        with open(out, "w") as stream:
            stream.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror or exc}")


def _json_text(obj) -> str:
    import json  # imported here: verify's text output needs no JSON
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommands ------------------------------------------------------------------------


def _parse_pair(group: GroupTable, args: argparse.Namespace) -> tuple[int, int]:
    """The elements ``--u`` and ``--w``, refused unless u <= w."""
    u, w = parse_element(group, args.u), parse_element(group, args.w)
    if not group.leq(u, w):
        raise CliError(f"{group.display(u)} is not below {group.display(w)} in Bruhat order; "
                       "the interval is empty")
    return u, w


def cmd_interval(args: argparse.Namespace) -> int:
    group = _make_group(args)
    u, w = _parse_pair(group, args)
    _emit(_json_text(analysis.interval_report(RContext(group), u, w)), args.out)
    return 0


def _r_classes(ctx: RContext) -> list[dict]:
    """The classes of lower R-polynomials, every check made; a row holds its
    member ids and no display string, so ``ctx`` can go before formatting."""
    group = ctx.group
    r_row = ctx.lower_row("r", range(len(group)))
    by_poly: dict[tuple, list[int]] = {}
    for v, value in enumerate(r_row):
        by_poly.setdefault(value.coeffs, []).append(v)
    firsts = [members[0] for members in by_poly.values()]
    rows = []
    for (coeffs, members), size in zip(by_poly.items(), ctx.lower_sizes(firsts)):
        gamma = ctx.gamma_vector(group.identity, members[0])
        if reassemble_r(gamma) != r_row[members[0]]:  # R-tilde's route against R's
            raise AssertionError(f"the gamma form of {group.display(members[0])} is not its R")
        rows.append({
            "ell": gamma.coxeter_length,
            "absolute_length": gamma.absolute_length,
            "members": members,
            "gamma_form": gamma_form_text(gamma),
            "r": r_row[members[0]].text(),
            "coeffs": [str(c) for c in coeffs],
            "size": size,
        })
    rows.sort(key=lambda r: (r["ell"], r["absolute_length"], group.display(r["members"][0])))
    for i, row in enumerate(rows):
        row["class"] = i
    return rows


def _json_items(items: Iterable[dict]) -> Iterator[str]:
    """The text of each item, a nonempty dict of scalars and lists of scalars,
    as an element of a table's list, indented as ``_json_text`` indents it
    there, in C-level passes: the C encoder, with a newline and indent in
    its item separator, writes the item's keys at depth 3 with each nonempty
    list as the sentinel [0, 0], and each list's elements at depth 4; each
    list's text is then spliced in at its sentinel (keys in sorted order).
    The sentinel's text holds a newline, which no encoded string does."""
    import json
    fields = json.JSONEncoder(separators=(",\n      ", ": "), sort_keys=True).encode
    elements = json.JSONEncoder(separators=(",\n        ", ": ")).encode
    for item in items:
        lists = sorted(k for k, v in item.items() if isinstance(v, list) and v)
        parts = fields({**item, **dict.fromkeys(lists, [0, 0])})[1:-1].split("[0,\n      0]")
        texts = (f"[\n        {elements(item[k])[1:-1]}\n      ]" for k in lists)
        yield "{\n      " + "".join(chain.from_iterable(zip(parts, texts))) + parts[-1] + "\n    }"


def _emit_table(args: argparse.Namespace, fields: dict, key: str, items: Iterable[dict],
                header: list[str]) -> None:
    """One table, made and written an item at a time. JSON: the text of
    ``{**fields, key: list(items)}`` (scalar fields, at least one item), each
    item dumped alone by ``_json_items`` into the text of the table whose one
    item is 0. CSV: the ``header``, then the fields it names of each item, a
    list space-separated."""
    if args.format == "json":
        head, tail = _json_text({**fields, key: [0]}).split("\n    0\n")
        commas = chain(["\n    "], repeat(",\n    "))
        pieces = chain([head], map(add, commas, _json_items(items)), ["\n" + tail])
    else:
        import csv  # imported here, as only CSV tables need it
        # writerow returns what the file's write returns: here, the line itself
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
        pieces = map(line, chain([header], ([" ".join(v) if isinstance(v, list) else v
                                             for v in map(item.get, header)] for item in items)))
    _emit(pieces, args.out)


def cmd_table(args: argparse.Namespace) -> int:
    if args.table == "r-polys":
        group = _make_group(args)
        rows = _r_classes(RContext(group))  # the context is freed here, before any text
        displays = group.display_pass()
        _emit_table(args, {"group": args.group}, "classes",
                    ({**r, "members": displays(r["members"])} for r in rows),
                    ["class", "members", "gamma_form", "r", "size"])
        return 0
    if args.max_n > DIHEDRAL_MAX_N:
        raise CliError(f"--max-n {args.max_n} is above the cap {DIHEDRAL_MAX_N}")
    polys = list(map(analysis.dihedral_poly, range(args.max_n + 1)))
    _emit_table(args, {"table": "dihedral"}, "rows",
                ({"n": n, "polynomial": d.text(), "coeffs": [str(c) for c in d.coeffs],
                  "size": poly_size(d), "total": poly_total(d)} for n, d in enumerate(polys)),
                ["n", "polynomial", "size", "total"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    group = _make_group(args)  # validate the spec before spending time
    checks = None
    if args.suite != "full":
        checks = [c.strip() for c in args.suite.split(",") if c.strip()]
        if not checks:
            raise CliError(f"--suite {args.suite!r} names no check")
        if unknown := [c for c in checks if c not in suite.CHECK_NAMES]:
            raise CliError(f"unknown checks: {unknown}; available: {list(suite.CHECK_NAMES)}")
    started = time.perf_counter()
    results = suite.run_suite(args.group, checks=checks, workers=args.workers,
                              max_interval_len=args.max_interval_len, group=group)
    elapsed = time.perf_counter() - started
    if args.format == "json":
        payload = {
            "group": args.group,
            "checks": [{"name": r.name, "passed": r.passed,
                        "scope": r.scope_size, "detail": r.detail} for r in results],
            "passed": all(r.passed for r in results),
        }
        if args.max_interval_len is not None:  # a partial run says so, as the text does
            payload["max_interval_len"] = args.max_interval_len
        _emit(_json_text(payload), args.out)
    else:
        _emit(suite.suite_text(args.group, results, args.max_interval_len), args.out)
    # timing goes to stderr so stdout stays byte-identical across runs
    _write(sys.stderr, f"verify {args.group}: {elapsed:.2f}s\n" + "".join(
        f"  {r.name}: {r.seconds:.2f}s (scope={r.scope_size})\n" for r in results))
    return 0 if all(r.passed for r in results) else CHECK_FAILURE


# groups beyond this order get a sampled scan unless --exhaustive is given
SCAN_SAMPLE_THRESHOLD = 200
SCAN_DEFAULT_SAMPLE = 500

# standing probe intervals that every sampled scan of the group includes;
# the A5 pair carries the famous degree-12 alternating-sign polynomial
SCAN_PROBE_PAIRS = {"A5": (("124356", "564312"),)}


def cmd_scan(args: argparse.Namespace) -> int:
    group = _make_group(args)
    extra = []
    specs = list(args.include_pair or ())
    sample = args.sample
    if not args.exhaustive and sample is None and len(group) > SCAN_SAMPLE_THRESHOLD:
        sample = SCAN_DEFAULT_SAMPLE
    if not args.exhaustive:
        specs.extend("..".join(p) for p in SCAN_PROBE_PAIRS.get(args.group, ()))
    for spec in specs:
        try:
            u_text, w_text = spec.split("..")
        except ValueError:
            raise CliError(f"pair {spec!r} must look like 'U..W'")
        u, w = parse_element(group, u_text), parse_element(group, w_text)
        if not group.leq(u, w):  # refused before any sweep, not after it
            raise CliError(f"[{group.display(u)}, {group.display(w)}] is empty: "
                           "endpoints are not comparable")
        extra.append((u, w))
    report = suite.run_scan(
        args.group,
        workers=args.workers,
        sample=sample,
        seed=args.seed,
        max_interval_len=args.max_interval_len,
        extra_pairs=extra,
        exhaustive=args.exhaustive,
        group=group,
    )
    _emit(_json_text(report), args.out)
    return 0 if not report["violations"] else CHECK_FAILURE


def cmd_export_dot(args: argparse.Namespace) -> int:
    group = _make_group(args)
    u, w = _parse_pair(group, args)
    cap = args.max_interval_len
    if cap is not None and group.length[w] - group.length[u] > cap:
        raise CliError("interval longer than --max-interval-len")
    _emit(to_dot(group, group.interval(u, w)), args.out)
    return 0


# -- parser -------------------------------------------------------------------------------


def _nonnegative(text: str, low: int = 0) -> int:
    """argparse type for counts and caps: an integer >= 0 (or >= low)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type for worker counts: an integer >= 1."""
    return _nonnegative(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatpoly",
        description="R-polynomial families on Bruhat intervals of finite Coxeter groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--group", required=True, help="group spec such as A3 or I2:7")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_int = sub.add_parser("interval", help="JSON report for one interval")
    add_common(p_int)
    p_int.add_argument("--u", required=True, help="bottom element literal")
    p_int.add_argument("--w", required=True, help="top element literal")
    p_int.set_defaults(func=cmd_interval)

    p_tab = sub.add_parser("table", help="R-polynomial classes or dihedral table")
    p_tab.add_argument("--table", required=True, choices=("r-polys", "dihedral"))
    p_tab.add_argument("--group", help="group spec (required for r-polys)")
    p_tab.add_argument("--max-n", type=_nonnegative, default=8,
                       help="last row of the dihedral table "
                            f"(default 8, at most {DIHEDRAL_MAX_N})")
    p_tab.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tab.add_argument("--out")
    p_tab.set_defaults(func=cmd_table)

    p_ver = sub.add_parser("verify", help="run the named check suite")
    add_common(p_ver)
    p_ver.add_argument("--suite", default="full",
                       help="'full' or comma-separated check names")
    p_ver.add_argument("--workers", type=_positive, default=1)
    p_ver.add_argument("--max-interval-len", type=_nonnegative, default=None,
                       help="cap sweep checks at this interval length (partial run)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="conjecture scan over intervals")
    add_common(p_scan)
    p_scan.add_argument("--workers", type=_positive, default=1)
    p_scan.add_argument("--sample", type=_nonnegative, default=None,
                        help="sample this many intervals instead of all")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--max-interval-len", type=_nonnegative, default=None)
    p_scan.add_argument("--include-pair", action="append", default=None,
                        metavar="U..W", help="always include this interval")
    p_scan.add_argument("--exhaustive", action="store_true",
                        help="scan every comparable pair, even in large groups")
    p_scan.set_defaults(func=cmd_scan)

    p_dot = sub.add_parser("export-dot", help="Graphviz view of an interval")
    add_common(p_dot)
    p_dot.add_argument("--u", required=True)
    p_dot.add_argument("--w", required=True)
    p_dot.add_argument("--max-interval-len", type=_nonnegative, default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and args.table == "r-polys" and not args.group:
        parser.error("table r-polys requires --group")
    try:
        return args.func(args)
    except CliError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return USAGE_ERROR
    except (AssertionError, ValueError) as exc:
        message = " ".join(str(exc).split()) or "invariant failed"
        _write(sys.stderr, f"error: internal: {message}\n")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
