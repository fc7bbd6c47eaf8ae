import functools
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from bruhatpoly import (CoxeterDescriptor, GroupTable, RContext, analysis, cli,
                        enumerate_group, rpoly, suite)
from bruhatpoly.cli import INTERNAL_ERROR, main
from bruhatpoly.coxeter import EmptyIntervalError
from bruhatpoly.suite import _pair_count, _pool_size, _reduced_pairs
from conftest import src_env
from oracles import capped_ideal_by_prefix, dot_leq, inversions, size_violations, th4_all_pairs


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "bruhatpoly", *args],
                          capture_output=True, text=True, env=src_env(), **kwargs)


def capture(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_interval_report_json(capsys):
    code, out = capture(capsys, ["interval", "--group", "A3", "--u", "e", "--w", "3412"])
    assert code == 0
    d = json.loads(out)
    assert d["size"] == 3
    assert d["f2"] == 8
    assert d["rtilde"]["coeffs"] == ["0", "0", "1", "0", "1"]


def test_interval_with_word_literals(capsys):
    code, out = capture(capsys, ["interval", "--group", "I2:5", "--u", "e", "--w", "s1 s2 s1"])
    assert code == 0
    d = json.loads(out)
    assert d["ell"] == 3
    assert d["shifted_r"]["text"] == "q^3 + q^2 + q"


def test_interval_report_boe_pair(capsys):
    code, out = capture(capsys, ["interval", "--group", "A5",
                                 "--u", "124356", "--w", "564312"])
    assert code == 0
    d = json.loads(out)
    assert d["ell"] == 12
    assert d["r"]["coeffs"] == ["1", "-5", "11", "-13", "8", "-1", "-2",
                                "-1", "8", "-13", "11", "-5", "1"]


def test_interval_identity_pair(capsys):
    code, out = capture(capsys, ["interval", "--group", "A3", "--u", "2143", "--w", "2143"])
    assert code == 0
    d = json.loads(out)
    assert d["r"]["text"] == "1"
    assert d["rtilde"]["text"] == "1"
    assert d["shifted_r"]["text"] == "1"


def test_empty_interval_is_usage_error():
    proc = run_cli(["interval", "--group", "A3", "--u", "3412", "--w", "4231"])
    assert proc.returncode == 2
    assert "not below" in proc.stderr


def test_parse_errors_report_position():
    proc = run_cli(["interval", "--group", "A3", "--u", "e", "--w", "34x2"])
    assert proc.returncode == 2
    assert "position 2" in proc.stderr
    proc2 = run_cli(["interval", "--group", "A3", "--u", "e", "--w", "3421 "])
    assert proc2.returncode == 0
    proc3 = run_cli(["interval", "--group", "A3", "--u", "e", "--w", "s1 s9"])
    assert proc3.returncode == 2
    assert "out of range" in proc3.stderr


def test_bad_group_spec_is_usage_error():
    proc = run_cli(["interval", "--group", "E8", "--u", "e", "--w", "w0"])
    assert proc.returncode == 2
    proc2 = run_cli(["verify", "--group", "A9"])
    assert proc2.returncode == 2
    assert "order" in proc2.stderr


@pytest.mark.parametrize("spec, reason", [
    ("A0", "bad type A group spec 'A0': type A rank must be >= 1"),
    ("I2:1", "bad dihedral group spec 'I2:1': dihedral parameter must be >= 2"),
])
def test_bad_group_spec_keeps_the_reason(spec, reason, capsys):
    assert main(["table", "--table", "r-polys", "--group", spec]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_huge_type_a_rank_is_usage_error():
    # a regression that computes the full order would hang; the timeout fails it
    proc = run_cli(["table", "--table", "r-polys", "--group", "A1000000"], timeout=20)
    assert proc.returncode == 2
    assert "has order above the cap 1000000" in proc.stderr


def test_dihedral_table_above_its_cap_is_usage_error():
    # one row past the cap; without the refusal it would exit 0
    proc = run_cli(["table", "--table", "dihedral", "--max-n", str(cli.DIHEDRAL_MAX_N + 1)],
                   timeout=20)
    assert proc.returncode == 2
    assert f"--max-n {cli.DIHEDRAL_MAX_N + 1} is above the cap {cli.DIHEDRAL_MAX_N}" in proc.stderr


@pytest.mark.parametrize("argv", [[], ["--suite", "oracle-eq", "--max-interval-len", "25"]])
def test_oracle_eq_runs_on_long_dihedral_intervals(argv):
    # the increasing paths of [e, w0] in I2(30) number about 2^30; listing them
    # took 345 s and 732 MB, so the timeout fails a return to listing. Capped at
    # length 25, the lower intervals are [e, e] and two of each length 1..25.
    proc = run_cli(["verify", "--group", "I2:30"] + argv, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert f"oracle-eq: PASS (scope={51 if argv else 60})" in proc.stdout


def test_long_w0_verifies_without_recursion_limit():
    # the reduced words of w0 have 1200 letters; walking them must not
    # recurse once per letter
    proc = run_cli(["verify", "--group", "I2:1200", "--max-interval-len", "3",
                    "--suite", "el-unique,oracle-eq"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "el-unique: PASS" in proc.stdout
    assert "oracle-eq: PASS" in proc.stdout


def test_usage_error_exit_code_from_argparse():
    proc = run_cli(["interval", "--group", "A3"])  # missing --u/--w
    assert proc.returncode == 2


def test_interval_on_a_short_w_fills_rows_inside_its_ideal(monkeypatch, capsys):
    contexts = []

    class Recorded(RContext):
        def __init__(self, group):
            super().__init__(group)
            contexts.append(self)

    monkeypatch.setattr(cli, "RContext", Recorded)
    code, _ = capture(capsys, ["interval", "--group", "A5", "--u", "e", "--w", "s1 s2 s3"])
    assert code == 0
    [ctx] = contexts
    group = ctx.group
    ideal = group.lower_ideal(group.from_word((0, 1, 2)))
    assert len(ideal) == 8
    filled = {name: {x for x, value in enumerate(row) if value is not None}
              for name, row in ctx._rows.items()}
    assert filled["shifted"] == set(ideal)
    assert all(entries <= set(ideal) for entries in filled.values()), filled


def test_table_r_polys_csv(capsys):
    code, out = capture(capsys, ["table", "--table", "r-polys", "--group", "A3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "class,members,gamma_form,r,size"
    assert len(lines) == 10
    sizes = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert sizes == [1, 1, 1, 3, 1, 3, 9, 5, 11]


def test_table_r_polys_never_builds_reflection_columns(capsys, monkeypatch):
    # the columns hold |W| x |T| ids; the r-polys table must not pay for them
    def refuse(self):
        raise AssertionError("reflection columns built on the r-polys path")

    monkeypatch.setattr(GroupTable, "reflection_columns", refuse)
    code, out = capture(capsys, ["table", "--table", "r-polys", "--group", "A5"])
    assert code == 0 and out.startswith("class,members,gamma_form,r,size\n")


@pytest.mark.parametrize("argv", [["table", "--table", "r-polys", "--group", "A4"],
                                  ["verify", "--group", "A3"]])
def test_table_and_verify_never_build_the_form_index(argv, capsys, monkeypatch):
    # only parsing an element needs form -> id; these commands parse none
    def refuse(self):
        raise AssertionError("form index built")

    monkeypatch.setattr(GroupTable, "index", property(refuse))
    monkeypatch.setattr(suite, "_ENVS", {})
    code, _ = capture(capsys, argv)
    assert code == 0


def test_table_dihedral_rows(capsys):
    code, out = capture(capsys, ["table", "--table", "dihedral", "--max-n", "0"])
    assert code == 0
    assert out.strip().split("\n")[1] == "0,1,1,0"
    code8, out8 = capture(capsys, ["table", "--table", "dihedral", "--max-n", "8"])
    last = out8.strip().split("\n")[-1]
    assert last.endswith(",85,398")


def test_table_json_format(capsys):
    code, out = capture(capsys, ["table", "--table", "dihedral", "--max-n", "3",
                                 "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["rows"][3]["coeffs"] == ["0", "1", "1", "1"]


def test_table_output_is_stable(capsys):
    _, first = capture(capsys, ["table", "--table", "r-polys", "--group", "A3"])
    _, second = capture(capsys, ["table", "--table", "r-polys", "--group", "A3"])
    assert first == second


def test_verify_subset_and_json(capsys):
    code, out = capture(capsys, ["verify", "--group", "A2",
                                 "--suite", "obs-sum,gen-func", "--format", "json"])
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert [c["name"] for c in d["checks"]] == ["obs-sum", "gen-func"]


def test_verify_unknown_check_is_usage_error():
    proc = run_cli(["verify", "--group", "A2", "--suite", "bogus"])
    assert proc.returncode == 2


def test_verify_full_small_group(capsys):
    code, out = capture(capsys, ["verify", "--group", "I2:4"])
    assert code == 0
    assert out.endswith("suite: PASS (10/10)\n")


def test_verify_capped_run_is_flagged_partial(capsys):
    code, out = capture(capsys, ["verify", "--group", "I2:4", "--max-interval-len", "2"])
    assert code == 0
    assert out.startswith("group: I2:4 (partial: intervals capped at length 2)\n")


def test_verify_capped_json_names_its_cap(capsys):
    base = ["verify", "--group", "I2:4", "--format", "json"]
    for cap in (0, 2):
        code, capped = capture(capsys, base + ["--max-interval-len", str(cap)])
        assert code == 0 and json.loads(capped)["max_interval_len"] == cap
    code, full = capture(capsys, base)
    assert code == 0 and "max_interval_len" not in json.loads(full)


def test_verify_cap_applies_to_every_sweep(capsys):
    code, out = capture(capsys, ["verify", "--group", "A4", "--max-interval-len", "3",
                                 "--format", "json"])
    assert code == 0
    perms = list(itertools.permutations(range(1, 6)))
    inv = {p: inversions(p) for p in perms}
    short_pairs = sum(1 for u in perms for w in perms
                      if 0 <= inv[w] - inv[u] <= 3 and dot_leq(u, w))
    short_tops = sum(1 for w in perms if inv[w] <= 3)
    # S5 has more than 48 elements, so the interval sweeps run over [e, w]
    expected = {
        "th1-monotone": short_pairs, "th1-odd": short_tops, "th2": short_tops,
        "th3": short_tops, "th4-bounds": short_pairs, "el-unique": short_tops,
        "oracle-eq": short_tops, "cp-fourway": short_tops, "obs-sum": 1, "gen-func": 21,
    }
    assert {c["name"]: c["scope"] for c in json.loads(out)["checks"]} == expected


def test_capped_pairs_are_the_filtered_pairs(a3, i2_groups):
    for group in (a3, i2_groups[7]):
        every = group.comparable_pairs()
        assert group.comparable_pairs(None) == every
        for cap in range(group.length[group.w0] + 1):
            assert group.comparable_pairs(cap) == [
                (u, w) for u, w in every if group.length[w] - group.length[u] <= cap]


def test_capped_ideals_are_the_cut_lower_ideals():
    # asked in descending id order on a fresh table, the first top walks the
    # whole chain of first right descents down before any capped ideal is kept
    for spec, descending in itertools.product(("A4", "I2:7"), (False, True)):
        group = enumerate_group(CoxeterDescriptor.parse(spec))
        tops = sorted(group.elements(), reverse=descending)
        for cap in range(group.length[group.w0] + 1):
            ideals = {w: group.lower_ideal(w, cap) for w in tops}
            assert ideals == {w: capped_ideal_by_prefix(group, w, cap) for w in tops}


def test_pair_count_is_the_capped_pair_list_length(a3, a4, i2_groups):
    for group in (a3, a4, i2_groups[7]):
        for cap in (None, *range(group.length[group.w0] + 1)):
            assert _pair_count(group, cap) == len(group.comparable_pairs(cap))


def test_capped_checks_build_no_full_ideal(monkeypatch):
    # th1-monotone and th4-bounds under a cap read only the capped ideals
    monkeypatch.setattr(suite, "_ENVS", {})
    group = enumerate_group(CoxeterDescriptor.parse("A6"))
    results = suite.run_suite("A6", ["th1-monotone", "th4-bounds"], max_interval_len=3,
                              group=group)
    assert all(r.passed for r in results)
    assert list(group._ideals) == [3]
    # a cap that cuts nothing shares the whole ideals
    assert group.lower_ideal(group.w0, 21) is group.lower_ideal(group.w0)
    assert list(group._ideals) == [3, None]


def test_a_sampled_scan_keeps_only_the_ideals_it_asks_for(monkeypatch):
    # each sampled top walks its chain of first right descents down to a kept
    # ideal; the ideals built on the way are not kept
    monkeypatch.setattr(suite, "_ENVS", {})
    group = enumerate_group(CoxeterDescriptor.parse("A6"))
    suite.run_scan("A6", sample=500, group=group)
    assert len(group._ideals[None]) <= 501  # the sampled tops and the identity


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "A5", "I2:12"])
def test_th4_reduced_pairs_match_all_pairs(spec, monkeypatch):
    monkeypatch.setattr(suite, "_ENVS", {})
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    ctx, pairs = RContext(group), group.comparable_pairs()
    # reducing a pair keeps its length difference and its shifted value, so
    # the reduced pairs carry every value that the pairs do
    values = {(group.length[w] - group.length[u], ctx.shifted(u, w).coeffs) for u, w in pairs}
    reduced = _reduced_pairs(ctx)
    assert {(group.length[w] - group.length[u], ctx.shifted(u, w).coeffs)
            for u, w in reduced} == values
    [result] = suite.run_suite(spec, ["th4-bounds"], group=group)
    assert (result.passed, result.scope_size) == (th4_all_pairs(ctx, pairs), len(pairs))


def test_th1_monotone_passes_without_a_pair_list(monkeypatch, capsys):
    # every cover holds, so no pair is listed to count violations
    def refuse(*args):
        raise AssertionError("pair list built")

    monkeypatch.setattr(suite, "_ENVS", {})
    monkeypatch.setattr(GroupTable, "comparable_pairs", refuse)
    code, out = capture(capsys, ["verify", "--group", "A4", "--suite", "th1-monotone"])
    assert code == 0
    assert "th1-monotone: PASS (scope=3781) sizes never decrease up the order" in out


@pytest.mark.parametrize("cap", [None, 0, 2])
def test_th1_monotone_counts_a_planted_violation_per_pair(cap, a3, pid, monkeypatch, capsys):
    # a size raised at one element decreases along its upper covers; the FAIL
    # line counts the violating pairs as a per-pair oracle does
    planted = pid(a3, "2143")
    sizes = {v: RContext(a3).bruhat_size(a3.identity, v) for v in a3.elements()}
    sizes[planted] = 99
    lower_sizes = RContext.lower_sizes
    monkeypatch.setattr(RContext, "lower_sizes", lambda self, members: [
        99 if v == planted else size for v, size in zip(members, lower_sizes(self, members))])
    monkeypatch.setattr(suite, "_ENVS", {})
    pairs = [(u, w) for u, w in a3.comparable_pairs()
             if cap is None or a3.length[w] - a3.length[u] <= cap]
    bad = size_violations(sizes, pairs)
    args = ["verify", "--group", "A3", "--suite", "th1-monotone"]
    if cap is not None:
        args += ["--max-interval-len", str(cap)]
    code, out = capture(capsys, args)
    line = out.splitlines()[1]
    if cap == 0:
        assert bad == 0 and code == 0
        assert line == f"th1-monotone: PASS (scope={len(pairs)}) sizes never decrease up the order"
    else:
        assert bad > 0 and code == 1
        assert line == f"th1-monotone: FAIL (scope={len(pairs)}) {bad} violations"


@pytest.mark.parametrize("spec, cap", [("A3", None), ("A3", 1), ("A4", None), ("A4", 3),
                                       ("A4", 1)])
def test_th1_odd_reports_a_planted_even_size(spec, cap, monkeypatch, capsys):
    # one lower interval given an even size fails th1-odd, in the all-pairs
    # scope of A3 and the lower scope of A4, unless the cap leaves its top out
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    planted = group.from_word([0, 2])  # s1 s3, of length 2
    lower_sizes = RContext.lower_sizes
    monkeypatch.setattr(RContext, "lower_sizes", lambda self, members: [
        98 if v == planted else size for v, size in zip(members, lower_sizes(self, members))])
    monkeypatch.setattr(suite, "_ENVS", {})
    tops = sum(1 for v in group.elements() if cap is None or group.length[v] <= cap)
    args = ["verify", "--group", spec, "--suite", "th1-odd"]
    if cap is not None:
        args += ["--max-interval-len", str(cap)]
    code, out = capture(capsys, args)
    line = out.splitlines()[1]
    if cap == 1:
        assert code == 0 and line == f"th1-odd: PASS (scope={tops}) every size is odd"
    else:
        assert code == 1 and line == f"th1-odd: FAIL (scope={tops}) even size found"


def test_verify_reports_each_check_on_stderr():
    # one stderr line per selected check after the total line, with its wall
    # time and scope; stdout does not depend on the worker count
    checks = ["th1-monotone", "th1-odd", "th2", "th3", "th4-bounds", "el-unique", "oracle-eq",
              "cp-fourway", "obs-sum"]
    runs = [run_cli(["verify", "--group", "A4", "--suite", ",".join(checks),
                     "--workers", str(workers)]) for workers in (1, 2)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    scopes = dict(re.findall(r"^([a-z0-9-]+): PASS \(scope=(\d+)\)", runs[0].stdout, re.M))
    for proc in runs:
        total, *lines = proc.stderr.splitlines()
        assert re.fullmatch(r"verify A4: \d+\.\d\ds", total)
        assert [re.fullmatch(r"  ([a-z0-9-]+): \d+\.\d\ds \(scope=(\d+)\)", line).groups()
                for line in lines] == [(name, scopes[name]) for name in checks]


def test_th1_odd_alone_builds_no_pair_list(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("pair list built")

    monkeypatch.setattr(GroupTable, "comparable_pairs", refuse)
    code, out = capture(capsys, ["verify", "--group", "A4", "--suite", "th1-odd",
                                 "--max-interval-len", "3"])
    assert code == 0
    assert "th1-odd: PASS (scope=" in out


def test_verify_large_dihedral_group(capsys):
    code, out = capture(capsys, ["verify", "--group", "I2:12"])
    assert code == 0
    assert out.endswith("suite: PASS (10/10)\n")


def test_scan_dihedral_group(capsys):
    code, out = capture(capsys, ["scan", "--group", "I2:8"])
    assert code == 0
    d = json.loads(out)
    assert d["violations"] == []
    # every comparable pair of the 16-element group is in scope
    assert d["intervals_checked"] == 129


def test_scan_reports_no_violations(capsys):
    code, out = capture(capsys, ["scan", "--group", "A3"])
    assert code == 0
    d = json.loads(out)
    assert d["violations"] == []
    assert d["edge_tally"]["edges"] == d["edge_tally"]["equal"] + d["edge_tally"]["strict"]


def test_scan_sampling_is_deterministic(capsys):
    _, out1 = capture(capsys, ["scan", "--group", "A3", "--sample", "20", "--seed", "5"])
    _, out2 = capture(capsys, ["scan", "--group", "A3", "--sample", "20", "--seed", "5"])
    assert out1 == out2
    d = json.loads(out1)
    assert d["intervals_checked"] == 20
    assert d["sample"] == {"seed": 5, "size": 20}


def test_scan_include_pair(capsys):
    code, out = capture(capsys, ["scan", "--group", "A3", "--sample", "5",
                                 "--include-pair", "e..w0"])
    assert code == 0
    assert json.loads(out)["intervals_checked"] == 6


def test_scan_refuses_incomparable_pair_before_any_sweep(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the scan swept intervals before checking the pairs")

    monkeypatch.setattr(suite, "_pmap", never)
    code = main(["scan", "--group", "A6", "--include-pair", "2134567..1234576"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: [2134567, 1234576] is empty: endpoints are not comparable\n"


def test_scan_max_interval_len(capsys):
    code, out = capture(capsys, ["scan", "--group", "A3", "--max-interval-len", "2"])
    assert code == 0
    d = json.loads(out)
    assert 0 < d["intervals_checked"] < 213


def test_scan_exhaustive_flag(capsys):
    _, out_default = capture(capsys, ["scan", "--group", "A3"])
    _, out_full = capture(capsys, ["scan", "--group", "A3", "--exhaustive"])
    # A3 is small enough that the default scope is already every pair
    assert json.loads(out_default)["intervals_checked"] == \
        json.loads(out_full)["intervals_checked"] == 213


def test_export_dot(capsys):
    code, out = capture(capsys, ["export-dot", "--group", "A3", "--u", "e", "--w", "3412"])
    assert code == 0
    assert out.count(" -> ") == 29
    assert out.startswith("digraph bruhat {")
    code1, out1 = capture(capsys, ["export-dot", "--group", "A3", "--u", "w0", "--w", "w0"])
    assert code1 == 0
    assert out1.count(" -> ") == 0 and out1.count('label="') == 1


def test_export_dot_cap():
    proc = run_cli(["export-dot", "--group", "A3", "--u", "e", "--w", "w0",
                    "--max-interval-len", "3"])
    assert proc.returncode == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = capture(capsys, ["interval", "--group", "A3", "--u", "e", "--w", "2143",
                                 "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["size"] == 1


@pytest.mark.parametrize("args", [
    ["table", "--table", "r-polys", "--group", "A4"],
    ["table", "--table", "r-polys", "--group", "I2:7", "--format", "json"],
    ["table", "--table", "dihedral", "--max-n", "12"],
    ["table", "--table", "dihedral", "--max-n", "12", "--format", "json"],
], ids=" ".join)
def test_a_table_out_file_holds_the_stdout_bytes(args, tmp_path, capsys):
    code, out = capture(capsys, args)
    target = tmp_path / "table.txt"
    assert capture(capsys, [*args, "--out", str(target)]) == (0, "")
    assert code == 0 and out and target.read_bytes() == out.encode()


@pytest.mark.parametrize("method", ["gamma_vector", "lower_sizes"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_fault_writes_nothing(method, fmt, monkeypatch, capsys, tmp_path):
    # every check of the table runs before its first byte: a fault planted at
    # the last class (w0 is a class of its own, and the last one computed)
    # or in the one size call exits 3 with empty stdout and no --out file
    original = getattr(RContext, method)

    def planted(ctx, *args):
        if method == "lower_sizes" or args[1] == ctx.group.w0:
            raise AssertionError(f"planted {method} fault")
        return original(ctx, *args)

    monkeypatch.setattr(RContext, method, planted)
    target = tmp_path / "table.txt"
    for out in ([], ["--out", str(target)]):
        code = main(["table", "--table", "r-polys", "--group", "A4", "--format", fmt, *out])
        captured = capsys.readouterr()
        assert code == INTERNAL_ERROR == 3
        assert captured.out == ""
        assert captured.err == f"error: internal: planted {method} fault\n"
    assert not target.exists()


@pytest.mark.parametrize("command", [
    ["table", "--table", "r-polys", "--group", "A4", "--format", "json"],
    ["interval", "--group", "A3", "--u", "e", "--w", "3412"],
], ids=["table", "interval"])
def test_a_gamma_form_that_is_not_r_exits_3(command, monkeypatch, capsys, tmp_path):
    # both commands print the gamma form, from the R-tilde recursion, next to
    # R, from the R recursion, and require the two to agree: a planted gamma
    # vector whose top entry is one too large stops them before any output
    target = tmp_path / "out.txt"
    assert main([*command, "--out", str(target)]) == 0 and target.read_text()
    target.unlink()
    original = RContext.gamma_vector

    def planted(ctx, u, w):
        gamma = original(ctx, u, w)
        (j, c), = gamma.entries[-1:]
        return gamma._replace(entries=(*gamma.entries[:-1], (j, c + 1)))

    monkeypatch.setattr(RContext, "gamma_vector", planted)
    for out in ([], ["--out", str(target)]):
        code = main([*command, *out])
        captured = capsys.readouterr()
        assert code == INTERNAL_ERROR == 3
        assert captured.out == "" and "is not its R" in captured.err
    assert not target.exists()


def test_a_reader_that_leaves_early_ends_the_table_quietly():
    # the reader takes 100 bytes and closes its end of a one-page pipe, so
    # the table, written a class at a time, meets a closed pipe part way
    import fcntl

    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "bruhatpoly", "table", "--table", "r-polys",
                             "--group", "A5", "--format", "json"],
                            stdout=write_end, stderr=subprocess.PIPE, env=src_env())
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        head = reader.read(100)
    _, err = proc.communicate(timeout=60)
    assert head.startswith(b'{\n  "classes": [\n    {\n') and len(head) == 100
    assert proc.returncode == 0 and err == b""


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["interval", "--group", "A3", "--u", "e", "--w", "1234",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize("args", [
    ["verify", "--group", "A3", "--max-interval-len", "-1"],
    ["scan", "--group", "A3", "--max-interval-len", "-1"],
    ["export-dot", "--group", "A3", "--u", "e", "--w", "w0", "--max-interval-len", "-1"],
    ["scan", "--group", "A3", "--sample", "-1"],
    ["table", "--table", "dihedral", "--max-n", "-1"],
    ["verify", "--group", "A3", "--suite", ","],
], ids=" ".join)
def test_negative_count_or_empty_suite_is_usage_error(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be >= 0" in captured.err or "names no check" in captured.err


@pytest.mark.parametrize("args, message", [
    (["interval", "--group", "A3", "--u", "", "--w", "w0"], "error: empty element literal"),
    (["interval", "--group", "I2:5", "--u", "e", "--w", "21"],
     "error: element literal '21' not understood for group I2:5; "
     "use 'e', 'w0' or a word like 's1 s2 s1'"),
    (["interval", "--group", "A3", "--u", "e", "--w", "s1 x2"],
     "error: word token 'x2' at position 1 must look like 's1'"),
    (["interval", "--group", "A3", "--u", "e", "--w", "sx"],
     "error: word token 'sx' at position 0 has no generator index"),
    (["interval", "--group", "A3", "--u", "e", "--w", "s9"],
     "error: generator 's9' at position 0 out of range 1..3"),
    (["interval", "--group", "I2:3", "--u", "e", "--w", "s2 s1s3"],
     "error: generator 's3' at position 1 out of range 1..2"),
    (["interval", "--group", "A3", "--u", "e", "--w", "3,x,1,2"],
     "error: one-line entry 'x' at position 1 is not an integer"),
    (["interval", "--group", "A3", "--u", "e", "--w", "3312"],
     "error: '3312' is not a permutation of 1..4"),
    (["scan", "--group", "A3", "--include-pair", "e-w0"],
     "error: pair 'e-w0' must look like 'U..W'"),
    (["table", "--table", "dihedral", "--max-n", "abc"],
     "bruhatpoly table: error: argument --max-n: invalid integer: 'abc'"),
    (["verify", "--group", "A3", "--workers", "0"],
     "bruhatpoly verify: error: argument --workers: must be >= 1, got 0"),
    (["scan", "--group", "A3", "--workers", "-2"],
     "bruhatpoly scan: error: argument --workers: must be >= 1, got -2"),
    (["table", "--table", "r-polys"], "bruhatpoly: error: table r-polys requires --group"),
], ids=["empty-literal", "one-line-on-I2", "token-x2", "token-sx", "token-s9", "run-s1s3",
        "comma-entry", "not-a-permutation", "include-pair", "max-n-abc", "verify-workers-0",
        "scan-workers-negative", "r-polys-without-group"])
def test_usage_errors_name_their_cause(args, message, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse refuses the arguments themselves
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == message


def test_one_line_literal_with_commas(capsys):
    args = ["interval", "--group", "A3", "--u", "e", "--w"]
    commas = capture(capsys, args + ["3,4,1,2"])
    assert commas[0] == 0
    assert commas == capture(capsys, args + ["3412"])
    a3 = enumerate_group(CoxeterDescriptor("A", 3))
    v = cli.parse_element(a3, "3,4,1,2")
    assert v == cli.parse_element(a3, "3412") == a3.index[(3, 4, 1, 2)]
    assert a3.form(v) == b"\x03\x04\x01\x02" and a3.display(v) == "3412"


@pytest.mark.parametrize("spec, index, bad_map", [
    # a rotation of order 5, on the 4-byte record k << 8 | flip
    ("I2:5", 1, "(lambda f, m: (((f[2] + 1) % m << 8) | f[3]).to_bytes(4, 'big'), 5)"),
    # a 3-cycle of the values
    ("A3", 0, "(bytes.translate, bytes.maketrans(b'\\1\\2\\3', b'\\2\\3\\1'))"),
], ids=["I2:5-rotation", "A3-3-cycle"])
def test_a_generator_map_that_is_no_involution_stops_the_level_pass(spec, index, bad_map):
    # the level pass loops for ever on such a map; the timeout fails that
    script = (
        "import sys\n"
        "from bruhatpoly import cli, coxeter\n"
        "maps = coxeter._generator_maps\n"
        "def patched(desc):\n"
        "    out = maps(desc)\n"
        f"    out[{index}] = {bad_map}\n"
        "    return out\n"
        "coxeter._generator_maps = patched\n"
        f"sys.exit(cli.main(['table', '--table', 'r-polys', '--group', '{spec}']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=20)
    order = CoxeterDescriptor.parse(spec).order()
    assert proc.returncode == INTERNAL_ERROR and proc.stdout == ""
    assert proc.stderr == f"error: internal: enumerated more than the {order} elements expected\n"


# a scan whose report holds a planted violation, so its verdict is a failure
PLANTED_SCAN = (
    "import sys\n"
    "from bruhatpoly import cli, suite\n"
    "scan = suite.run_scan\n"
    "suite.run_scan = lambda *a, **k: {**scan(*a, **k), 'violations': ['planted']}\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


# a run whose report breaks a library invariant, so it ends in an internal error
PLANTED_INVARIANT = (
    "import sys\n"
    "from bruhatpoly import analysis, cli\n"
    "def broken(*args):\n"
    "    raise AssertionError('planted')\n"
    "analysis.interval_report = broken\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)
PLANTED = {1: PLANTED_SCAN, 3: PLANTED_INVARIANT}

# each closed stdout case, then the cases whose status stderr carried, with
# stderr's reader gone alone or sharing stdout's pipe
CLOSED_STDOUT_CASES = [
    (("interval", "--group", "A3", "--u", "e", "--w", "w0"), 0),  # fits the stdout buffer
    (("table", "--table", "r-polys", "--group", "A5", "--format", "json"), 0),  # does not
    (("export-dot", "--group", "A3", "--u", "e", "--w", "w0"), 0),
    (("verify", "--group", "A3"), 0),
    (("scan", "--group", "A3"), 0),
    (("scan", "--group", "A3"), 1),
]
CLOSED_STDERR_CASES = [
    (("verify", "--group", "A3"), 0),
    (("scan", "--group", "A3"), 1),
    (("interval", "--group", "A3", "--u", "w0", "--w", "e"), 2),
    (("interval", "--group", "A3", "--u", "e", "--w", "w0"), 3),
]


@pytest.mark.parametrize("args, code, closed", [
    pytest.param(args, code, "stdout", id=f"{' '.join(args)}-exit {code}")
    for args, code in CLOSED_STDOUT_CASES
] + [
    pytest.param(args, code, closed, id=f"{' '.join(args)}-exit {code}-closed {closed}")
    for closed in ("stderr", "both") for args, code in CLOSED_STDERR_CASES
])
def test_a_closed_output_pipe_keeps_the_commands_own_status(args, code, closed):
    # the reader of stdout, of stderr or of both (one pipe) is gone before the
    # first byte: no traceback, no complaint from the flush at exit, and the
    # exit status is the command's
    read, write = os.pipe()
    os.close(read)
    program = ["-c", PLANTED[code]] if code in PLANTED else ["-m", "bruhatpoly"]
    streams = {name: write if closed in (name, "both") else subprocess.PIPE
               for name in ("stdout", "stderr")}
    try:
        proc = subprocess.run([sys.executable, *program, *args], **streams, text=True,
                              env=src_env(), timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    if closed == "stderr":  # a report, unless the command was refused or broke
        assert bool(proc.stdout) == (code < 2)
    elif closed == "stdout":
        lines = proc.stderr.splitlines()
        if args[0] == "verify":  # the timings go to stderr, and only they
            assert lines[0].startswith("verify A3: ") and len(lines) == 11, proc.stderr
        else:
            assert lines == []


def test_cli_import_loads_no_pool_or_dataclass_machinery():
    # only a run that starts a pool imports its modules, only JSON and CSV
    # output import json and csv, and the records are NamedTuples, so no import
    # pays for dataclasses and the inspect it loads; counted as what the import
    # adds, so a module preloaded at start-up is no fault
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); import bruhatpoly.cli; "
         "print(sorted(set(sys.modules) - before & {'multiprocessing', 'concurrent.futures', "
         "'dataclasses', 'inspect', 'json', 'csv'}))"],
        capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_worker_count_is_clamped():
    # no process is started: only the count a pool would get is computed
    assert _pool_size(10_000, 2, 3781) == 2
    assert _pool_size(10_000, 64, 10) == 5  # two items per worker at least
    assert _pool_size(10_000, None, 3781) == 1  # unknown CPU count: no pool
    assert _pool_size(3, 8, 3781) == 3
    assert _pool_size(4, 8, 3) == 1
    assert _pool_size(1, 8, 3781) == 1


def test_a_process_pinned_to_one_cpu_starts_no_pool(monkeypatch, capsys):
    # the CPUs a pool may use are the affinity set, not the machine's count
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(suite.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(suite.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert suite._usable_cpus() == 1
    outputs = []
    for workers in ("2", "1"):
        monkeypatch.setattr(suite, "_ENVS", {})
        assert main(["verify", "--group", "A4", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("suite: PASS (10/10)\n")


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(ctx):
        raise AssertionError("sizes disagree\nsecond line")

    monkeypatch.setattr(analysis, "observation_sum", broken)
    code = main(["verify", "--group", "A2", "--suite", "obs-sum"])
    captured = capsys.readouterr()
    assert code == INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err == "error: internal: sizes disagree second line\n"

    # a ValueError or an EmptyIntervalError from inside the library is a fault
    # too, not bad usage: the CLI refuses bad input at its own checks
    def planted(error):
        def fault(*args):
            raise error
        return fault

    monkeypatch.setattr(analysis, "shifted_average_fires",
                        planted(ValueError("planted library fault")))
    monkeypatch.setattr(analysis, "interval_report",
                        planted(EmptyIntervalError("planted report fault")))
    for argv, message in ((["verify", "--group", "A3", "--suite", "th2"], "planted library fault"),
                          (["interval", "--group", "A3", "--u", "e", "--w", "w0"],
                           "planted report fault")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == INTERNAL_ERROR
        assert captured.out == ""
        assert captured.err == f"error: internal: {message}\n"


def test_a_negative_shifted_coefficient_stops_scan_as_internal(monkeypatch, capsys):
    # plant a shifted kernel that negates its value; the packed interval sum rejects it
    kernel = rpoly._RULES["shifted"]
    monkeypatch.setitem(rpoly._RULES, "shifted", lambda a, b: -1 * kernel(a, b))
    monkeypatch.setattr(suite, "_ENVS", {})  # no context with values computed earlier
    code = main(["scan", "--group", "A3"])
    captured = capsys.readouterr()
    assert code == INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err == "error: internal: a shifted polynomial has a negative coefficient\n"


def test_interval_sweep_fills_the_lower_rows_before_a_pool_starts(monkeypatch, capsys):
    import concurrent.futures

    spec, suite_names, filled = "A5", "th1-odd,th2", []

    class CheckedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            env = suite._ENVS[spec]
            ctx, tops = env["ctx"], {w for _, w in suite._interval_scope(env["group"])}
            rows = (ctx._rows["r"], ctx._rows["shifted"])
            filled.append([None not in map(row.__getitem__, tops) for row in rows])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CheckedPool)
    monkeypatch.setattr(suite.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outputs = []
    for workers in ("2", "1"):
        monkeypatch.setattr(suite, "_ENVS", {})  # a fresh context per run
        assert main(["verify", "--group", spec, "--suite", suite_names,
                     "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert filled == [[True, True]]  # one pool, started with every top's rows filled
    assert outputs[0] == outputs[1] == (
        "group: A5\nth1-odd: PASS (scope=720) every size is odd\n"
        "th2: PASS (scope=720) fired averages all irregular\nsuite: PASS (2/2)\n")


def test_a_sweep_of_row_readers_alone_starts_no_pool(monkeypatch, capsys):
    # th1-odd reads only the lower rows that a parent fills before its pool
    # starts, so the pool would add its start and nothing else
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(suite.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _pool_size(2, 2, 5040) == 2  # the sweep alone would warrant a pool
    outputs = []
    for workers in ("2", "1"):
        monkeypatch.setattr(suite, "_ENVS", {})
        assert main(["verify", "--group", "A6", "--suite", "th1-odd", "--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == (
        "group: A6\nth1-odd: PASS (scope=5040) every size is odd\nsuite: PASS (1/1)\n")


@pytest.mark.parametrize("args", [
    ("scan", "--group", "A4", "--sample", "40"),
    ("table", "--table", "r-polys", "--group", "A4"),
    ("verify", "--group", "A3", "--format", "json"),
], ids=" ".join)
def test_stdout_does_not_depend_on_the_hash_seed(args):
    runs = [subprocess.run([sys.executable, "-m", "bruhatpoly", *args], capture_output=True,
                           env={**src_env(), "PYTHONHASHSEED": seed}, timeout=120)
            for seed in ("0", "777")]
    assert [p.returncode for p in runs] == [0, 0], [p.stderr for p in runs]
    assert runs[0].stdout == runs[1].stdout


# SHA-256 of stdout, recorded before the change each entry guards: the
# first three before the Bruhat order rewrite, the next five before the
# memo snapshot, the check table and the interval report class were
# removed, two before the one-pass upper-Boolean sweep, the two scans
# before lower-interval sums read the lower rows, full A5 verify before
# el-unique and oracle-eq counted paths in one pass per bottom, and the
# I2:80 report at the end before the memo walks shared the kernel cache
GOLDEN_STDOUT_SHA256 = {
    ("scan", "--group", "A4", "--exhaustive"):
        "ce22376a08e93292e718e391d938e44d7cddb992bee7186f2bdedd6b8df9a728",
    ("verify", "--group", "A3"):
        "930513606c1cf1219ca469efa8f1ecc03d65ba6d2b4b88b861ce112df581ef93",
    ("table", "--table", "r-polys", "--group", "A4", "--format", "json"):
        "44f872f395ae5f16eb195ae8015314f0fc67d168c078fcc7d332043620b2d5ee",
    # lower interval in type A: Poincare and pattern keys
    ("interval", "--group", "A3", "--u", "e", "--w", "w0"):
        "006aa814d8f686999ea3ec5129879a4f3608b03d0daf7fb02bbde86c2328859d",
    # not a lower interval
    ("interval", "--group", "A3", "--u", "2134", "--w", "w0"):
        "ec77a9f895f127074d26dd092b896dd62dbe480cd1db651ef647c4c0ea7d9693",
    # no pattern key
    ("interval", "--group", "I2:7", "--u", "e", "--w", "w0"):
        "fa4e95c4d96baced8adbdb2f6749a2d34cb4ec971388edca296a7973e40fb21d",
    ("verify", "--group", "A3", "--format", "json"):
        "e030ddac980699fb09fbe68565e3f9849baa634eb6e2b39b59382d455d6b9d91",
    # partial header, every sweep scope under a cap
    ("verify", "--group", "A4", "--max-interval-len", "3"):
        "52b75cb327f793ade962678d107c098918ff4caff885116de608c6837334ed07",
    # the verify-A4 benchmark workload
    ("verify", "--group", "A4"):
        "3c0e5ddf98b3f6b0a373fce606bad7608508ae99a4f1610cd11d2d31743f48f0",
    # upper-Boolean verdicts shared by th3 and cp-fourway, bounds per value
    ("verify", "--group", "A5", "--max-interval-len", "3", "--suite",
     "th3,th4-bounds,cp-fourway"):
        "a0e478086d808d0379a051b5cd8e4abd8210b4e9d9f00ede285eb6d1232c96f8",
    # every reader of the Bruhat graph rows: DOT edges and heights, p1/p2 and
    # degree regularity, and the five checks that build graphs
    ("export-dot", "--group", "A4", "--u", "e", "--w", "w0"):
        "4483762fbde10d4e6c22dc7e9522f7ce4a792b6cb46dca05033389dca3c54387",
    ("export-dot", "--group", "I2:5", "--u", "e", "--w", "w0"):
        "98893958e178f264cb57b8828e1d14bd1b3d7e0361aed078d5c3f7dbadc43ef5",
    ("interval", "--group", "A5", "--u", "124356", "--w", "564312"):
        "54a73039b6410eb72c14b7ee3fe9f617c38eeb262e792a3132b5b64b192d2e3c",
    ("verify", "--group", "A5", "--max-interval-len", "7", "--suite",
     "th2,th3,el-unique,oracle-eq,cp-fourway"):
        "09fb3fc9ad36abc2abf3f1538202c3e80dfc3ce7f80fd9dd1e2c4d8a1ae0b8fa",
    # both table kinds through the one table writer, CSV and JSON
    ("table", "--table", "dihedral", "--max-n", "30"):
        "f22245bd49eec8200b3f3bb649f6f34773489205759ce0b7bb4760cafe14d0db",
    ("table", "--table", "dihedral", "--max-n", "30", "--format", "json"):
        "bad6f3cf8992f78e417a35c13f8be91e1a438325ac1f93f3f2ff8d4630b7a09d",
    ("table", "--table", "r-polys", "--group", "A3"):
        "1b2391066a15c8c8416fa1666867589becad5fc57d39cae0c438cc8f01f0ef6b",
    # the R memo on reduced pairs: shared right descents, shared left descents
    # (dihedral), and a non-lower interval where both ends reduce
    ("table", "--table", "r-polys", "--group", "A5", "--format", "json"):
        "dc47cdbdbf302bee3dcbceed2b2abffac0f26a8c02ff418cd2d5707a03f4a9cb",
    ("verify", "--group", "I2:12"):
        "52c5b9ef19babe6a87efe7fdefa7ab4388a1aeb8de5cf6c5eacc30ba9a63e6ea",
    # every interval of a dihedral group; with "verify --group A3" above, the
    # all-intervals scope of the degree-regularity checks
    ("verify", "--group", "I2:8"):
        "d5c85247dbd464f17316861d1731a28f9626a7d9f5943a99ad34396be54f0860",
    ("interval", "--group", "A5", "--u", "213456", "--w", "654321"):
        "aa578061c313acdb99ce23118846899fcacdd1f2f7236b7b337848ce5a3c33fc",
    # lower-interval sums and the edge tally: every lower interval of A4,
    # and a sampled scan of A5 with its probe pair
    ("scan", "--group", "A4"):
        "a8d8308275651790b03cd201ec47a5508b8182be758e921e2d941d72082522b0",
    ("scan", "--group", "A5", "--seed", "1"):
        "ec66d83d59932f9d8bb81552691a92379af1ad35658312b1ac7c719dba94e564",
    # all ten checks on the lower intervals of A5
    ("verify", "--group", "A5"):
        "5750a4f046b78fbb81debe1ac77346ce9b3f000e4d7d46544f45d73dfaec3939",
    # memo walks alone, combining operand pairs through the shared kernel cache
    ("interval", "--group", "I2:80", "--u", "s1", "--w", "w0"):
        "2bdd2234c50ab08e07b8b66fa5583caedb8beccb6f8f15a90a622732be2839b1",
    # tables written a class at a time: a dihedral group, whose members
    # display as words, in both formats, and the larger A6 JSON
    ("table", "--table", "r-polys", "--group", "I2:7"):
        "bb8ac3d7779e6ab75a97f804950c3486d99ca1eea08fed4d38a1257b11756e8f",
    ("table", "--table", "r-polys", "--group", "I2:7", "--format", "json"):
        "8b088eb69556b0763822236d20f5e23885539d0b0d4f06545bc1b91060cd0af7",
    ("table", "--table", "r-polys", "--group", "A6", "--format", "json"):
        "29136c724912620370cd8c469b64a77c3ddf942901b2db7a01f09914c2c5514f",
}


def test_scan_stdout_does_not_depend_on_the_worker_count():
    runs = [run_cli(["scan", "--group", "A5", "--workers", str(workers)])
            for workers in (1, 2)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["intervals_checked"] == 501


@pytest.mark.parametrize("args", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(args, capsys):
    _, out = capture(capsys, list(args))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[args]


@functools.cache  # built once per spec: the A5 snapshot lists 98,407 pairs
def poisoned_snapshot(spec):
    """A memo snapshot for ``spec`` in the checksummed format that bruhatpoly
    0.1.0 merged from $BRUHAT_CACHE_DIR, with a wrong value for every pair."""
    group = enumerate_group(CoxeterDescriptor.parse(spec))
    tables = {name: {f"{u}:{w}": ["7"] for u, w in group.comparable_pairs() if u != w}
              for name in ("r", "rtilde", "shifted")}
    body = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return json.dumps({"format": "bruhatpoly-cache-v1", "group": spec,
                       "checksum": hashlib.sha256(body.encode()).hexdigest(),
                       "tables": tables})


# every golden with a group but A6, whose snapshot would list 3,550,919 pairs
@pytest.mark.parametrize("args", sorted(a for a in GOLDEN_STDOUT_SHA256 if "--group" in a
                                        and "A6" not in a), ids=" ".join)
def test_golden_stdout_ignores_cache_dir(args, tmp_path, monkeypatch, capsys):
    spec = args[args.index("--group") + 1]
    (tmp_path / (spec.replace(":", "_") + ".json")).write_text(poisoned_snapshot(spec))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("BRUHAT_CACHE_DIR", str(tmp_path))
    # no group environment carried over from earlier tests in this process
    monkeypatch.setattr(suite, "_ENVS", {})
    _, out = capture(capsys, list(args))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[args]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_every_element_parses_back_from_its_display(a3, a4, i2_groups):
    # dihedral elements display as runs such as 's1s2s1', which the CSV
    # members column needs; each must read back as the element itself.
    # Type A forms are bytes and the parse index is keyed by tuples
    groups = [enumerate_group(CoxeterDescriptor("A", n)) for n in (1, 2, 5)]
    for group in (*groups, a3, a4, *i2_groups.values()):
        assert [cli.parse_element(group, group.display(v)) for v in group.elements()] == list(
            group.elements())


def test_dihedral_runs_are_accepted_as_words(capsys):
    _, spaced = capture(capsys, ["interval", "--group", "I2:3", "--u", "e", "--w", "s1 s2"])
    code, run = capture(capsys, ["interval", "--group", "I2:3", "--u", "e", "--w", "s1s2"])
    assert code == 0 and run == spaced and json.loads(run)["w"] == "s1s2"
    code, out = capture(capsys, ["scan", "--group", "I2:3", "--include-pair", "s1..s1s2s1"])
    assert code == 0 and json.loads(out)["intervals_checked"] == 19


@pytest.mark.parametrize("spec", [" A5", "A05", "A+5"])
def test_equivalent_group_specs_print_the_same_bytes(spec, capsys):
    # the A5 probe pair and every echo of the spec follow the group, not its text
    for args in (["scan", "--sample", "3"], ["verify", "--suite", "obs-sum"],
                 ["table", "--table", "r-polys", "--format", "json"]):
        canonical = capture(capsys, [*args, "--group", "A5"])
        assert capture(capsys, [*args, "--group", spec]) == canonical
    code, out = capture(capsys, ["verify", "--group", " I2:04", "--suite", "obs-sum"])
    assert code == 0 and out.splitlines()[0] == "group: I2:4"
