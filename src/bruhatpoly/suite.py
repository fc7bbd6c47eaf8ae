"""Named verification checks and conjecture scans, with optional workers.

One ordered table, ``_CHECKS``, names every check: a whole-group runner or
a per-interval test. Each check sweeps a deterministic scope (all intervals
for small groups, lower intervals once the group passes 48 elements) and
reports one pass/fail line. The th1 checks read the lower row of sizes in
one pass. The per-interval tests run in one sweep, which builds no Bruhat
graph: th2, th3 and cp-fourway share the verdicts kept on the context, and
el-unique and oracle-eq one increasing-path pass per bottom and reflection
order, over the whole group. Sweeps can be spread over worker processes:
forked workers inherit the parent's group and memos (workers started any
other way build their own from the spec string), the item list is chunked
in a fixed order and results are concatenated in submission order, so the
output is identical for any worker count. A worker keeps the shared work
for its own chunk only, so a sweep per check would compute it again.
"""

from __future__ import annotations

import math
import os
import random
import time
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

from . import analysis
from .coxeter import CoxeterDescriptor, GroupTable, enumerate_group
from .graph import IncreasingPathCounts, distinct_reflection_orders
from .rpoly import RContext, reassemble_r

__all__ = [
    "CHECK_NAMES",
    "CheckResult",
    "run_suite",
    "run_scan",
    "suite_text",
]

# groups up to this many elements get exhaustive all-interval scopes;
# larger ones fall back to lower intervals for the sum-based checks
SMALL_GROUP_LIMIT = 48

GEN_FUNC_DEPTH = 20


class CheckResult(NamedTuple):
    name: str
    passed: bool
    scope_size: int
    detail: str = ""
    seconds: float = 0.0  # wall time of the check


# -- per-process environment ------------------------------------------------------

_ENVS: dict[str, dict] = {}


def _environment(spec: str, group: Optional[GroupTable] = None) -> dict:
    """The per-process group, memo context and reflection orders of ``spec``
    (and, once el-unique or oracle-eq asks, their path passes).

    ``group`` is an already enumerated table for ``spec``; without one the
    group is enumerated here on first use.
    """
    env = _ENVS.get(spec)
    if env is None:
        if group is None:
            group = enumerate_group(CoxeterDescriptor.parse(spec))
        env = {
            "group": group,
            "ctx": RContext(group),
            "orders": distinct_reflection_orders(group),
        }
        _ENVS[spec] = env
    return env


def _run_chunk(spec: str, task: Callable, chunk: list) -> list:
    env = _environment(spec)
    return [task(env, item) for item in chunk]


def _usable_cpus() -> Optional[int]:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count (None when unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _pool_size(workers: int, cpus: Optional[int], items: int) -> int:
    """Worker processes for ``items`` work items: at most the requested count,
    the CPU count (1 when unknown) and one per two items; 1 means no pool."""
    return max(1, min(workers, cpus or 1, items // 2))


def _pmap(spec: str, task: Callable, items: Sequence, workers: int) -> list:
    """``task(env, item)`` for every item, in order; ``task`` must be a
    module-level function or a partial of one, which pickles by reference."""
    processes = _pool_size(workers, _usable_cpus(), len(items))
    if processes <= 1:
        return _run_chunk(spec, task, items)
    # four chunks per process; with two or more items per process this
    # never makes fewer chunks than processes
    chunk_size = max(1, math.ceil(len(items) / (processes * 4)))
    chunks = [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]
    # warm the parent: forked workers inherit its environment, workers
    # started any other way build their own on first use
    _environment(spec)
    # imported only where a pool starts; fork where the platform has it, so
    # workers inherit the parent's environment
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    context = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
        futures = [pool.submit(_run_chunk, spec, task, c) for c in chunks]
        return [result for fut in futures for result in fut.result()]


# -- task functions (module level, so that they pickle) -----------------------------


def _task_th4_pair(env: dict, pair: tuple[int, int]) -> bool:
    ctx: RContext = env["ctx"]
    u, w = pair
    ok = analysis.dihedral_bounds_ok(ctx, u, w)
    if ok and env["group"].descriptor.family == "I2":
        # in a dihedral group every interval is dihedral, so the upper
        # bound must be attained exactly
        n = env["group"].length[w] - env["group"].length[u]
        ok = ctx.shifted(u, w) == analysis.dihedral_poly(n)
    return ok


def _task_scan_pair(env: dict, pair: tuple[int, int]) -> Optional[dict]:
    return analysis.conjecture_violation(env["ctx"], pair[0], pair[1])


# -- per-interval tests, called as (env, u, w) --------------------------------------


def _th2(env: dict, u: int, w: int) -> bool:
    _, fired = analysis.shifted_average_fires(env["ctx"], w)
    return not fired or not analysis.is_regular(env["ctx"], u, w)


def _th3(env: dict, u: int, w: int) -> bool:
    verdict = analysis.deodhar_check(env["ctx"], u, w)
    return verdict.f1_holds and verdict.f2_holds and verdict.consistent


def _path_counts(env: dict) -> list[IncreasingPathCounts]:
    """One increasing-path counter per reflection order, made on first use;
    each keeps its last bottom, and the sweep asks for the bottoms in order."""
    if "paths" not in env:
        env["paths"] = [IncreasingPathCounts(env["group"], order) for order in env["orders"]]
    return env["paths"]


def _el_unique(env: dict, u: int, w: int) -> bool:
    return all(paths.increasing_chains(u, w) == (1, True) for paths in _path_counts(env))


def _oracle_eq(env: dict, u: int, w: int) -> bool:
    ctx: RContext = env["ctx"]
    rt, sh = ctx.rtilde(u, w), ctx.shifted(u, w)
    if any(paths.counts(u, w) != rt.coeffs or paths.shifted(u, w) != sh
           for paths in _path_counts(env)):
        return False
    return reassemble_r(ctx.gamma_vector(u, w)) == ctx.r(u, w)


def _cp_fourway(env: dict, u: int, w: int) -> bool:
    return analysis.four_way_regularity(env["ctx"], w).agree


def _task_interval(names: tuple[str, ...], env: dict, pair: tuple[int, int]) -> list:
    """(passed, wall seconds) per named test on [u, w], None where a lower-only
    test meets u != e."""
    u, w = pair
    outcomes = []
    for test, lower_only, _, _ in map(_CHECKS.__getitem__, names):
        started = time.perf_counter()
        outcomes.append(None if lower_only and u != env["group"].identity else
                        (test(env, u, w), time.perf_counter() - started))
    return outcomes


# -- scopes -------------------------------------------------------------------------


def _pair_count(group: GroupTable, max_interval_len: Optional[int] = None) -> int:
    """How many pairs ``GroupTable.comparable_pairs`` lists, counted without building them."""
    return sum(len(group.lower_ideal(w, max_interval_len)) for w in group.elements())


def _reduced_pairs(ctx: RContext,
                   max_interval_len: Optional[int] = None) -> list[tuple[int, int]]:
    """The capped comparable pairs whose ends share no left or right descent.

    Every capped pair reduces to one of these by stripping shared descents
    (as the R memo does), which keeps its length difference and its value.
    """
    group, descents = ctx.group, ctx.group.descents
    return [(u, w) for w in group.elements() for u in group.lower_ideal(w, max_interval_len)
            if not descents[u] & descents[w]]


def _interval_scope(group: GroupTable,
                    max_interval_len: Optional[int] = None) -> list[tuple[int, int]]:
    """All comparable pairs for small groups, else the lower intervals [e, w],
    capped at length(w) <= max_interval_len."""
    if len(group) <= SMALL_GROUP_LIMIT:
        return group.comparable_pairs(max_interval_len)
    return [(group.identity, w) for w in group.elements()
            if max_interval_len is None or group.length[w] <= max_interval_len]


# -- checks -------------------------------------------------------------------------


def _check_th1_monotone(spec: str, workers: int, cap: Optional[int]) -> CheckResult:
    """Sizes never decrease up the order, tested along covers.

    Every comparable pair joins by a saturated chain, each step of which
    fits any cap, so covers decide the verdict; the capped pairs are listed
    only to count the violations when some cover fails.
    """
    env = _environment(spec)
    group: GroupTable = env["group"]
    sizes, length = env["ctx"].lower_sizes(range(len(group))), group.length
    covers_ok = all(sizes[x] <= sizes[y] for col in group.reflection_columns().values()
                    for x, y in enumerate(col) if length[y] == length[x] + 1)
    bad = 0 if covers_ok else sum(
        1 for u, w in group.comparable_pairs(cap) if sizes[u] > sizes[w])
    return CheckResult("th1-monotone", bad == 0, _pair_count(group, cap),
                       "sizes never decrease up the order" if bad == 0 else f"{bad} violations")


def _check_th1_odd(spec: str, workers: int, cap: Optional[int]) -> CheckResult:
    """Every lower interval [e, w] of ``_interval_scope`` has an odd size,
    read for all its tops in one row pass."""
    env = _environment(spec)
    group: GroupTable = env["group"]
    tops = [w for u, w in _interval_scope(group, cap) if u == group.identity]
    ok = all(size % 2 == 1 for size in env["ctx"].lower_sizes(tops))
    return CheckResult("th1-odd", ok, len(tops), "every size is odd" if ok else "even size found")


def _check_th4(spec: str, workers: int, cap: Optional[int]) -> CheckResult:
    """Dihedral bounds on the pairs that share no descent; the scope is every
    capped comparable pair, which these stand for."""
    env = _environment(spec)
    ok = all(_pmap(spec, _task_th4_pair, _reduced_pairs(env["ctx"], cap), workers))
    return CheckResult("th4-bounds", ok, _pair_count(env["group"], cap),
                       "shifted polynomials inside dihedral bounds" if ok else "bound failed")


def _check_intervals(names: tuple[str, ...], spec: str, workers: int,
                     cap: Optional[int]) -> dict[str, CheckResult]:
    """The named per-interval tests in one sweep over ``_interval_scope``; each
    passes when it passes on every interval it takes, and its scope and time
    count those intervals and sum its times on them.

    Before a pool starts, the parent fills the R and shifted lower rows of
    the scope's tops, which the forked workers inherit; a worker would
    otherwise fill the row operands that lie in other chunks through memo
    walks into its own rows. When the scope is every lower interval, the
    packed row is made whole there too (``RContext.fill_packed_row``), so
    no lower sum scans its members for unfilled entries.
    """
    env = _environment(spec)
    group, ctx = env["group"], env["ctx"]
    pairs = _interval_scope(group, cap)
    if len(pairs) == len(group) > SMALL_GROUP_LIMIT:  # every lower interval
        ctx.fill_packed_row()
    if _pool_size(workers, _usable_cpus(), len(pairs)) > 1:
        ctx.lower_sizes(sorted({w for _, w in pairs}))
    outcomes = _pmap(spec, partial(_task_interval, names), pairs, workers)
    results = {}
    for name, column in zip(names, zip(*outcomes)):
        ran = [o for o in column if o is not None]
        ok = all(passed for passed, _ in ran)
        pass_detail, fail_detail = _CHECKS[name][2:]
        results[name] = CheckResult(name, ok, len(ran), pass_detail if ok else fail_detail,
                                    sum(seconds for _, seconds in ran))
    return results


def _check_obs(spec: str, workers: int, cap: Optional[int]) -> CheckResult:
    result = analysis.observation_sum(_environment(spec)["ctx"])
    detail = f"sum of sizes = {result.sum_of_sizes} = 2^length(w0)"
    if not result.ok:
        detail = f"sum {result.sum_of_sizes} != expected {result.expected}"
    return CheckResult("obs-sum", result.ok, 1, detail)


def _check_gen_func(spec: str, workers: int, cap: Optional[int]) -> CheckResult:
    series = analysis.dihedral_series(GEN_FUNC_DEPTH + 1)
    ok = all(series[n] == analysis.dihedral_poly(n) for n in range(GEN_FUNC_DEPTH + 1))
    return CheckResult("gen-func", ok, GEN_FUNC_DEPTH + 1,
                       f"series matches recursion through n={GEN_FUNC_DEPTH}" if ok else "series mismatch")


# every check, in canonical order: a whole-group runner (spec, workers, cap), or a
# per-interval row (test, lower intervals only, pass detail, fail detail) for the sweep
_CHECKS: dict[str, Union[Callable[[str, int, Optional[int]], CheckResult],
                         tuple[Callable[[dict, int, int], bool], bool, str, str]]] = {
    "th1-monotone": _check_th1_monotone,
    "th1-odd": _check_th1_odd,
    "th2": (_th2, True, "fired averages all irregular", "criterion misfired"),
    "th3": (_th3, False, "both degree inequalities hold", "inequality failed"),
    "th4-bounds": _check_th4,
    "el-unique": (_el_unique, False, "unique lex-first increasing chain", "uniqueness failed"),
    "oracle-eq": (_oracle_eq, False, "recursions match path enumeration", "oracle mismatch"),
    "cp-fourway": (_cp_fourway, True, "all regularity criteria agree", "criteria disagree"),
    "obs-sum": _check_obs,
    "gen-func": _check_gen_func,
}
CHECK_NAMES = tuple(_CHECKS)


def run_suite(spec: str, checks: Optional[Sequence[str]] = None,
              workers: int = 1,
              max_interval_len: Optional[int] = None,
              group: Optional[GroupTable] = None) -> list[CheckResult]:
    """Run the named checks for one group, in the canonical order.

    ``max_interval_len`` caps the scopes of the sweep checks: pairs (u, w)
    keep length(w) - length(u) <= cap, lower intervals [e, w] keep
    length(w) <= cap. Capped runs are flagged as partial in the rendered
    output. ``group`` is the already enumerated table for ``spec``, if any.
    Each result carries the wall time of its check; the per-interval rows
    of ``_CHECKS`` run as one sweep, at the place of the first of them.
    """
    selected = tuple(checks) if checks else CHECK_NAMES
    unknown = [c for c in selected if c not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(CHECK_NAMES)}")
    _environment(spec, group)
    runs = {name: row for name, row in _CHECKS.items() if name in selected}
    sweep = tuple(name for name, row in runs.items() if isinstance(row, tuple))
    swept: dict[str, CheckResult] = {}
    results: list[CheckResult] = []
    for name, row in runs.items():
        if name in sweep:
            swept = swept or _check_intervals(sweep, spec, workers, max_interval_len)
            results.append(swept[name])
        else:
            started = time.perf_counter()
            result = row(spec, workers, max_interval_len)
            results.append(result._replace(seconds=time.perf_counter() - started))
    return results


def suite_text(spec: str, results: Sequence[CheckResult],
               max_interval_len: Optional[int] = None) -> str:
    header = f"group: {spec}"
    if max_interval_len is not None:
        header += f" (partial: intervals capped at length {max_interval_len})"
    lines = [header]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name}: {status} (scope={r.scope_size}) {r.detail}")
    passed = sum(1 for r in results if r.passed)
    overall = "PASS" if passed == len(results) else "FAIL"
    lines.append(f"suite: {overall} ({passed}/{len(results)})")
    return "\n".join(lines) + "\n"


# -- conjecture scan -----------------------------------------------------------------


def run_scan(spec: str, workers: int = 1, sample: Optional[int] = None,
             seed: int = 0, max_interval_len: Optional[int] = None,
             extra_pairs: Sequence[tuple[int, int]] = (),
             exhaustive: bool = False,
             group: Optional[GroupTable] = None) -> dict:
    """Scan interval sums against the (1+q)^ell floor and tally edge sizes.

    ``sample`` draws that many pairs deterministically (seeded) from the
    scope; ``extra_pairs`` are always included; ``exhaustive`` forces the
    all-pairs scope even for large groups; ``group`` is the already
    enumerated table for ``spec``, if any. The result is JSON-ready with a
    stable ordering.
    """
    env = _environment(spec, group)
    group = env["group"]
    ctx: RContext = env["ctx"]
    if exhaustive:
        pairs = group.comparable_pairs(max_interval_len)
    else:
        pairs = _interval_scope(group, max_interval_len)
    sampled = None
    if sample is not None and sample < len(pairs):
        rng = random.Random(seed)
        pairs = sorted(rng.sample(pairs, sample))
        sampled = {"size": sample, "seed": seed}
    for pair in extra_pairs:
        if pair not in pairs:
            pairs.append(pair)
    # the tally fills the shifted row whole anyway: filled before the sums (and
    # a pool), it spares each lower sum a scan for unfilled entries. The sums
    # stay ahead of the tally, so a negative shifted coefficient is reported
    # before the size routes are compared
    ctx.fill_packed_row()
    violations = [v for v in _pmap(spec, _task_scan_pair, pairs, workers) if v is not None]
    violations.sort(key=lambda v: (v["u"], v["w"]))
    tally = analysis.edge_size_tally(ctx)
    return {
        "group": spec,
        "intervals_checked": len(pairs),
        "sample": sampled,
        "violations": violations,
        "edge_tally": {
            "edges": tally.edges,
            "equal": tally.equal,
            "strict": tally.strict,
            "equal_examples": [list(x) for x in tally.equal_examples],
            "strict_examples": [list(x) for x in tally.strict_examples],
        },
    }
