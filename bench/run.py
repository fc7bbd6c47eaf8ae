"""Benchmark of the bruhatpoly CLI: three workloads, end to end and per layer.

Usage, from the root of a source tree:

    python3 bench/run.py --workload verify-A4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI command runs as a fresh process,
again and again until ``--seconds`` have passed, and the last line of
standard output is a JSON object with the end-to-end metrics (medians over
the repetitions). With ``--trace 1`` the same untraced repetitions run
first, then one traced run (see tracing.py), and the metrics are the
per-layer ones. Every timed process shares one vCPU with calibrate.py, and
CPU times are scaled by the speed it measures. Every output is checked
(see checks.py); a wrong output makes ``correct`` false and the exit
status 1. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402

# set-up is timed in fresh processes, at least SETUP_MIN_REPS of them and
# more until SETUP_SECONDS have passed: import the package, enumerate the group
SETUP_MIN_REPS = 3
SETUP_SECONDS = 3.0
SETUP_CODE = (
    "import sys, time\n"
    "start = time.process_time()\n"
    "import bruhatpoly.cli\n"
    "from bruhatpoly.coxeter import CoxeterDescriptor, enumerate_group\n"
    "enumerate_group(CoxeterDescriptor.parse(sys.argv[1]))\n"
    "print(time.process_time() - start)\n"
)
# calibrate.py chunks per CPU second on the vCPU that defines a reference
# second; CPU times are reported scaled to that speed
REFERENCE_CHUNKS_PER_S = 4500.0
# every run ends well inside three minutes, even if the program hangs
RUN_DEADLINE_S = 170.0
SCAN_SAMPLE = 500

# the traced verify run calls the CLI once per check, in canonical order;
# th1-monotone and th1-odd come from one computation, so they run together
VERIFY_TRACE_GROUPS = (("th1", "th1-monotone,th1-odd"), ("th2", "th2"), ("th3", "th3"),
                       ("th4-bounds", "th4-bounds"), ("el-unique", "el-unique"),
                       ("oracle-eq", "oracle-eq"), ("cp-fourway", "cp-fourway"),
                       ("obs-sum", "obs-sum"), ("gen-func", "gen-func"))


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    group: str
    # (stdout text, seed, number of CLI invocations in it) -> problems
    check: Callable[[str, int, int], list[str]]
    # the invocations of the traced run, when they differ from (argv,)
    traced: tuple[tuple[str, ...], ...] = ()


WORKLOADS = {
    "verify-A4": Workload(
        ("verify", "--group", "A4"), "A4",
        lambda text, seed, parts: checks.check_verify(text, 5, parts),
        tuple(("verify", "--group", "A4", "--suite", names) for _, names in VERIFY_TRACE_GROUPS),
    ),
    "scan-A6": Workload(
        ("scan", "--group", "A6"), "A6",
        lambda text, seed, parts: checks.check_scan(text, 7, SCAN_SAMPLE),
    ),
    "table-A7": Workload(
        ("table", "--table", "r-polys", "--group", "A7", "--format", "json"), "A7",
        lambda text, seed, parts: checks.check_table(text, 8, seed),
    ),
}


class Runner:
    """Starts program processes in a clean environment and a fresh directory."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("BRUHAT_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, args: list[str], calibrated: bool = False) -> dict:
        """Run one process to its end; wall, CPU and peak RSS from wait4.

        With ``calibrated``, calibrate.py shares the vCPU for the whole run,
        and ``speed`` is its chunks per CPU second over the reference rate:
        multiplying a CPU time by it gives reference seconds.
        """
        work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        calibrator = None
        try:
            if calibrated:
                calibrator = subprocess.Popen([sys.executable, str(BENCH_DIR / "calibrate.py")],
                                              cwd=work, env=self.env, stdout=subprocess.PIPE,
                                              text=True)
                calibrator.stdout.readline()  # "ready": its loop is about to start
            with (work / "stdout").open("wb") as out, (work / "stderr").open("wb") as err:
                begin = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *args], cwd=work, env=self.env,
                                        stdout=out, stderr=err)
                budget = max(1.0, RUN_DEADLINE_S - (begin - self.started))
                watchdog = threading.Timer(budget, proc.kill)
                watchdog.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    watchdog.cancel()
                wall = time.perf_counter() - begin
                proc.returncode = os.waitstatus_to_exitcode(status)
            result = {
                "returncode": proc.returncode,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024,
                "stdout": (work / "stdout").read_bytes(),
                "stderr": (work / "stderr").read_bytes(),
            }
            if calibrator is not None:
                calibrator.send_signal(signal.SIGTERM)
                chunks, seconds = calibrator.communicate(timeout=30)[0].split()
                if int(chunks) == 0:
                    raise RuntimeError("the calibration loop got no CPU time")
                result["speed"] = int(chunks) / float(seconds) / REFERENCE_CHUNKS_PER_S
            return result
        finally:
            if calibrator is not None and calibrator.poll() is None:
                calibrator.kill()
                calibrator.wait()
            shutil.rmtree(work, ignore_errors=True)


def _stdout_digest_errors(name: str, stdout: bytes) -> list[str]:
    """Every run of one program source must print the same bytes."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    digest = hashlib.sha256(stdout).hexdigest()
    path = OUT_DIR / f"{name}.{source.hexdigest()[:16]}.stdout.sha256"
    if path.exists():
        if path.read_text().strip() != digest:
            return [f"stdout differs from an earlier run of this source (see {path.name})"]
        return []
    path.write_text(digest + "\n")
    return []


def _traced(runner: Runner, name: str, seed: int) -> tuple[dict, list[str]]:
    workload = WORKLOADS[name]
    invocations = workload.traced or (workload.argv,)
    out = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR))
    try:
        proc = runner.run([str(BENCH_DIR / "tracing.py"), str(out),
                           json.dumps([list(a) for a in invocations])], calibrated=True)
        errors = []
        if proc["returncode"] != 0 or not (out / "trace.json").exists():
            tail = proc["stderr"].decode(errors="replace")[-2000:]
            return proc, [f"traced run exited {proc['returncode']}: {tail}"]
        doc = json.loads((out / "trace.json").read_text())
        text = (out / "traced.stdout").read_text()
        if any(code != 0 for code in doc["exit_codes"]):
            errors.append(f"traced CLI exit codes {doc['exit_codes']}")
        errors += workload.check(text, seed, len(invocations))
        proc["trace"] = doc
        proc["traced_stdout"] = text.encode()
        shutil.copy(out / "trace.json", OUT_DIR / f"{name}.trace.json")
        return proc, errors
    finally:
        shutil.rmtree(out, ignore_errors=True)


def per_layer(doc: dict, speed: float, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; its CPU seconds become reference seconds."""
    functions = doc["functions"]

    def fn(key: str, field: str) -> float:
        return functions.get(key, {}).get(field, 0)

    metrics: dict[str, tuple[float, str]] = {
        "coxeter.enumerate_group_s": (fn("coxeter.enumerate_group", "total_s"), "s"),
        "coxeter.comparable_pairs_s": (fn("coxeter.comparable_pairs", "total_s"), "s"),
        "coxeter.leq_memo_entries": (doc["leq_memo_entries"], "count"),
    }
    for key in ("coxeter.leq", "coxeter.interval", "coxeter.mul", "poly.mul", "poly.add",
                "graph.build_graph"):
        metrics[f"{key}_calls"] = (fn(key, "calls"), "count")
        metrics[f"{key}_self_s"] = (fn(key, "self_s"), "s")
    hits, misses = doc["memo_hits"], doc["memo_misses"]
    metrics["rpoly.memo_hits"] = (hits, "count")
    metrics["rpoly.memo_misses"] = (misses, "count")
    metrics["rpoly.memo_lookups"] = (hits + misses, "count")
    metrics["rpoly.memo_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["rpoly.family_self_s"] = (fn("rpoly.family", "self_s"), "s")
    metrics["graph.edges_built"] = (doc["counts"].get("graph.edges_built", 0), "count")
    metrics["graph.paths_enumerated"] = (doc["counts"].get("graph.paths_enumerated", 0), "count")
    metrics["graph.path_enum_self_s"] = (
        fn("graph.increasing_paths", "self_s") + fn("graph.short_paths", "self_s"), "s")
    metrics["analysis.interval_shifted_sum_self_s"] = (
        fn("analysis.interval_shifted_sum", "self_s"), "s")
    metrics["analysis.four_way_regularity_s"] = (fn("analysis.four_way_regularity", "total_s"), "s")
    metrics["analysis.edge_size_tally_s"] = (fn("analysis.edge_size_tally", "total_s"), "s")
    by_checks = dict(doc["suite_calls"])
    for label, names in VERIFY_TRACE_GROUPS:
        metrics[f"suite.{label}_s"] = (by_checks.get(names.replace(",", "+"), 0.0), "s")
    for layer in ("coxeter", "poly", "rpoly", "graph", "analysis", "suite", "cli"):
        total = sum(v["self_s"] for k, v in functions.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (total, "s")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    return {name: (value * speed if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bruhatpoly" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'bruhatpoly'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # every process shares one vCPU with calibrate.py (see Runner.run)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(started)
    errors: list[str] = []

    warm = runner.run(["-c", "import bruhatpoly.cli"])  # writes the bytecode caches
    if warm["returncode"] != 0:
        print(warm["stderr"].decode(errors="replace"), file=sys.stderr)
        return 2

    setups = []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or time.perf_counter() - setup_start < SETUP_SECONDS:
        setups.append(runner.run(["-c", SETUP_CODE, workload.group], calibrated=True))
    for s in setups:
        if s["returncode"] != 0:
            errors.append(f"set-up exited {s['returncode']}: {s['stderr'][-500:]!r}")
    setup_times = [float(s["stdout"]) * s["speed"] for s in setups if s["returncode"] == 0]
    setup_s = statistics.median(setup_times) if setup_times else 0.0

    reps = []
    failed = 0
    measure_start = time.perf_counter()
    while not reps or time.perf_counter() - measure_start < args.seconds:
        rep = runner.run(["-m", "bruhatpoly", *workload.argv], calibrated=True)
        reps.append(rep)
        problems = [] if rep["returncode"] == 0 else [f"exit status {rep['returncode']}"]
        if rep["stdout"] != reps[0]["stdout"]:
            problems.append("stdout differs between repetitions")
        if problems:
            failed += 1
            errors += problems
    errors += workload.check(reps[0]["stdout"].decode(), args.seed, 1)
    errors += _stdout_digest_errors(args.workload, reps[0]["stdout"])
    cpu_s = statistics.median(r["cpu_s"] * r["speed"] for r in reps)
    attempted = len(reps)

    metrics = {
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (setup_s, "s"),
    }
    if args.trace:
        traced, trace_errors = _traced(runner, args.workload, args.seed)
        attempted += 1
        if not trace_errors and not workload.traced \
                and traced["traced_stdout"] != reps[0]["stdout"]:
            trace_errors.append("traced stdout differs from the untraced stdout")
        if trace_errors:
            failed += 1
            errors += trace_errors
        if trace_errors:
            metrics = {}
        else:
            metrics = per_layer(traced["trace"], traced["speed"], len(reps[0]["stdout"]))
            metrics["trace.overhead_s"] = (traced["cpu_s"] * traced["speed"] - cpu_s, "s")

    for problem in errors:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s": setup_times,
        "repetitions": [{k: r[k] for k in ("wall_s", "cpu_s", "speed", "peak_rss_mb")}
                        for r in reps],
        "errors": errors,
    }
    path = OUT_DIR / f"{args.workload}-trace{args.trace}.result.json"
    path.write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
