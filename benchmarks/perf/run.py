"""The repository's host-time benchmark.

    python3 benchmarks/perf/run.py --workload yield_closure \
        [--seed 2012] [--seconds 10] [--trace] [--out record.json]
    python3 benchmarks/perf/run.py --all [--runs 10] --out set.json
    python3 benchmarks/perf/run.py --selfcheck

One run is: set-up (three times over; ``setup_s`` is the median) ->
measured passes for ``--seconds`` -> checks -> every metric printed by
name with its unit -> one JSON object as the last line of standard
output. ``--trace`` splits the measured time into untraced passes and
passes with spans recorded around every layer's entry points, and
prints the per-layer metrics instead of the end-to-end ones (those are
always measured with tracing off). See README.md beside this file."""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse
import gc
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(
        f"{ROOT / 'src' / 'repro'} not found: the benchmark drives the "
        f"repro package from a checkout of the whole repository"
    )
sys.path.insert(0, str(ROOT / "src"))

# numpy asks the kernel for transparent huge pages behind large arrays
# (every Device's 64 MiB arena is one). Whether a 2 MiB page is to be
# had at first touch is up to the machine, and moved peak memory by
# +-12 % from run to run; with plain pages it repeats within 0.3 %.
# Pool workers inherit the setting.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy

import metrics as definitions
import stats
from inproc import ColdCompile, OpResult, WarmExec
from serve import ServeSmall
from spans import Tracer

#: Seconds from process start until everything is imported; part of
#: ``setup_s``, so work moved to import time shows there.
IMPORT_SECONDS = perf_counter() - _PROCESS_START

SETUP_REPEATS = 3
#: A run makes at least this many passes however slow the machine is:
#: fewer leave the 10th percentile of a kind's samples undefined.
MIN_PASSES = 5
#: Share of a traced run's measured time spent on untraced passes (the
#: base of ``trace.overhead_share``), and the fewest passes per phase.
UNTRACED_SHARE = 0.4
MIN_PHASE_PASSES = 3
#: Every file the system writes (state store, persistent cache) goes
#: under a per-run directory here, removed when the run ends.
SCRATCH_ROOT = ROOT / ".bench_tmp"

EXEC_WORKLOADS = {
    "uniform_closure": ("uniform", "interpreter", 0.5),
    "uniform_array": ("uniform", "array", 0.5),
    "yield_closure": ("yield", "interpreter", 0.25),
    "yield_array": ("yield", "array", 0.25),
}


def make_bench(workload: str, seed: int, scratch: str):
    if workload == "cold_compile":
        return ColdCompile(seed, scratch)
    if workload == "serve_small":
        return ServeSmall(seed, os.path.join(scratch, "state"))
    return WarmExec(*EXEC_WORKLOADS[workload], seed)


def samples_by_kind(bench, results: List[OpResult]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {kind: [] for kind in bench.kinds}
    for result in results:
        if result.error is None:
            samples[result.kind].append(result.seconds)
    return samples


def peak_rss_mib() -> float:
    """High-water resident memory of this process plus that of its
    largest child that has ended (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def unstable_counts(results: List[OpResult]) -> List[str]:
    """Kinds whose modeled cycles or guest instructions differed
    between two ops of this run: the simulator is deterministic, so
    the same inputs must cost the same every pass."""
    seen: Dict[str, tuple] = {}
    unstable = set()
    for result in results:
        if result.error is None:
            counted = (result.cycles, result.instructions)
            if seen.setdefault(result.kind, counted) != counted:
                unstable.add(result.kind)
    return sorted(unstable)


def stop_resource_tracker() -> None:
    """``multiprocessing`` starts a resource-tracker process beside
    the first spawned pool worker and leaves it to exit when this
    process does. The benchmark must have stopped everything it
    started before it exits; a no-op when none was started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool,
    keep_trace: bool = False,
) -> dict:
    """One run of one workload; returns its record (with the spans as
    a Chrome trace under ``"trace"`` when ``keep_trace``)."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_ROOT)
    rng = random.Random(seed)
    setups: List[float] = []
    setup_speeds: List[float] = []
    bench = None
    untraced: List[OpResult] = []
    try:
        for _ in range(SETUP_REPEATS):
            if bench is not None:
                bench.tear_down()
                # Compiled code is full of reference cycles: collected
                # now, or the next set-up's peak memory sits on top of
                # whatever part of this one is still waiting.
                bench = None
                gc.collect()
            start = perf_counter()
            bench = make_bench(workload, seed, scratch)
            bench.set_up()
            setups.append(perf_counter() - start)
            setup_speeds.append(bench.speed()[1])
        if not traced:
            results, passes, wall = bench.measure(seconds, MIN_PASSES, rng)
            speed = bench.speed()
        else:
            untraced, _, _ = bench.measure(
                seconds * UNTRACED_SHARE, MIN_PHASE_PASSES, rng
            )
            untraced_speed = bench.speed()
            tracer = Tracer()
            bench.start_trace(tracer, untraced)
            try:
                results, passes, wall = bench.measure(
                    seconds * (1 - UNTRACED_SHARE), MIN_PHASE_PASSES, rng
                )
                speed = bench.speed()
                recorded = len(tracer.spans)
                layer = bench.layer_metrics(results)
            finally:
                bench.stop_trace()
        checked = bench.finish()
        counts = bench.counts()
    finally:
        if bench is not None:
            bench.tear_down()
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH_ROOT.iterdir()):
            SCRATCH_ROOT.rmdir()

    attempted = untraced + results + checked
    failures = [r for r in attempted if r.error is not None]
    unstable = unstable_counts(untraced + results)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": not failures and not unstable,
        "attempted": len(attempted),
        "failed": len(failures),
        "passes": passes,
        "setups_s": setups,
        "setup_speeds": setup_speeds,
        "import_s": IMPORT_SECONDS,
        "failures": [f"{r.kind}: {r.error}" for r in failures[:20]]
        + [f"{kind}: modeled counts differ between passes" for kind in unstable],
    }
    samples = samples_by_kind(bench, results)
    if traced:
        base = stats.summarize_kinds(
            samples_by_kind(bench, untraced), bench.weights, *untraced_speed
        )["pass_ms"]
        with_spans = stats.summarize_kinds(
            samples, bench.weights, *speed
        )["pass_ms"]
        record["untraced_pass_ms"] = base
        record["traced_pass_ms"] = with_spans
        record["unattributed_ms"] = layer.pop("trace.unattributed_ms")
        values = {m.name: 0.0 for m in definitions.PER_LAYER}
        values.update(layer)
        values.update(counts)
        values["trace.spans"] = recorded / passes
        values["trace.overhead_share"] = (with_spans - base) / base
        if keep_trace:
            record["trace"] = tracer.chrome_trace(workload)
        units = {m.name: m.unit for m in definitions.PER_LAYER}
    else:
        summary = stats.summarize_kinds(samples, bench.weights, *speed)
        values = {
            # Each set-up at the speed its own warm-up pass probed.
            "setup_s": IMPORT_SECONDS / stats.median(setup_speeds)
            + stats.median(
                [spent / speed for spent, speed in zip(setups, setup_speeds)]
            ),
            "pass_ms": summary["pass_ms"],
            "op_ms_geomean": summary["op_ms_geomean"],
            "ops_per_s": bench.ops_per_s(
                summary, sum(map(len, samples.values())), wall
            ),
            "peak_rss_mb": peak_rss_mib(),
        }
        record["speed"] = {"quiet": speed[0], "typical": speed[1]}
        record["uncorrected"] = stats.summarize_kinds(samples, bench.weights)
        record["counts"] = counts
        units = {m.name: m.unit for m in definitions.END_TO_END}
    record["kinds"] = kind_rows(samples, results)
    record["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    # Last: it starts a child (git), which must not count as memory.
    record["environment"] = environment()
    return record


def kind_rows(
    samples: Dict[str, List[float]], results: List[OpResult]
) -> Dict[str, dict]:
    """One row per kind: quiet time, median, sample count, the modeled
    counts of its ops, and whether every one of them succeeded."""
    latest = {r.kind: r for r in results if r.error is None}
    failed = {r.kind for r in results if r.error is not None}
    return {
        kind: {
            "q10_ms": 1e3 * stats.q10(times) if times else None,
            "median_ms": 1e3 * stats.median(times) if times else None,
            "samples": len(times),
            "modeled_cycles": latest[kind].cycles if times else None,
            "instructions": latest[kind].instructions if times else None,
            "correct": bool(times) and kind not in failed,
        }
        for kind, times in samples.items()
    }


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def print_record(record: dict) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']:g} traced={int(record['traced'])} "
        f"passes={record['passes']} attempted={record['attempted']} "
        f"failed={record['failed']}"
    )
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name, metric in record["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")


def result_line(record: dict) -> str:
    """The object the driver reads from the last line of stdout."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def write_record(record: dict, out: str) -> None:
    """The record as JSON; a traced record's spans go beside it as a
    Chrome trace (``<out>.trace.json``)."""
    record = dict(record)
    trace = record.pop("trace", None)
    path = pathlib.Path(out)
    if trace is not None:
        trace_path = path.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(trace))
        record["trace_file"] = trace_path.name
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload ``--runs`` times, each run in a process of its
    own (peak memory is per process), seeds ``--seed``, ``--seed``+1,
    ...; the records go to ``--out`` as one JSON list."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    records = []
    for run in range(args.runs):
        for workload in definitions.WORKLOADS:
            handle, path = tempfile.mkstemp(suffix=".json", dir=SCRATCH_ROOT)
            os.close(handle)
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed + run),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", path,
            ]
            try:
                completed = subprocess.run(command, timeout=900)
                if completed.returncode != 0:
                    return completed.returncode
                record = json.loads(pathlib.Path(path).read_text())
            finally:
                for leftover in (path, path[: -len(".json")] + ".trace.json"):
                    if os.path.exists(leftover):
                        os.remove(leftover)
            record.pop("trace_file", None)
            records.append(record)
    if not any(SCRATCH_ROOT.iterdir()):
        SCRATCH_ROOT.rmdir()
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(record["correct"] for record in records) else 1


def selfcheck(seed: int) -> int:
    """One pass of each exec workload, twice over: the exact counts
    must repeat, and the two backends must model the same cycles."""
    counted: Dict[str, List[Dict[str, int]]] = {}
    for workload, parameters in EXEC_WORKLOADS.items():
        for _ in range(2):
            bench = WarmExec(*parameters, seed)
            bench.set_up()  # its warm-up pass is the pass checked
            counted.setdefault(workload, []).append(bench.counts())
            bench.tear_down()
    problems = []
    for workload, (first, second) in counted.items():
        for name in first:
            status = "repeats" if first[name] == second[name] else "DIFFERS"
            print(f"{workload:<16} {name:<22} {first[name]:>12} {status}")
            if first[name] != second[name]:
                problems.append(f"{workload} {name}: {first[name]} then {second[name]}")
    for family in ("uniform", "yield"):
        closure = counted[f"{family}_closure"][0]["modeled_cycles"]
        array = counted[f"{family}_array"][0]["modeled_cycles"]
        status = "equal" if closure == array else "DIFFER"
        print(f"{family}_closure vs {family}_array modeled_cycles {status}")
        if closure != array:
            problems.append(
                f"{family}: closure models {closure} cycles, array {array}"
            )
    for problem in problems:
        print(f"selfcheck FAILED: {problem}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(definitions.WORKLOADS))
    which.add_argument("--all", action="store_true")
    which.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument(
        "--seconds", "--duration", type=float,
        default=definitions.RUN_SECONDS,
        help="measured time of one run (default %(default)s)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="record spans and print the per-layer metrics",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="with --all: runs per workload, each with the next seed",
    )
    parser.add_argument("--out", help="write the JSON record(s) here")
    args = parser.parse_args(argv)

    # The environment must not pick backends, caches or state
    # directories for the system under test.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.all:
        return run_all(args)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        keep_trace=bool(args.out),
    )
    print_record(record)
    if args.out:
        write_record(record, args.out)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
