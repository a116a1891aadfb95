"""Interleaved passes of one in-process workload on two checkouts.

    python3 interleave.py <parent checkout> <change checkout> <workload> <passes>

Starts one long-lived process per checkout (each imports that
checkout's ``src/`` and ``benchmarks/perf``), sets up the workload's
warm Devices once (``inproc.WarmExec``, seed 2012), then has the two
take turns, one whole pass each, the side going first alternating.
A pass is timed by the wall clock less the speed probes ``run_pass``
takes after every op. Prints both medians, the median of the paired
ratios change/parent and how many pairs the change won. ``workload``
is one of ``run.EXEC_WORKLOADS`` (not ``cold_compile`` or
``serve_small``).
"""

import os
import random
import statistics
import subprocess
import sys
import time


def worker(workload: str) -> None:
    checkout = os.getcwd()
    sys.path[:0] = [
        os.path.join(checkout, "src"),
        os.path.join(checkout, "benchmarks", "perf"),
    ]
    import run
    from inproc import WarmExec

    bench = WarmExec(*run.EXEC_WORKLOADS[workload], 2012)
    bench.set_up()
    rng = random.Random(7)
    print("ready", flush=True)
    for _ in sys.stdin:
        order = list(bench.kinds)
        rng.shuffle(order)
        start = time.perf_counter()
        bench.run_pass(order)
        seconds = time.perf_counter() - start
        seconds -= sum(bench.probes[-len(order):])
        print(f"{seconds * 1e3:.3f}", flush=True)


def driver(parent: str, change: str, workload: str, passes: int) -> None:
    sides = {}
    for side, checkout in (("parent", parent), ("change", change)):
        sides[side] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", workload],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        if sides[side].stdout.readline().strip() != "ready":
            raise SystemExit(f"{side}: the worker did not start")
    times = {"parent": [], "change": []}
    for turn in range(passes):
        order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].stdin.write("pass\n")
            sides[side].stdin.flush()
            times[side].append(float(sides[side].stdout.readline()))
    for process in sides.values():
        process.stdin.close()
        process.wait(timeout=60)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    print(
        f"{workload}: parent median {statistics.median(times['parent']):.1f} ms, "
        f"change median {statistics.median(times['change']):.1f} ms, "
        f"paired ratio {statistics.median(ratios):.3f}, "
        f"change faster in {sum(r < 1 for r in ratios)}/{len(ratios)}"
    )


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        worker(sys.argv[2])
    else:
        driver(
            os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2]),
            sys.argv[3], int(sys.argv[4]),
        )
