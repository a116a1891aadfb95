"""What a change to the yield handlers' moves must leave equal, and
what it shrinks.

    python3 record.py counts <checkout>    # modeled counters + output bytes
    python3 record.py objects <checkout>   # IR instruction objects per width
    python3 record.py pairs <parent.jsonl> <change.jsonl>

``counts`` runs the 43 apps (scale 0.25, results checked) on a fresh
Device per app under four configurations and prints one line per
(configuration, app): a sha256 of every ``LaunchStatistics`` counter of
every launch (host-time fields dropped) and of the whole guest arena
after the run. Two checkouts are equal when the outputs are.

``objects`` warms every app under the default configuration and prints,
per warp width, the instruction objects the blocks hold (terminators
included), the static instruction count (``instruction_count()``, which
counts a lane group as its lane operations) and the objects flagged
``overhead``.

``pairs`` summarizes the runs ``pairs.sh`` appended (one
``benchmarks/perf/run.py`` result line per run, tagged with its seed):
per end-to-end metric, each side's median and quartiles and in how many
pairs the change reads better.
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import statistics

mode = sys.argv[1]
if mode != "pairs":
    sys.path.insert(0, os.path.join(sys.argv[2], "src"))
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]

    from repro import Device, vectorized_config
    from repro.runtime.config import static_tie_config
    from repro.workloads.registry import all_workloads

    base = vectorized_config(4)
    CONFIGS = {
        "default": base,
        "meld": replace(base, meld=True),
        "noopt": replace(base, optimize=False),
        "static_tie_vmem": static_tie_config(4, vector_memory=True),
    }

#: End-to-end metrics and the sign of "better".
BETTER = {"setup_s": -1, "pass_ms": -1, "op_ms_geomean": -1,
          "ops_per_s": 1, "peak_rss_mb": -1}


def modeled(value):
    """``value`` without its host-time fields."""
    if isinstance(value, dict):
        return {
            key: modeled(item) for key, item in sorted(value.items())
            if "second" not in str(key)
        }
    if isinstance(value, list):
        return [modeled(item) for item in value]
    return value


def counts():
    for label, config in CONFIGS.items():
        for registered in all_workloads():
            app = type(registered)()
            device = Device(config=config)
            app.prepare(device)
            run = app.execute(device, scale=0.25, check=True)
            counters = [
                modeled(launch.statistics.as_dict()) for launch in run.launches
            ]
            blob = json.dumps(counters, sort_keys=True, default=str)
            memory = hashlib.sha256(device.memory.data.tobytes()).hexdigest()
            stats = hashlib.sha256(blob.encode()).hexdigest()
            print(f"{label} {app.name} launches={len(counters)} "
                  f"statistics={stats[:16]} memory={memory[:16]}")


def objects():
    totals = {}
    for registered in all_workloads():
        device = Device(config=base)
        device.register_module(registered.module_source())
        device.warm()
        for name, ws in device.cache.cached_specializations():
            function = device.cache.get(name, ws).function
            row = totals.setdefault(ws, [0, 0, 0, 0])
            row[0] += 1
            for block in function.ordered_blocks():
                row[1] += len(block)
                row[3] += sum(
                    getattr(i, "overhead", False)
                    for i in block.all_instructions()
                )
            row[2] += function.instruction_count()
    print("width specializations objects instruction_count overhead_objects")
    for ws, row in sorted(totals.items()):
        print(ws, *row)
    print("all", *(sum(row[k] for row in totals.values()) for k in range(4)))


def pairs():
    sides = [
        {run["seed"]: run for run in map(json.loads, open(path))}
        for path in sys.argv[2:4]
    ]
    seeds = sorted(set(sides[0]) & set(sides[1]))
    print(f"{len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    for metric, sign in BETTER.items():
        parent, change = (
            [side[seed]["metrics"][metric]["value"] for seed in seeds]
            for side in sides
        )
        wins = sum((c - p) * sign > 0 for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = (
            statistics.quantiles(values, n=4, method="inclusive")
            for values in (parent, change)
        )
        print(f"{metric:14s} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {c2:.4g} [{c1:.4g}, {c3:.4g}]  "
              f"change/parent {c2 / p2:.3f}  change better {wins}/{len(seeds)}")
    for name, side in zip(("parent", "change"), sides):
        failed = sum(side[seed]["failed"] for seed in seeds)
        attempted = sum(side[seed]["attempted"] for seed in seeds)
        print(f"{name}: {failed} failed of {attempted} ops")


{"counts": counts, "objects": objects, "pairs": pairs}[mode]()
