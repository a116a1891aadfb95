"""What cleaning once per kernel must leave equal, and what it finds.

    python3 record.py digests <checkout>   # printed IR per (config, app)
    python3 record.py census <checkout>    # what CSE/DCE find after the pipeline
    python3 record.py counts <checkout>    # modeled counters + output bytes
    python3 record.py stages <checkout>    # compile time per pipeline stage

Both run the 43 apps on a fresh Device per app under the four
configurations of ``benchmarks/results/ir_shape/digest.py`` (``register_
module`` + ``warm()``, widths 1/2/4).

``digests`` prints one line per (configuration, app): the
specializations, their static instruction count and a sha256 over
``print_function`` of each. Diff two checkouts' outputs: a moved row
with an equal count is a reordering or renaming, not more code.

``census`` runs the full ``eliminate_common_subexpressions`` and
``eliminate_dead_code`` once more on every compiled specialization and
prints, per configuration, the instruction count, what each found, and
the instruction objects they replaced or removed (by class and width).

``counts`` is ``benchmarks/results/spill_restore/record.py counts``
(43 apps at scale 0.25, results checked: a sha256 of every
``LaunchStatistics`` counter and of the guest arena) without the
translation cache's per-stage record, whose stage names and change
counts are what moving CSE and DCE changes by design.

``stages`` registers and warms each app on a fresh default Device and
sums ``CacheStatistics.stage_seconds`` over the 43; it prints, per
stage, the least of five such rounds and the changes the stage made.
"""

import collections
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(sys.argv[2], "src"))
for name in list(os.environ):
    if name.startswith("REPRO_"):
        del os.environ[name]

from repro import Device  # noqa: E402
from repro.ir.printer import print_function  # noqa: E402
from repro.runtime.config import ExecutionConfig, static_tie_config  # noqa: E402
from repro.transforms import (  # noqa: E402
    eliminate_common_subexpressions,
    eliminate_dead_code,
)
from repro.workloads.registry import all_workloads  # noqa: E402

CONFIGS = {
    "default": ExecutionConfig(),
    "optimize=False": ExecutionConfig(optimize=False),
    "meld": ExecutionConfig(meld=True),
    "static+TIE+vector_memory": static_tie_config(4, vector_memory=True),
}


def specializations(config):
    """``(app, [(key, IR function)])`` per app, compiled under ``config``."""
    for workload in all_workloads():
        device = Device(config=config)
        device.register_module(workload.module_source())
        device.warm()
        yield workload.name, [
            (key, device.cache.get(*key).function)
            for key in device.cache.cached_specializations()
        ]


def digests():
    for label, config in CONFIGS.items():
        for app, compiled in specializations(config):
            digest = hashlib.sha256()
            for key, function in compiled:
                digest.update(f"{key}\n{print_function(function)}".encode())
            count = sum(function.instruction_count() for _, function in compiled)
            print(f"{label} {app} specializations={len(compiled)} "
                  f"instructions={count} ir={digest.hexdigest()[:16]}")


def census():
    for label, config in CONFIGS.items():
        found = collections.Counter()
        removed = collections.Counter()
        instructions = 0
        for _, compiled in specializations(config):
            for (_, width), function in compiled:
                instructions += function.instruction_count()
                before = {id(i): i for i in function.instructions()}
                found["cse"] += eliminate_common_subexpressions(function)
                found["dce"] += eliminate_dead_code(function)
                kept = {id(i) for i in function.instructions()}
                for key, instruction in before.items():
                    if key not in kept:
                        removed[type(instruction).__name__, width] += 1
        print(f"{label} instructions={instructions} cse={found['cse']} "
              f"dce={found['dce']} removed={dict(sorted(removed.items()))}")


def modeled(value):
    """``value`` without its host-time fields and stage record."""
    if isinstance(value, dict):
        return {
            key: modeled(item) for key, item in sorted(value.items())
            if "second" not in str(key) and key != "stage_changes"
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


def stages():
    sources = [workload.module_source() for workload in all_workloads()]
    best, changes = {}, collections.Counter()
    for round_ in range(5):
        seconds = collections.Counter()
        for source in sources:
            device = Device(config=CONFIGS["default"])
            device.register_module(source)
            device.warm()
            seconds.update(device.cache.statistics.stage_seconds)
            if not round_:
                changes.update(device.cache.statistics.stage_changes)
        for stage, spent in seconds.items():
            best[stage] = min(best.get(stage, spent), spent)
    total = sum(best.values())
    for stage, spent in best.items():
        print(f"{stage:18s} {1e3 * spent:7.1f} ms {100 * spent / total:4.0f} %"
              f"  changes={changes[stage]}")
    print(f"{'total':18s} {1e3 * total:7.1f} ms")


{"digests": digests, "census": census, "counts": counts,
 "stages": stages}[sys.argv[1]]()
