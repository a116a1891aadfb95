"""Hash the IR text and register numbering of every specialization of
the registered apps under several configurations.

    python3 same_program.py <repo> [--dump DIR]

Prints one sha256 per configuration plus instruction totals; with
``--dump`` writes one text file per (config, app) so two sides can be
diffed line by line.
"""

import hashlib
import os
import sys
from dataclasses import replace

repo = sys.argv[1]
sys.path.insert(0, os.path.join(repo, "src"))
for name in list(os.environ):
    if name.startswith("REPRO_"):
        del os.environ[name]

from repro import Device, vectorized_config  # noqa: E402
from repro.runtime.config import static_tie_config  # noqa: E402
from repro.workloads.registry import all_workloads  # noqa: E402

dump = None
if "--dump" in sys.argv:
    dump = sys.argv[sys.argv.index("--dump") + 1]
    os.makedirs(dump, exist_ok=True)

base = vectorized_config(4)
CONFIGS = {
    "default": base,
    "meld": replace(base, meld=True),
    "noopt": replace(base, optimize=False),
    "static_tie_vmem": static_tie_config(4, vector_memory=True),
}

for label, config in CONFIGS.items():
    digest = hashlib.sha256()
    instructions = 0
    specializations = 0
    for registered in all_workloads():
        app = type(registered)()
        device = Device(config=config)
        device.register_module(app.module_source())
        device.warm()
        lines = []
        for name, ws in device.cache.cached_specializations():
            executable = device.cache.get(name, ws)
            function = executable.function
            text = str(function)
            slots = repr([  # (name, slot): first-appearance numbering
                (register.name, slot)
                for slot, register in enumerate(function.registers())
            ])
            extra = repr((
                sorted(function.entry_points.items()),
                sorted(function.spill_slots.items()),
                function.spill_size,
                sorted(function.restore_counts.items()),
                [
                    (block.label, index)
                    for block in function.ordered_blocks()
                    for index, instruction in enumerate(block)
                    if getattr(instruction, "overhead", False)
                ],
            ))
            lines.append(f"## {name} ws={ws}\n{text}\n{slots}\n{extra}\n")
            instructions += function.instruction_count()
            specializations += 1
        blob = "".join(lines)
        digest.update(blob.encode())
        if dump:
            with open(os.path.join(dump, f"{label}.{app.name}.txt"), "w") as f:
                f.write(blob)
    print(f"{label:16s} {digest.hexdigest()} specs={specializations} "
          f"instr={instructions}")
