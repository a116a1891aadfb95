"""The persistent tier's entry name of every specialization.

    python3 entry_names.py <checkout>

Prints one line per (configuration, app, kernel, warp size): the
``TranslationCache.specialization_digest`` the disk tier files that
specialization under, for a fresh Device per app under the default
configuration, melding, and static + TIE + vector memory. Two
checkouts that print the same lines read each other's cache entries.
"""

import os
import sys

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
for name in list(os.environ):
    if name.startswith("REPRO_"):
        del os.environ[name]

from repro import Device  # noqa: E402
from repro.runtime.config import ExecutionConfig, static_tie_config  # noqa: E402
from repro.workloads.registry import all_workloads  # noqa: E402

CONFIGS = {
    "default": ExecutionConfig(),
    "meld": ExecutionConfig(meld=True),
    "static+TIE+vector_memory": static_tie_config(4, vector_memory=True),
}

for label, config in CONFIGS.items():
    for workload in all_workloads():
        device = Device(config=config)
        module = device.register_module(workload.module_source())
        for kernel in sorted(module.kernels):
            for width in config.warp_sizes:
                digest = device.cache.specialization_digest(kernel, width)
                print(f"{label} {workload.name} {kernel} ws={width} {digest}")
