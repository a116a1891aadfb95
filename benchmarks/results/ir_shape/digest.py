"""One sha256 over the printed IR of every specialization the 43 apps
compile under four configurations (528 specializations):

    PYTHONPATH=src python benchmarks/results/ir_shape/digest.py
"""

import hashlib

from repro import Device
from repro.ir.printer import print_function
from repro.runtime.config import ExecutionConfig, static_tie_config
from repro.workloads.registry import all_workloads

CONFIGS = {
    "default": ExecutionConfig(),
    "optimize=False": ExecutionConfig(optimize=False),
    "meld": ExecutionConfig(meld=True),
    "static+TIE+vector_memory": static_tie_config(4, vector_memory=True),
}


def main():
    digest = hashlib.sha256()
    count = 0
    for name, config in CONFIGS.items():
        for workload in all_workloads():
            device = Device(config=config)
            device.register_module(workload.module_source())
            device.warm()
            for key in device.cache.cached_specializations():
                text = print_function(device.cache.get(*key).function)
                digest.update(f"{name}/{workload.name}/{key}\n".encode())
                digest.update(text.encode())
                count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
