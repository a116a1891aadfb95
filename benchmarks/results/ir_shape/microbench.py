"""Per-call cost of the three helpers on the compile path, over the
instructions of every width-4 specialization of the 43 apps:

    PYTHONPATH=src python benchmarks/results/ir_shape/microbench.py
"""

from time import perf_counter

from repro import Device
from repro.ir.instructions import VECTORIZABLE
from repro.transforms.cse import _expression_key
from repro.workloads.registry import all_workloads

try:  # the parent commit's spelling of the clone
    from repro.transforms.vectorize import _clone_with
except ImportError:
    def _clone_with(instruction, dst, operands):
        return instruction.rebuilt(dst, operands)


def best(function, items, repeats=7):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for item in items:
            function(item)
        times.append(perf_counter() - start)
    return min(times) / len(items) * 1e6


def main():
    instructions = []
    for workload in all_workloads():
        device = Device()
        device.register_module(workload.module_source())
        device.warm()
        for name, width in device.cache.cached_specializations():
            if width == 4:
                function = device.cache.get(name, width).function
                instructions.extend(function.instructions())
    pure = [i for i in instructions if isinstance(i, VECTORIZABLE)]
    keyed = [i for i in instructions if _expression_key(i) is not None]
    print(
        f"{len(instructions)} instructions, {len(keyed)} with a CSE key, "
        f"{len(pure)} vectorizable"
    )
    print(f"uses()      {best(lambda i: i.uses(), instructions):.3f} us")
    print(f"CSE key     {best(_expression_key, keyed):.3f} us")
    print(
        "clone       "
        f"{best(lambda i: _clone_with(i, i.dst, i.uses()), pure):.3f} us"
    )


if __name__ == "__main__":
    main()
