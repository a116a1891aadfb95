#!/usr/bin/env python
"""Hot blocks: where the generated code of an app spends host time.

The executor lowers a basic block when a warp first enters it: to one
Python function for the sequential path
(``ExecutableFunction.blocks(access)``), and to one function over all
warps of a batch when a batch enters it
(``ExecutableFunction.array_blocks``).
This script wraps both *as their table entries are created* — from
outside, nothing under ``src/`` knows — to count entries and host time
per block on each path, runs the app, and prints per kernel

- the hottest blocks of both paths in one ranking: label, path (``seq``
  or ``batch``), entries, warps served per entry, instructions per
  entry, µs per entry, share of the kernel's generated-code time, and
  whether the block is handler or body — handler when most of its
  instructions are what the vectorizer added to yield (scheduler,
  entry and exit handlers: spill, restore, resume-point bookkeeping);
- the dynamic opcode mix (warp-instructions executed, by opcode);

and, over every block measured, what one instruction of each opcode
costs on each path: a non-negative least-squares fit of per-block host
time on block composition (plus one term per block entry) — per
warp-instruction for ``seq`` blocks, per batched op whatever the batch
size for ``batch`` blocks. With few distinct blocks the fit is loose —
name several apps, or ``all``, to pool them.

What the batches did is a second table, per kernel and entry point,
from a wrapper around ``ArrayBackend.execute_batch``: batches, warps,
instructions and µs per batch, how many reached their yield and how
many left through continuations, and how many formation opportunities
the executable's admission record still refuses there. The wrappers
cost ≈ 0.2 µs an entry and hide the block from the trap PC lookup, so
this is a measuring script, not a mode.

``--lowering`` prints instead what lowering costs a first launch —
the part of the benchmark's ``setup_s`` no span shows: per app, on a
compiled Device (as the benchmark sets one up), over its first run,
and per path, the blocks printed, their source lines and the seconds
Python's ``compile()`` took for them.

``--batch-sizes`` prints instead the measurement ``MIN_BATCH_WARPS``
(``machine/array_backend.py``) is set from: every app run once with
every batch refused and once with batches of two warps up admitted,
``execute`` and ``execute_batch`` timed — host µs per warp-instruction
on the sequential path, and by batch size for batches that reached
their yield and for those that left early.

``--manager`` prints instead what the execution manager costs the host
around the generated code: per app, over five timed runs on a compiled
Device after two warm-up runs, the median of each column — µs per warp
execution of each manager step — pop/form (the
ready pool's pop and warp formation), cache lookup, accounting (the
warp's statistics and the execution call around the generated code),
yield handling, barrier release, batch formation, opening a window
(its slabs cleared, its threads' contexts built) and the rest of the
window loop — beside the generated code's own µs per warp execution,
of which ``contexts`` is a batch's context arrays (``_BatchState.
per_thread``), and how the batches were cut: ``execute_batch`` calls
per launch and warps per call (a launch's opening round is one call
across workers).
Each step is the self time of wrappers installed on the manager's
methods at class level, less what a wrapper costs the step that
calls it (the median of nine measurements on an empty function).

Run:  python examples/hot_blocks.py Collatz
      python examples/hot_blocks.py BitonicSort Reduction --scale 0.25
      python examples/hot_blocks.py all --top 3
      python examples/hot_blocks.py all --batch-sizes
      python examples/hot_blocks.py all --lowering
      python examples/hot_blocks.py all --manager
"""

import argparse
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from repro import Device, vectorized_config
from repro.ir import instructions as ir
from repro.machine import interpreter as lowering
from repro.machine.array_backend import ArrayBackend, _ArrayBlocks, _BatchState
from repro.runtime.execution_manager import ExecutionManager, _ReadyPool
from repro.runtime.launcher import KernelLauncher
from repro.runtime.translation_cache import TranslationCache
from repro.workloads.registry import get_workload, workload_names

_MEMORY = (ir.Load, ir.Store, ir.AtomicRMW)
_NAMES = {
    ir.FusedMultiplyAdd: "fma", ir.Compare: "cmp", ir.Select: "select",
    ir.Convert: "convert", ir.ContextRead: "ctx.read",
    ir.ContextWrite: "ctx.write", ir.Broadcast: "broadcast",
    ir.Reduce: "reduce", ir.Branch: "br", ir.CondBranch: "cbr",
    ir.Switch: "switch", ir.Yield: "yield", ir.Exit: "exit",
}


def opcode(instruction) -> str:
    if isinstance(instruction, _MEMORY):
        kind = type(instruction).__name__.lower().replace("rmw", "")
        if instruction.contiguous:  # one vector access
            kind = f"v{kind}"
        return f"{kind}.{instruction.space.value}"
    if isinstance(instruction, (ir.BinaryOp, ir.UnaryOp)):
        return instruction.op
    if isinstance(instruction, ir.Intrinsic):
        return instruction.name
    return _NAMES.get(type(instruction), type(instruction).__name__)


class BlockRecord:
    """Entries and host seconds of one lowered block on one path."""

    def __init__(self, function, label, batched=False):
        block = function.blocks[label]
        self.kernel = f"{function.name}/ws{function.warp_size}"
        self.label = label
        self.path = "batch" if batched else "seq"
        self.opcodes = Counter(map(opcode, block.all_instructions()))
        self.instructions = sum(self.opcodes.values())
        overhead = sum(
            getattr(instruction, "overhead", False)
            for instruction in block.all_instructions()
        )
        self.handler = 2 * overhead > self.instructions
        self.entries = 0
        #: warps served, over all entries (one each on the ``seq`` path)
        self.warps = 0
        self.seconds = 0.0


def install(records: list) -> None:
    """Wrap every block lowered from now on. Both paths fill the same
    kind of table, ``label -> (function, *static costs)``; the batched
    one is the table of access template ``"batch"``."""
    lower = lowering._BlockTable.__missing__

    def measured(table, label):
        code, *costs = lower(table, label)
        batched = table.access == "batch"
        record = BlockRecord(table.executable.function, label, batched)
        records.append(record)

        def block(state):
            start = perf_counter()
            try:
                return code(state)
            finally:
                record.seconds += perf_counter() - start
                record.entries += 1
                record.warps += state.size if batched else 1

        entry = table[label] = (block, *costs)
        return entry

    lowering._BlockTable.__missing__ = measured


class BatchRecord:
    """What the batches from one entry point of one executable did."""

    def __init__(self, executable, entry_point):
        self.kernel = f"{executable.name}/ws{executable.warp_size}"
        self.entry_point = entry_point
        self.label = executable.function.entry_points.get(entry_point, "?")
        self.admission = executable.array_blocks.outcomes
        self.batches = self.warps = self.instructions = 0
        self.completed = self.aborted = 0
        self.seconds = 0.0

    @property
    def refused(self) -> int:
        return self.admission.get(self.entry_point, (0, 0))[1]


def install_batches(records: dict) -> None:
    """Wrap ``ArrayBackend.execute_batch``; ``records`` fills per
    (executable, entry point)."""
    run = ArrayBackend.execute_batch

    def measured(backend, executable, warps, *args, **kwargs):
        entry_point = warps[0].entry_point
        start = perf_counter()
        outcome = run(backend, executable, warps, *args, **kwargs)
        seconds = perf_counter() - start
        key = (id(executable), entry_point)
        record = records.get(key)
        if record is None:
            record = records[key] = BatchRecord(executable, entry_point)
        record.batches += 1
        record.warps += len(warps)
        record.seconds += seconds
        if outcome.kind == "yield":
            record.completed += 1
        else:
            record.aborted += outcome.conclusive
        record.instructions += outcome.stats.instructions
        return outcome

    ArrayBackend.execute_batch = measured


def report_batches(records: list) -> None:
    by_kernel = defaultdict(list)
    for record in records:
        by_kernel[record.kernel].append(record)
    for kernel, entries in sorted(by_kernel.items()):
        print(f"\n== {kernel}: batches by entry point ==")
        print(
            f"  {'entry':<28}{'batches':>8}{'warps':>7}{'instr':>7}"
            f"{'us/batch':>10}{'done':>6}{'aborted':>8}{'refusing':>9}"
        )
        for entry in sorted(entries, key=lambda entry: entry.entry_point):
            name = f"{entry.entry_point} {entry.label}"
            print(
                f"  {name:<28}{entry.batches:>8}{entry.warps:>7}"
                f"{entry.instructions / max(entry.batches, 1):>7.0f}"
                f"{1e6 * entry.seconds / max(entry.batches, 1):>10.1f}"
                f"{entry.completed:>6}{entry.aborted:>8}{entry.refused:>9}"
            )


def non_negative_fit(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares with coefficients >= 0 (Lawson-Hanson active set:
    free the coefficient the residual pulls hardest, solve over the
    free ones, step back to the boundary whenever one turns negative)."""
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    scaled = design / scale
    count = design.shape[1]
    solution = np.zeros(count)
    free = np.zeros(count, dtype=bool)
    for _ in range(3 * count):
        pull = scaled.T @ (target - scaled @ solution)
        pull[free] = -np.inf
        candidate = int(np.argmax(pull))
        if pull[candidate] <= 1e-12 * max(target.max(), 1e-300):
            break
        free[candidate] = True
        while True:
            trial = np.zeros(count)
            trial[free] = np.linalg.lstsq(
                scaled[:, free], target, rcond=None
            )[0]
            negative = free & (trial <= 0)
            if not negative.any():
                break
            step = (
                solution[negative] / (solution[negative] - trial[negative])
            ).min()
            solution += step * (trial - solution)
            free &= solution > 1e-15
            solution[~free] = 0.0
        solution = trial
    return solution / scale


def report_kernels(records: list, top: int) -> None:
    by_kernel = defaultdict(list)
    for record in records:
        if record.entries:
            by_kernel[record.kernel].append(record)
    for kernel, blocks in sorted(by_kernel.items()):
        total = sum(block.seconds for block in blocks)
        batched = sum(b.seconds for b in blocks if b.path == "batch")
        executed = sum(block.warps * block.instructions for block in blocks)
        print(
            f"\n== {kernel}: {1e3 * total:.1f} ms in generated code "
            f"({1e3 * batched:.1f} batched), {executed} warp-instructions, "
            f"{executed / total / 1e3:.0f} kinstr/s =="
        )
        print(
            f"  {'block':<28}{'path':>6}{'entries':>8}{'warps':>7}"
            f"{'instr':>7}{'us/entry':>10}{'share':>7}  kind"
        )
        blocks.sort(key=lambda block: -block.seconds)
        for block in blocks[:top]:
            print(
                f"  {block.label:<28}{block.path:>6}{block.entries:>8}"
                f"{block.warps / block.entries:>7.0f}"
                f"{block.instructions:>7}"
                f"{1e6 * block.seconds / block.entries:>10.1f}"
                f"{block.seconds / total:>7.0%}  "
                f"{'handler' if block.handler else 'body'}"
            )
        mix = Counter()
        for block in blocks:
            for name, count in block.opcodes.items():
                mix[name] += count * block.warps
        handler = sum(
            block.warps * block.instructions
            for block in blocks if block.handler
        )
        print(
            f"  opcode mix ({handler / executed:.0%} of the instructions "
            f"are in handlers): "
            + ", ".join(
                f"{name} {count / executed:.1%}"
                for name, count in mix.most_common(8)
            )
        )


def report_fit(records: list, path: str, unit: str) -> None:
    measured = [r for r in records if r.entries and r.path == path]
    if not measured:
        return
    names = sorted({name for record in measured for name in record.opcodes})
    design = np.array([
        [record.entries * record.opcodes[name] for name in names]
        + [record.entries]
        for record in measured
    ], dtype=float)
    seconds = np.array([record.seconds for record in measured])
    cost = non_negative_fit(design, seconds)
    explained = 1 - np.abs(design @ cost - seconds).sum() / seconds.sum()
    print(
        f"\n== per-opcode host cost, {path} path ({unit}), fitted over "
        f"{len(measured)} blocks ({explained:.0%} of "
        f"{1e3 * seconds.sum():.1f} ms explained) =="
    )
    print(f"  {'opcode':<18}{'executed':>10}{'us each':>9}{'ms':>8}")
    rows = sorted(
        zip(names + ["(block entry)"], design.sum(axis=0), cost),
        key=lambda row: -row[1] * row[2],
    )
    for name, count, each in rows:
        if count * each > 0:
            print(
                f"  {name:<18}{int(count):>10}{1e6 * each:>9.2f}"
                f"{1e3 * count * each:>8.1f}"
            )


_SIZES = (2, 4, 8, 16, 32, 64)


def batch_sizes(names: list, scale: float) -> None:
    """What a warp-instruction costs the host one warp at a time and in
    batches of each size (see the module docstring)."""
    from repro.runtime import execution_manager

    #: (path, smallest batch size of the row) -> [calls,
    #: warp-instructions, seconds]; filled, for the ``path`` being
    #: measured, while ``recording``
    rows = defaultdict(lambda: [0, 0, 0.0])
    path, recording = None, False
    run_batch, run_warp = ArrayBackend.execute_batch, ArrayBackend.execute

    def batch(backend, executable, warps, *args, **kwargs):
        start = perf_counter()
        outcome = run_batch(backend, executable, warps, *args, **kwargs)
        seconds = perf_counter() - start
        if recording and path == "batched":
            size = max(size for size in _SIZES if size <= len(warps))
            kind = "completed" if outcome.kind == "yield" else "left early"
            row = rows[kind, size]
            row[1] += len(warps) * outcome.stats.instructions
            row[0] += 1
            row[2] += seconds
        return outcome

    def warp(backend, executable, warp, param_base, stats=None, state=None,
             continuation=None):
        start = perf_counter()
        status = run_warp(
            backend, executable, warp, param_base, stats, state, continuation
        )
        if recording and path == "sequential":
            row = rows["sequential", 1]
            row[0] += 1
            row[1] += state.stats.instructions
            row[2] += perf_counter() - start
        return status

    ArrayBackend.execute_batch, ArrayBackend.execute = batch, warp
    admits = _ArrayBlocks.admits
    for name in names:
        app = get_workload(name)
        for path in ("sequential", "batched"):
            if path == "sequential":
                _ArrayBlocks.admits = lambda blocks, entry_point: False
            else:
                _ArrayBlocks.admits = admits
                execution_manager.MIN_BATCH_WARPS = 2
            device = Device(config=vectorized_config(4))
            device.register_module(app.module_source())
            device.warm()
            # The first run lowers what it enters; the second counts.
            app.execute(device, scale, check=True)
            recording = True
            app.execute(device, scale, check=True)
            recording = False
    print(
        f"  {'path':<12}{'warps':>6}{'calls':>8}{'warp-instr':>12}"
        f"{'us each':>9}"
    )
    for (path, size), (calls, executed, seconds) in sorted(rows.items()):
        warps = f"{size}+" if size > 1 else "1"
        print(
            f"  {path:<12}{warps:>6}{calls:>8}{executed:>12}"
            f"{1e6 * seconds / max(executed, 1):>9.2f}"
        )


#: Step -> the methods whose self time it sums (the generated code's
#: steps are ``_CODE_STEPS``, the others the manager's); a method the
#: checkout does not have is skipped, so the parent's per-thread pool
#: and its formation and yield methods are measured too. The pool's
#: appends are yield handling wherever they come from (a branch, a
#: released barrier, extras handed back).
_STEPS = {
    "pop/form": (
        (_ReadyPool, "pop_ran"),
        (_ReadyPool, "pop_group"),
        (ExecutionManager, "_form_warp"),
        (ExecutionManager, "_form_static"),
    ),
    "lookup": ((TranslationCache, "get"),),
    "accounting": (
        (ExecutionManager, "_run_warp"),
        (ExecutionManager, "_execute_warp"),
        (ExecutionManager, "_flush"),
    ),
    "yield": (
        (_ReadyPool, "push"),
        (ExecutionManager, "_park_across"),
        (ExecutionManager, "_handle_yield"),
    ),
    "barrier": ((ExecutionManager, "_maybe_release_barrier"),),
    "batch": (
        (ExecutionManager, "_execute_batch_round"),
        (ExecutionManager, "_batch_warps"),
        (ExecutionManager, "_file_batch"),
        (ExecutionManager, "_opening"),
        (KernelLauncher, "_opening_round"),
        (_ReadyPool, "head_batch"),
        (_ReadyPool, "take_batch"),
    ),
    "window": ((ExecutionManager, "_open_window"),),
    "loop": ((ExecutionManager, "run"),),
    "contexts": ((_BatchState, "per_thread"),),
    "code": ((ArrayBackend, "execute"), (ArrayBackend, "execute_batch")),
}
#: The steps inside the generated code's time, summed as ``code``.
_CODE_STEPS = ("contexts", "code")
_MANAGER_STEPS = [step for step in _STEPS if step not in _CODE_STEPS]
#: The steps printed as columns of their own.
_COLUMNS = [step for step in _STEPS if step != "code"]
#: Timed runs per app of ``--manager``; each column prints their median.
_TIMED_RUNS = 5


class StepClock:
    """Self time per step of the wrapped methods: a wrapped call
    inside another is taken out of the outer step's time, with
    ``overhead`` — what one wrapper costs its caller outside the span
    it times — per such call."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.overhead = 0.0
        self._stack = []  # per open call: [child seconds, child calls]

    def wrap(self, function, step: str):
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append([0.0, 0])
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                children, calls = stack.pop()
                self.seconds[step] += spent - children - calls * self.overhead
                if stack:
                    stack[-1][0] += spent
                    stack[-1][1] += 1

        return timed

    def calibrate(self, repeats: int = 20000) -> None:
        """Set ``overhead`` to the median of nine measurements: one
        alone moves by a factor of two from run to run."""
        inner = self.wrap(lambda: None, "calibration")
        outer = self.wrap(lambda: [inner() for _ in range(repeats)], "outer")
        estimates = []
        for _ in range(9):
            bare = perf_counter()
            [(lambda: None)() for _ in range(repeats)]
            bare = perf_counter() - bare
            self.seconds.clear()
            outer()
            estimates.append(max(self.seconds["outer"] - bare, 0.0) / repeats)
        self.overhead = float(np.median(estimates))
        self.seconds.clear()


def manager_costs(names: list, scale: float) -> None:
    """µs per warp execution of each execution-manager step, per app
    (see the module docstring)."""
    clock = StepClock()
    clock.calibrate()
    batches = []  # warps per execute_batch call
    execute_batch = ArrayBackend.execute_batch

    def counted(self, executable, warps, *args, **kwargs):
        batches.append(len(warps))
        return execute_batch(self, executable, warps, *args, **kwargs)

    ArrayBackend.execute_batch = counted
    for step, methods in _STEPS.items():
        for owner, name in methods:
            if hasattr(owner, name):
                setattr(owner, name, clock.wrap(getattr(owner, name), step))
    print(
        f"  wrapper overhead {1e6 * clock.overhead:.2f} us per call, "
        f"taken out; us per warp execution, median of {_TIMED_RUNS} runs:"
    )
    print(
        f"  {'app':<24}{'warps':>6}"
        + "".join(f"{step:>11}" for step in _COLUMNS)
        + f"{'manager':>9}{'code':>8}{'ratio':>7}{'calls':>7}{'w/call':>7}"
    )
    # Per timed run, summed over the apps: seconds, warps, launches,
    # warps per execute_batch call.
    totals = [[Counter(), 0, 0, []] for _ in range(_TIMED_RUNS)]
    for name in names:
        app = get_workload(name)
        device = Device(config=vectorized_config(4))
        device.register_module(app.module_source())
        device.warm()
        # The first runs lower what they enter and give admission its
        # record (an opening round merges at full credit); the timed
        # runs after them count.
        for _ in range(2):
            app.execute(device, scale, check=True)
        rows = []
        for total in totals:
            clock.seconds.clear()
            batches.clear()
            run = app.execute(device, scale, check=True)
            warps = sum(
                launch.statistics.warp_executions for launch in run.launches
            )
            launches = len(run.launches)
            rows.append(
                _manager_columns(clock.seconds, warps, launches, batches)
            )
            total[0].update(clock.seconds)
            total[1] += warps
            total[2] += launches
            total[3] += batches
        _print_manager_row(name, rows)
    _print_manager_row("total", [_manager_columns(*t) for t in totals])


def _manager_columns(seconds, warps: int, launches: int, batches) -> list:
    """One run's ``--manager`` columns: warps, µs per warp execution of
    each step, the manager's sum and the code's, their ratio,
    ``execute_batch`` calls per launch and warps per call."""
    manager = sum(seconds.get(step, 0.0) for step in _MANAGER_STEPS)
    code = sum(seconds.get(step, 0.0) for step in _CODE_STEPS)
    each = 1e6 / max(warps, 1)
    return [
        warps,
        *(each * seconds.get(step, 0.0) for step in _COLUMNS),
        each * manager,
        each * code,
        manager / max(code, 1e-12),
        len(batches) / max(launches, 1),
        sum(batches) / max(len(batches), 1),
    ]


def _print_manager_row(name: str, rows: list) -> None:
    warps, *steps, manager, code, ratio, calls, per_call = np.median(
        rows, axis=0
    )
    print(
        f"  {name:<24}{warps:>6.0f}"
        + "".join(f"{value:>11.2f}" for value in steps)
        + f"{manager:>9.2f}{code:>8.2f}{ratio:>7.2f}{calls:>7.2f}"
        f"{per_call:>7.1f}"
    )


def lowering_costs(names: list, scale: float) -> None:
    """Blocks printed, source lines and ``compile()`` seconds per app
    and path over a first run (see the module docstring)."""
    #: (app, path) -> [blocks, lines, seconds]
    rows = defaultdict(lambda: [0, 0, 0.0])

    def timed(source, filename, mode):
        start = perf_counter()
        code = compile(source, filename, mode)
        row = rows[app, "batch" if filename.endswith(":batch>") else "seq"]
        row[0] += 1
        row[1] += source.count("\n")
        row[2] += perf_counter() - start
        return code

    # The lowering calls ``compile`` by its module-global name.
    lowering.compile = timed
    try:
        for app in names:
            workload = get_workload(app)
            device = Device(config=vectorized_config(4))
            device.register_module(workload.module_source())
            device.warm()
            workload.execute(device, scale, check=True)
    finally:
        del lowering.compile
    print(
        f"  {'app':<26}{'path':>6}{'blocks':>8}{'lines':>9}"
        f"{'compile s':>11}"
    )
    for (_, path), row in list(rows.items()):
        for total in (rows["total", path], rows["total", "all"]):
            total[:] = [sum(pair) for pair in zip(total, row)]
    for app in [*names, "total"]:
        for path in ("seq", "batch", "all"):
            if (app, path) in rows:
                blocks, lines, seconds = rows[app, path]
                print(
                    f"  {app:<26}{path:>6}{blocks:>8}{lines:>9}"
                    f"{seconds:>11.3f}"
                )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "apps", nargs="+", metavar="app",
        help="registered workload names, or 'all'",
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument(
        "--top", type=int, default=6, help="blocks listed per kernel"
    )
    parser.add_argument(
        "--batch-sizes", action="store_true",
        help="print host cost per warp-instruction by batch size",
    )
    parser.add_argument(
        "--lowering", action="store_true",
        help="print blocks, source lines and compile() seconds per app",
    )
    parser.add_argument(
        "--manager", action="store_true",
        help="print us per warp execution of each execution-manager step",
    )
    arguments = parser.parse_args()
    names = workload_names() if arguments.apps == ["all"] else arguments.apps
    if arguments.batch_sizes:
        batch_sizes(names, arguments.scale)
        return
    if arguments.lowering:
        lowering_costs(names, arguments.scale)
        return
    if arguments.manager:
        manager_costs(names, arguments.scale)
        return
    records: list = []
    install(records)
    batches: dict = {}
    install_batches(batches)
    config = vectorized_config(4)
    for name in names:
        app = get_workload(name)
        device = Device(config=config)
        device.register_module(app.module_source())
        first = len(records)
        # The first run lowers what it enters (and pays for it); the
        # second is the one measured.
        app.execute(device, arguments.scale, check=True)
        for record in records[first:]:
            record.entries, record.warps, record.seconds = 0, 0, 0.0
        batches.clear()
        run = app.execute(device, arguments.scale, check=True)
        print(f"\n{name}: correct={run.correct} at scale {arguments.scale}")
        report_kernels(records[first:], arguments.top)
        report_batches(list(batches.values()))
    report_fit(records, "seq", "per warp-instruction")
    report_fit(records, "batch", "per batched op")


if __name__ == "__main__":
    main()
