"""The five in-process workloads: ``cold_compile`` and
``uniform``/``yield`` x ``closure``/``array``.

One caller, closed loop, driving the system through ``Device`` and
``Workload.execute`` only. An op is one app; its time is the wall time
spent inside public ``Device`` calls (the *op clock*), so the app's
own input generation and numpy reference — most of ``execute`` for
some apps — stay off the clock while still deciding correctness."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Device, vectorized_config
from repro.workloads.base import Category, Workload
from repro.workloads.registry import all_workloads

import layers
import stats
from spans import Tracer

#: Scale of the checked run that ends ``cold_compile`` (it times no
#: guest execution, but compiled code that computes wrong results
#: must still fail the run).
COLD_CHECK_SCALE = 0.25

_UNIFORM_CATEGORIES = (Category.COMPUTE_UNIFORM, Category.MEMORY_BOUND)

#: Public ``Device`` methods on the op clock -> span name.
_DEVICE_CALLS = {
    "malloc": "api.device.copy",
    "upload": "api.device.copy",
    "memcpy_htod": "api.device.copy",
    "memcpy_dtoh": "api.device.copy",
    "memset": "api.device.copy",
    "launch": "api.device.launch",
}


_PROBE_ARRAY = np.arange(64, dtype=np.float32)
#: Quiet time of :func:`speed_probe` on the sandbox the bounds in
#: ``BENCHMARK.json`` were set on; it only fixes the scale of the
#: corrected times.
PROBE_NOMINAL_SECONDS = 1.35e-3


def speed_probe() -> float:
    """Seconds one fixed piece of host work takes right now: the mix
    the system's own host code is made of — bytecode, small-object
    allocation, dict and list traffic, numpy calls on tiny arrays. It
    touches nothing of the system under test, so only the machine can
    change its time."""
    start = perf_counter()
    table = {}
    for index in range(2500):
        table[(index % 37, index & 3)] = [index, index * 2, str(index)]
    total = 0
    for entry in table.values():
        total += entry[0] + len(entry[2])
    values = _PROBE_ARRAY
    for _ in range(700):
        values = values * 1.0001 + 0.5
    return perf_counter() - start


def suite(seed: int) -> Dict[str, List[Workload]]:
    """The registered apps, as fresh instances seeded with ``seed``,
    split into the two families that load different machinery:
    straight-line kernels (compute-uniform, memory-bound and the
    Table-1 ``throughput`` chain) and kernels whose warps keep
    returning to the execution manager (divergent, barrier-heavy,
    atomic, and the two remaining micro apps)."""
    families: Dict[str, List[Workload]] = {"uniform": [], "yield": []}
    for registered in all_workloads():
        app = type(registered)()
        app.seed = seed
        uniform = (
            app.category in _UNIFORM_CATEGORIES or app.name == "throughput"
        )
        families["uniform" if uniform else "yield"].append(app)
    return families


@dataclass
class OpResult:
    """Outcome of one op. ``seconds`` is op-clock time; a failed op
    (raised, mismatched its reference, or leaked arena) carries its
    ``error`` and leaves the timing samples."""

    kind: str
    seconds: float
    error: Optional[str] = None
    #: id shared by the spans the op recorded (traced runs)
    op: Optional[object] = None
    #: modeled cycles and guest instructions of the op's launches
    cycles: int = 0
    instructions: int = 0
    #: what the op returned, kept only where something reads it: the
    #: ``WorkloadRun`` in traced runs, the reply of a serve request
    reply: object = None


class OpClock:
    """Wall time spent inside the calls wrapped with :meth:`timed`.
    A wrapped call made from inside another counts once."""

    def __init__(self):
        self.seconds = 0.0
        self._running = False

    def timed(self, function: Callable) -> Callable:
        def call(*args, **kwargs):
            if self._running:
                return function(*args, **kwargs)
            self._running = True
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - start
                self._running = False

        return call


def build_device(app: Workload, config, tracer: Optional[Tracer] = None):
    """What a first launch pays before any guest code runs: a fresh
    ``Device``, the app's module registered (parse, validate), every
    kernel compiled ahead for every configured width."""
    def traced(function: Callable, span: str) -> Callable:
        return function if tracer is None else tracer.wrap(function, span)

    device = traced(Device, "api.device.construct")(config=config)
    traced(device.register_module, "api.device.register")(app.module_source())
    traced(device.warm, "api.device.warm")()
    return device


class WarmApp:
    """One app on its own long-lived, compiled ``Device`` whose public
    calls run on the op clock. Every buffer an op allocates is freed,
    untimed, before the next op, and the arena must then be back at
    its post-set-up size."""

    def __init__(
        self,
        app: Workload,
        device: Device,
        scale: float,
    ):
        self.app = app
        self.device = device
        self.scale = scale
        self.clock = OpClock()
        self._allocations: list = []
        #: Arena size every op must return to; fixed by the warm-up op
        #: (the execution managers reserve their slabs on first launch).
        self.arena_bytes: Optional[int] = None
        self._originals = {
            attribute: getattr(device, attribute)
            for attribute in _DEVICE_CALLS
        }
        self.trace_with(None)

    def trace_with(self, tracer: Optional[Tracer]) -> None:
        """(Re)install the wrappers around the device's public calls,
        recording spans as well when ``tracer`` is given."""
        self._tracer = tracer
        device = self.device
        for attribute, span in _DEVICE_CALLS.items():
            setattr(
                device, attribute,
                self._on_clock(self._originals[attribute], span),
            )
        timed_malloc = device.malloc

        def tracked_malloc(size, label=None):
            allocation = timed_malloc(size, label=label)
            for attribute in ("read", "write"):
                setattr(
                    allocation, attribute,
                    self._on_clock(
                        getattr(allocation, attribute), "api.device.copy"
                    ),
                )
            self._allocations.append(allocation)
            return allocation

        # ``Device.upload`` allocates through ``self.malloc``, so this
        # sees those buffers too.
        device.malloc = tracked_malloc

    def _on_clock(self, function: Callable, span: str) -> Callable:
        if self._tracer is not None:
            function = self._tracer.wrap(function, span)
        return self.clock.timed(function)

    def run_op(self, op: Optional[int] = None) -> OpResult:
        self.clock.seconds = 0.0
        if self._tracer is not None:
            self._tracer.set_op(op)
        run = error = None
        try:
            run = self.app.execute(self.device, self.scale, check=True)
        except Exception as failure:  # the op failed; the run goes on
            error = f"{type(failure).__name__}: {failure}"
            if self.device.last_error is not None:
                self.device.reset()
        seconds = self.clock.seconds
        for allocation in reversed(self._allocations):
            self.device.free(allocation)
        self._allocations = []
        allocated = self.device.memory.bytes_allocated
        if self.arena_bytes is None:
            self.arena_bytes = allocated
        elif error is None and allocated != self.arena_bytes:
            error = (
                f"arena leak: {allocated} bytes allocated after the op, "
                f"{self.arena_bytes} after set-up"
            )
        result = OpResult(self.app.name, seconds, error, op)
        if run is not None:
            result.cycles = run.elapsed_cycles
            result.instructions = sum(
                launch.statistics.instructions for launch in run.launches
            )
            if self._tracer is not None:
                result.reply = run
        return result


class _PassLoop:
    """The measured loop of the in-process workloads: one caller,
    whole passes, each in an order shuffled from the run's seed."""

    kinds: List[str]
    #: :func:`speed_probe` times, one taken after every op, off its clock
    probes: List[float]

    def measure(self, seconds: float, min_passes: int, rng):
        """Run passes until ``seconds`` have elapsed and ``min_passes``
        are done. Returns ``(results, passes, wall_seconds)``."""
        results: List[OpResult] = []
        self.probes = []
        passes = 0
        start = perf_counter()
        while perf_counter() - start < seconds or passes < min_passes:
            order = list(self.kinds)
            rng.shuffle(order)
            results.extend(self.run_pass(order))
            passes += 1
        return results, passes, perf_counter() - start

    def speed(self):
        """``(quiet, typical)``: how much slower than nominal the
        machine ran during the latest :meth:`measure`, as the probe's
        quiet time and its median over the nominal quiet time. The
        sandbox slows by a third for minutes at a time, CPU time
        rising with wall time, and no statistic over one run's samples
        can see that; a fixed piece of work timed alongside can."""
        return (
            stats.q10(self.probes) / PROBE_NOMINAL_SECONDS,
            stats.median(self.probes) / PROBE_NOMINAL_SECONDS,
        )

    def ops_per_s(self, summary, completed: int, wall: float) -> float:
        """Ops per second the one caller gets at typical op times (the
        time between ops is the caller's own and is not the system's)."""
        return 1e3 * len(self.kinds) / summary["typical_pass_ms"]


class ColdCompile(_PassLoop):
    """Per pass, for each of the registered apps: a fresh ``Device``,
    ``register_module`` and ``warm()`` — no guest execution. Devices
    are dropped as soon as they are compiled: a heap that kept 43 of
    them alive would make every later compile pay for collecting it."""

    def __init__(self, seed: int, scratch: str):
        families = suite(seed)
        self.apps = {
            app.name: app for app in families["uniform"] + families["yield"]
        }
        self.kinds = sorted(self.apps)
        self.weights = {kind: 1 for kind in self.kinds}
        self.config = vectorized_config(4)
        self.scratch = scratch
        self.tracer: Optional[Tracer] = None
        #: Generated-code size per app, as of its latest compile.
        self.instruction_counts: Dict[str, int] = {}
        self._checked: List[OpResult] = []
        self._next_op = 0
        self.probes = []

    def set_up(self) -> None:
        # The warm-up pass fills what the first compile in a process
        # pays once: lazy imports, numpy dispatch tables, regex caches.
        self.run_pass(self.kinds)

    def tear_down(self) -> None:
        pass

    def run_pass(self, order: List[str], config=None) -> List[OpResult]:
        results = []
        for kind in order:
            op = self._next_op
            self._next_op += 1
            if self.tracer is not None:
                self.tracer.set_op(op)
            error = None
            start = perf_counter()
            try:
                device = build_device(
                    self.apps[kind], config or self.config, self.tracer
                )
            except Exception as failure:
                error = f"{type(failure).__name__}: {failure}"
            seconds = perf_counter() - start
            if error is None:
                self.instruction_counts[kind] = sum(
                    device.cache.statistics.instruction_counts.values()
                )
                del device  # freed here, off the next op's clock
            results.append(OpResult(kind, seconds, error, op=op))
            self.probes.append(speed_probe())
        return results

    def finish(self) -> List[OpResult]:
        """Compile and run every app once more, checked against its
        numpy reference, untimed."""
        self._checked = [
            WarmApp(
                app, build_device(app, self.config), COLD_CHECK_SCALE
            ).run_op()
            for app in self.apps.values()
        ]
        return self._checked

    def counts(self) -> Dict[str, int]:
        return {
            "modeled_cycles": sum(r.cycles for r in self._checked),
            "code_instr": sum(self.instruction_counts.values()),
        }

    # -- traced run ----------------------------------------------------------

    def start_trace(self, tracer: Tracer, untraced: List[OpResult]) -> None:
        self.tracer = tracer
        self._probes = layers.CompileProbes(tracer)
        self._probes.install()

    def stop_trace(self) -> None:
        self.tracer.unpatch()
        self.tracer = None

    def layer_metrics(self, results: List[OpResult]) -> Dict[str, float]:
        """Per-layer metrics of the traced passes in ``results``, plus
        three extra traced passes for the layers the default
        configuration never enters: one on ``backend="array"`` (its
        lowering; the IR sizes are counted here too, off the main
        passes' clock) and a cold then a warm one with the persistent
        cache tier in a scratch directory."""
        tracer, probes = self.tracer, self._probes
        metrics, _, quiet = layers.quiet_pass(
            tracer, results, layers.COMPILE_LAYERS, self.weights
        )
        metrics.update(probes.cleanup_metrics(
            [result.op for result in quiet.values()],
            metrics["transforms.cleanup.run_ms"],
        ))

        def extra_pass(config) -> Dict[str, float]:
            done = self.run_pass(self.kinds, config)
            times, _ = layers.layer_times(
                tracer, {result.op: 1 for result in done}, layers.COMPILE_LAYERS
            )
            times["pass_ms"] = 1e3 * sum(result.seconds for result in done)
            return times

        probes.count_ir = True
        on_array = extra_pass(replace(self.config, backend="array"))
        probes.count_ir = False
        metrics["machine.array_backend.lower_ms"] = on_array[
            "machine.array_backend.lower_ms"
        ]
        for stage, count in probes.ir_instr.items():
            metrics[f"{stage}.ir_instr"] = count
        metrics["ptx.parser.source_kb"] = sum(
            len(app.module_source()) for app in self.apps.values()
        ) / 1024
        on_disk = replace(
            self.config, persistent_cache=True,
            cache_dir=os.path.join(self.scratch, "translation-cache"),
        )
        metrics["runtime.cache_store.store_ms"] = extra_pass(on_disk)[
            "runtime.cache_store.store_ms"
        ]
        warm_disk = extra_pass(on_disk)
        metrics["runtime.cache_store.load_ms"] = warm_disk[
            "runtime.cache_store.load_ms"
        ]
        metrics["runtime.translation_cache.disk_warm_pass_ms"] = warm_disk[
            "pass_ms"
        ]
        return metrics


class WarmExec(_PassLoop):
    """Per pass, every app of one family once, on long-lived compiled
    Devices (translation-cache hits only), on one backend."""

    def __init__(self, family: str, backend: str, scale: float, seed: int):
        self.apps = suite(seed)[family]
        self.kinds = [app.name for app in self.apps]
        self.weights = {kind: 1 for kind in self.kinds}
        self.config = replace(vectorized_config(4), backend=backend)
        self.scale = scale
        self.warm: Dict[str, WarmApp] = {}
        self._latest: List[OpResult] = []
        self._next_op = 0
        self.probes = []

    def set_up(self) -> None:
        self.warm = {
            app.name: WarmApp(app, build_device(app, self.config), self.scale)
            for app in self.apps
        }
        failed = [r for r in self.run_pass(self.kinds) if r.error]
        if failed:
            raise RuntimeError(
                f"warm-up op {failed[0].kind} failed: {failed[0].error}"
            )

    def tear_down(self) -> None:
        self.warm = {}

    def run_pass(self, order: List[str]) -> List[OpResult]:
        results = []
        for kind in order:
            results.append(self.warm[kind].run_op(self._next_op))
            self._next_op += 1
            self.probes.append(speed_probe())
        self._latest = results
        return results

    def finish(self) -> List[OpResult]:
        return []

    def counts(self) -> Dict[str, int]:
        """Of the latest pass; every pass of a run must agree."""
        return {
            "modeled_cycles": sum(r.cycles for r in self._latest),
            "machine.instructions": sum(r.instructions for r in self._latest),
            "code_instr": sum(
                sum(w.device.cache.statistics.instruction_counts.values())
                for w in self.warm.values()
            ),
        }

    # -- traced run ----------------------------------------------------------

    def start_trace(self, tracer: Tracer, untraced: List[OpResult]) -> None:
        self._tracer = tracer
        layers.install_exec_probes(tracer)
        for warm in self.warm.values():
            warm.trace_with(tracer)

    def stop_trace(self) -> None:
        self._tracer.unpatch()
        for warm in self.warm.values():
            warm.trace_with(None)

    def layer_metrics(self, results: List[OpResult]) -> Dict[str, float]:
        metrics, calls, quiet = layers.quiet_pass(
            self._tracer, results, layers.EXEC_LAYERS, self.weights
        )
        metrics.update(
            layers.exec_counters([r.reply for r in quiet.values()], calls)
        )
        executor_ms = (
            metrics["machine.interpreter.execute_ms"]
            + metrics["machine.array_backend.batch_ms"]
        )
        metrics["machine.kinstr_per_s"] = (
            metrics["machine.instructions"] / executor_ms
        )
        return metrics
