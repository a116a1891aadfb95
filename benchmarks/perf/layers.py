"""Where the traced run puts its wrappers, and how the recorded spans
become per-layer metrics.

The wrappers go around each layer's entry points as the layer above
calls them — a module-level name where the caller imported a function
(``translation_cache.translate_kernel``), a class attribute for
methods (``Interpreter.execute``; the execution manager refuses to
batch when that method is replaced on the *instance*, so the class is
the only place that leaves the array backend's behaviour alone). No
file under ``src/`` is edited; ``Tracer.unpatch`` restores everything.

Per-layer times are self times of the *quiet op* of each kind (the
traced op of that kind with the smallest op time), summed over kinds:
they add up to what one undisturbed traced pass costs."""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

import repro.api.device as device_module
import repro.runtime.translation_cache as cache_module
from repro.machine.array_backend import ArrayBackend
from repro.machine.interpreter import Interpreter
from repro.runtime.cache_store import CacheStore
from repro.runtime.execution_manager import ExecutionManager
from repro.runtime.launcher import KernelLauncher
from repro.runtime.translation_cache import TranslationCache

import stats
from spans import Tracer

#: Per-layer time metric -> the span names whose self time it sums.
COMPILE_LAYERS = {
    "api.device.construct_ms": ("api.device.construct",),
    "api.device.register_ms": ("api.device.register", "api.device.warm"),
    "ptx.parser.parse_ms": ("ptx.parser.parse",),
    "ptx.validator.validate_ms": ("ptx.validator.validate",),
    "frontend.translator.translate_ms": ("frontend.translator.translate",),
    "transforms.vectorize.vectorize_ms": ("transforms.vectorize.vectorize",),
    "transforms.cleanup.run_ms": ("transforms.cleanup.run",),
    "machine.interpreter.lower_ms": ("machine.interpreter.lower",),
    "machine.array_backend.lower_ms": ("machine.array_backend.lower",),
    "runtime.translation_cache.self_ms": (
        "runtime.translation_cache.get",
        "runtime.translation_cache.register",
    ),
    "runtime.cache_store.store_ms": ("runtime.cache_store.store",),
    "runtime.cache_store.load_ms": ("runtime.cache_store.load",),
}
EXEC_LAYERS = {
    "api.device.copy_ms": ("api.device.copy",),
    "api.device.marshal_ms": ("api.device.launch",),
    "runtime.launcher.self_ms": ("runtime.launcher.launch",),
    "runtime.translation_cache.lookup_ms": ("runtime.translation_cache.get",),
    "runtime.execution_manager.self_ms": ("runtime.execution_manager.run",),
    "machine.interpreter.execute_ms": ("machine.interpreter.execute",),
    "machine.array_backend.batch_ms": ("machine.array_backend.batch",),
}
#: Passes of the cleanup pipeline, as ``PassResult.name`` spells them.
CLEANUP_PASSES = (
    "constant-folding", "cse", "dce", "block-merge", "unreachable-elim",
)


class CompileProbes:
    """Spans around the translation pipeline, plus the two things the
    system measures itself and never surfaces: the cleanup pipeline's
    ``PassStatistics`` (seconds and changes per pass) and the size of
    the IR each stage hands to the next."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: op -> pass name -> [seconds, changes]
        self.passes: Dict[object, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )
        #: IR instructions out of each stage, summed over every call
        #: made while :attr:`count_ir` is set.
        self.ir_instr = {"frontend.translator": 0, "transforms.vectorize": 0}
        self.count_ir = False

    def install(self) -> None:
        tracer = self.tracer
        tracer.patch(device_module, "parse", "ptx.parser.parse")
        tracer.patch(
            device_module, "validate_module", "ptx.validator.validate"
        )
        for attribute, stage in (
            ("translate_kernel", "frontend.translator"),
            ("vectorize_kernel", "transforms.vectorize"),
        ):
            span = f"{stage}.{attribute.split('_')[0]}"
            traced = tracer.wrap(getattr(cache_module, attribute), span)
            tracer.replace(
                cache_module, attribute, self._counting(traced, stage)
            )
        tracer.replace(
            cache_module, "standard_cleanup_pipeline",
            self._cleanup_factory(cache_module.standard_cleanup_pipeline),
        )
        tracer.patch(Interpreter, "load_function", "machine.interpreter.lower")
        tracer.patch(
            ArrayBackend, "load_function", "machine.array_backend.lower"
        )
        tracer.patch(
            TranslationCache, "register_module",
            "runtime.translation_cache.register",
        )
        tracer.patch(
            TranslationCache, "get", "runtime.translation_cache.get",
            fold=True,
        )
        tracer.patch(CacheStore, "store", "runtime.cache_store.store")
        tracer.patch(CacheStore, "load", "runtime.cache_store.load")

    def _counting(self, function: Callable, stage: str) -> Callable:
        def call(*args, **kwargs):
            ir = function(*args, **kwargs)
            if self.count_ir:
                self.ir_instr[stage] += ir.instruction_count()
            return ir

        return call

    def _cleanup_factory(self, factory: Callable) -> Callable:
        tracer, passes = self.tracer, self.passes

        def make_pipeline(*args, **kwargs):
            manager = factory(*args, **kwargs)
            run = tracer.wrap(manager.run, "transforms.cleanup.run")

            def traced_run(function):
                result = run(function)
                totals = passes[tracer.current_op()]
                for applied in manager.statistics.results:
                    totals[applied.name][0] += applied.seconds
                    totals[applied.name][1] += applied.changes
                return result

            manager.run = traced_run
            return manager

        return make_pipeline

    def cleanup_metrics(
        self, ops: Iterable[object], run_ms: float
    ) -> Dict[str, float]:
        """The cleanup pipeline's own per-pass record over ``ops``;
        what ``run`` spent outside its passes is the verifier."""
        seconds: Dict[str, float] = defaultdict(float)
        changes = 0
        for op in ops:
            for name, (spent, changed) in self.passes.get(op, {}).items():
                seconds[name] += spent
                changes += changed
        metrics = {
            f"transforms.cleanup.{name}_ms": 1e3 * seconds[name]
            for name in CLEANUP_PASSES
        }
        metrics["transforms.cleanup.verify_ms"] = run_ms - sum(
            metrics.values()
        )
        metrics["transforms.cleanup.changes"] = changes
        return metrics


def install_exec_probes(tracer: Tracer) -> None:
    tracer.patch(KernelLauncher, "launch", "runtime.launcher.launch")
    tracer.patch(ExecutionManager, "run", "runtime.execution_manager.run")
    tracer.patch(
        TranslationCache, "get", "runtime.translation_cache.get", fold=True
    )
    tracer.patch(
        Interpreter, "execute", "machine.interpreter.execute", fold=True
    )
    tracer.patch(
        ArrayBackend, "execute_batch", "machine.array_backend.batch",
        fold=True,
    )


def layer_times(
    tracer: Tracer, ops: Dict[object, int], layers: Dict[str, Tuple[str, ...]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(metrics, calls)`` over the spans of ``ops`` (op id -> how
    many times it counts): milliseconds of self time per layer metric,
    and calls per span name. Span names no metric claims are summed
    under ``trace.unattributed_ms``."""
    by_op: Dict[object, List[list]] = {op: [] for op in ops}
    for span in tracer.spans:
        if span[stats.OP] in by_op:
            by_op[span[stats.OP]].append(span)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for op, spans in by_op.items():
        for name, spent in stats.self_times(spans).items():
            seconds[name] += ops[op] * spent
        for name, count in stats.call_counts(spans).items():
            calls[name] += ops[op] * count
    metrics = {
        metric: 1e3 * sum(seconds.pop(name, 0.0) for name in names)
        for metric, names in layers.items()
    }
    metrics["trace.unattributed_ms"] = 1e3 * sum(seconds.values())
    return metrics, calls


def quiet_pass(
    tracer: Tracer,
    results: Iterable,
    layers: Dict[str, Tuple[str, ...]],
    weights: Dict[str, int],
):
    """``(metrics, calls, quiet)`` of one undisturbed traced pass:
    per kind the successful op with the smallest op time (``quiet``),
    counted as often as a pass runs that kind. ``metrics`` also gets
    ``trace.layer_sum_share``, the share of that pass's op time the
    layers account for."""
    quiet: Dict[str, object] = {}
    for result in results:
        if result.error is None and (
            result.kind not in quiet
            or result.seconds < quiet[result.kind].seconds
        ):
            quiet[result.kind] = result
    metrics, calls = layer_times(
        tracer,
        {result.op: weights[kind] for kind, result in quiet.items()},
        layers,
    )
    pass_ms = 1e3 * sum(
        weights[kind] * result.seconds for kind, result in quiet.items()
    )
    claimed = sum(metrics.values()) - metrics["trace.unattributed_ms"]
    metrics["trace.layer_sum_share"] = claimed / pass_ms
    return metrics, calls, quiet


def exec_counters(runs: Iterable, calls: Dict[str, int]) -> Dict[str, float]:
    """Exact per-pass counts from the launches' own statistics
    (``WorkloadRun.statistics``) and the call counts of the spans."""
    merged = [run.statistics for run in runs]

    def total(field: str) -> int:
        return sum(getattr(statistics, field) for statistics in merged)

    hits = sum(s.cache.hits for s in merged if s.cache is not None)
    misses = sum(s.cache.misses for s in merged if s.cache is not None)
    warps = total("warp_executions")
    cycles = total("total_cycles")
    return {
        "runtime.translation_cache.hit_share": hits / max(hits + misses, 1),
        "runtime.execution_manager.warp_executions": warps,
        "runtime.execution_manager.yields": (
            total("divergent_yields") + total("barrier_yields")
        ),
        "runtime.execution_manager.avg_warp_size": (
            total("thread_entries") / max(warps, 1)
        ),
        "runtime.execution_manager.values_restored": total("values_restored"),
        "machine.interpreter.warp_calls": calls.get(
            "machine.interpreter.execute", 0
        ),
        "machine.array_backend.batches": calls.get(
            "machine.array_backend.batch", 0
        ),
        "machine.array_backend.batched_share": (
            total("batched_warps") / max(warps, 1)
        ),
        "machine.instructions": total("instructions"),
        "machine.costmodel.kernel_cycle_share": (
            total("kernel_cycles") / max(cycles, 1)
        ),
        "machine.costmodel.yield_cycle_share": (
            total("yield_cycles") / max(cycles, 1)
        ),
        "machine.costmodel.em_cycle_share": total("em_cycles") / max(cycles, 1),
    }
