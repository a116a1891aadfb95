"""Every workload and metric of the benchmark, by name: the one table
``BENCHMARK.json``, ``run.py``, ``compare.py`` and the README agree
on (``tests/test_manifest.py`` checks the JSON against it).

``BENCHMARK.json`` may carry only name/unit/better(/bound) per metric,
so what each per-layer metric is expected to move — written down
before anything was measured against it — lives here, in ``moves``."""

from __future__ import annotations

from typing import Dict, List, NamedTuple

RUN_SECONDS = 10

WORKLOADS: Dict[str, str] = {
    "cold_compile": (
        "Per pass, each of the 43 apps gets a fresh Device, register_module "
        "and warm() for widths 1/2/4: the JIT cost of a first launch, no "
        "guest execution."
    ),
    "uniform_closure": (
        "The 19 straight-line apps at scale 0.5 on warm Devices, default "
        "backend: interpreter closures do the work, the execution manager "
        "little, compilation none."
    ),
    "uniform_array": (
        "Same 19 apps on backend=array: the work goes through numpy "
        "batches, so a batch-path gain shows here and not on "
        "uniform_closure."
    ),
    "yield_closure": (
        "The other 24 apps (divergent, barrier, atomic) at scale 0.25: "
        "warps keep returning to the execution manager, the "
        "yield-on-diverge path melding targets."
    ),
    "yield_array": (
        "Same 24 apps on backend=array: batches that abort and fall back "
        "to closures; a batching change that helps uniform_array can "
        "cost here."
    ),
    "serve_small": (
        "Two closed-loop HTTP clients (plain and checkpointed tenant) "
        "send write, 6 x vecAdd-64 run, read to a one-worker pool: "
        "HTTP/JSON, pool RPC and journal dominate, not execution."
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + median of three complete set-ups (construct, register, "
        "compile ahead, upload, one warm-up pass), at nominal machine speed",
    ),
    EndToEnd(
        "pass_ms", "ms", "lower", 0.25,
        "sum over one pass's ops of their kind's quiet time q10, at nominal "
        "machine speed: what a pass costs on an undisturbed core; the big "
        "apps dominate",
    ),
    EndToEnd(
        "op_ms_geomean", "ms", "lower", 0.25,
        "geometric mean over kinds of q10, at nominal machine speed: every "
        "app weighs the same",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "in-process: ops per second at each kind's median op time, at "
        "nominal machine speed; serve_small: requests both clients "
        "completed per second of wall time",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "ru_maxrss of the benchmark process plus that of its largest "
        "child (the pool worker)",
    ),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: which workloads exercise it: compile, exec, serve or all
    where: str
    #: the end-to-end metric it should move, and on which workload
    moves: str


_COMPILE_MOVES = (
    "pass_ms and op_ms_geomean on cold_compile, setup_s everywhere; no "
    "change to pass_ms on the five warm workloads"
)
_EXECUTE_MOVES = (
    "pass_ms, most on uniform_closure, then yield_closure and yield_array "
    "(fallback), barely on uniform_array"
)
_EM_MOVES = "pass_ms on yield_*, little on uniform_*"
_SERVE_MOVES = (
    "ops_per_s and pass_ms on serve_small only; no change on the "
    "in-process workloads"
)
_EXACT = "must repeat exactly between runs of the same code and seed"

PER_LAYER: List[PerLayer] = [
    # counts that compare two versions of the program exactly
    PerLayer("modeled_cycles", "cycles", "lower", "all",
             "simulated time of one pass's launches; identical between "
             "*_closure and *_array; moved only by changes to generated code"),
    PerLayer("code_instr", "instr", "lower", "all",
             "generated-code size over every specialization compiled; a "
             "pass that shrinks *.ir_instr lowers it, and modeled_cycles"),
    # translation pipeline (cold_compile)
    PerLayer("api.device.construct_ms", "ms", "lower", "compile", _COMPILE_MOVES),
    PerLayer("api.device.register_ms", "ms", "lower", "compile", _COMPILE_MOVES),
    PerLayer("ptx.parser.parse_ms", "ms", "lower", "compile", _COMPILE_MOVES),
    PerLayer("ptx.parser.source_kb", "KiB", "lower", "compile",
             "input size; parse_ms per KiB is the parser's speed"),
    PerLayer("ptx.validator.validate_ms", "ms", "lower", "compile", _COMPILE_MOVES),
    PerLayer("frontend.translator.translate_ms", "ms", "lower", "compile",
             _COMPILE_MOVES),
    PerLayer("frontend.translator.ir_instr", "instr", "lower", "compile",
             "less IR leaves less work for every later stage: vectorize_ms, "
             "cleanup, lower_ms, code_instr"),
    PerLayer("transforms.vectorize.vectorize_ms", "ms", "lower", "compile",
             _COMPILE_MOVES),
    PerLayer("transforms.vectorize.ir_instr", "instr", "lower", "compile",
             "cleanup and lower_ms, then code_instr and modeled_cycles"),
    PerLayer("transforms.cleanup.run_ms", "ms", "lower", "compile", _COMPILE_MOVES),
    PerLayer("transforms.cleanup.constant-folding_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.cse_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.dce_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.block-merge_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.unreachable-elim_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.verify_ms", "ms", "lower", "compile",
             "transforms.cleanup.run_ms"),
    PerLayer("transforms.cleanup.changes", "count", "higher", "compile",
             "code_instr and modeled_cycles; " + _EXACT),
    PerLayer("machine.interpreter.lower_ms", "ms", "lower", "compile",
             _COMPILE_MOVES + "; the largest share at the seed"),
    PerLayer("machine.array_backend.lower_ms", "ms", "lower", "compile",
             "setup_s on *_array and serve with backend=array only"),
    PerLayer("runtime.translation_cache.self_ms", "ms", "lower", "compile",
             _COMPILE_MOVES),
    PerLayer("runtime.cache_store.store_ms", "ms", "lower", "compile",
             "first-run cost with persistent_cache=True; no end-to-end "
             "metric here runs with the disk tier on"),
    PerLayer("runtime.cache_store.load_ms", "ms", "lower", "compile",
             "runtime.translation_cache.disk_warm_pass_ms"),
    PerLayer("runtime.translation_cache.disk_warm_pass_ms", "ms", "lower",
             "compile",
             "what pass_ms on cold_compile becomes with a warm disk tier"),
    # warm execution (uniform_*, yield_*)
    PerLayer("api.device.copy_ms", "ms", "lower", "exec",
             "op_ms_geomean on uniform_array, where apps take 3-5 ms"),
    PerLayer("api.device.marshal_ms", "ms", "lower", "exec",
             "op_ms_geomean on uniform_array and pass_ms on serve_small"),
    PerLayer("runtime.launcher.self_ms", "ms", "lower", "exec",
             "op_ms_geomean on uniform_array"),
    PerLayer("runtime.translation_cache.lookup_ms", "ms", "lower", "exec",
             _EM_MOVES + " (one lookup per warp execution)"),
    PerLayer("runtime.translation_cache.hit_share", "ratio", "higher", "exec",
             "1.0 on every warm workload; below that, compilation leaked "
             "into pass_ms"),
    PerLayer("runtime.execution_manager.self_ms", "ms", "lower", "exec", _EM_MOVES),
    PerLayer("runtime.execution_manager.warp_executions", "count", "lower",
             "exec", "runtime.execution_manager.self_ms; " + _EXACT),
    PerLayer("runtime.execution_manager.yields", "count", "lower", "exec",
             "runtime.execution_manager.self_ms and modeled_cycles on "
             "yield_*; what melding removes; " + _EXACT),
    PerLayer("runtime.execution_manager.avg_warp_size", "threads", "higher",
             "exec", "modeled_cycles; " + _EXACT),
    PerLayer("runtime.execution_manager.values_restored", "count", "lower",
             "exec", "modeled_cycles on yield_*; " + _EXACT),
    PerLayer("machine.interpreter.execute_ms", "ms", "lower", "exec", _EXECUTE_MOVES),
    PerLayer("machine.interpreter.warp_calls", "count", "lower", "exec",
             "machine.interpreter.execute_ms; on *_array it counts fallbacks"),
    PerLayer("machine.array_backend.batch_ms", "ms", "lower", "exec",
             "pass_ms on uniform_array only"),
    PerLayer("machine.array_backend.batches", "count", "lower", "exec",
             "machine.array_backend.batch_ms"),
    PerLayer("machine.array_backend.batched_share", "ratio", "higher", "exec",
             "useful outcomes per attempt: warp executions that ran batched; "
             "pass_ms on *_array"),
    PerLayer("machine.instructions", "instr", "lower", "exec",
             "modeled_cycles; " + _EXACT),
    PerLayer("machine.kinstr_per_s", "kinstr/s", "higher", "exec",
             "pass_ms on the four exec workloads: guest instructions per "
             "second of executor time"),
    PerLayer("machine.costmodel.kernel_cycle_share", "ratio", "higher", "exec",
             "modeled_cycles; " + _EXACT),
    PerLayer("machine.costmodel.yield_cycle_share", "ratio", "lower", "exec",
             "modeled_cycles on yield_*; " + _EXACT),
    PerLayer("machine.costmodel.em_cycle_share", "ratio", "lower", "exec",
             "modeled_cycles on yield_*; " + _EXACT),
    # serving (serve_small)
    PerLayer("runtime.service.run_ms_p50", "ms", "lower", "serve", _SERVE_MOVES),
    PerLayer("runtime.service.write_ms_p50", "ms", "lower", "serve", _SERVE_MOVES),
    PerLayer("runtime.service.read_ms_p50", "ms", "lower", "serve", _SERVE_MOVES),
    PerLayer("runtime.service.request_ms_p50", "ms", "lower", "serve",
             "median client-observed request time, all kinds pooled; "
             + _SERVE_MOVES),
    PerLayer("runtime.service.request_ms_p95", "ms", "lower", "serve",
             "highest percentile with at least 10 requests beyond it, capped "
             "at p95; a stall that hits few requests shows here first"),
    PerLayer("runtime.service.http_overhead_ms", "ms", "lower", "serve",
             _SERVE_MOVES + "; per HTTP round trip"),
    PerLayer("runtime.service.http_ms", "ms", "lower", "serve",
             "pass_ms on serve_small: client request time outside the "
             "TenantSession calls its handler made"),
    PerLayer("runtime.pool.session_ms", "ms", "lower", "serve",
             "pass_ms on serve_small: time inside TenantSession calls"),
    PerLayer("runtime.pool.launch_ms_p50", "ms", "lower", "serve", _SERVE_MOVES),
    PerLayer("runtime.pool.durable_launch_ms_p50", "ms", "lower", "serve",
             _SERVE_MOVES + " (the journalling tenant)"),
    PerLayer("runtime.pool.rpc_overhead_ms", "ms", "lower", "serve",
             "runtime.pool.launch_ms_p50 minus api.device.ref_launch_ms"),
    PerLayer("api.device.ref_launch_ms", "ms", "lower", "serve",
             "the same launch on a warm in-process Device; the base of "
             "rpc_overhead_ms"),
    PerLayer("runtime.state_store.checkpoint_ms", "ms", "lower", "serve",
             "runtime.service.request_ms_p95 before _p50 and pass_ms on "
             "serve_small: checkpoints are periodic"),
    PerLayer("runtime.state_store.checkpoints", "count", "lower", "serve",
             "per durable client pass; 6 launches / interval 32"),
    # the tracing itself
    PerLayer("trace.spans", "count", "lower", "all",
             "spans recorded per traced pass, folded calls excluded"),
    PerLayer("trace.overhead_share", "ratio", "lower", "all",
             "(traced - untraced pass_ms) / untraced"),
    PerLayer("trace.layer_sum_share", "ratio", "higher", "all",
             "per-layer self times / the traced quiet pass they came from; "
             "1.0 when every span is attributed to a layer"),
]


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
