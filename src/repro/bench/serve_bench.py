"""Concurrent-clients serving bench (``python -m repro.bench --serve``).

Measures the :class:`~repro.runtime.pool.DevicePool` against a single
synchronous :class:`~repro.api.device.Device` at equal total work:
``clients`` tenants each submit ``launches`` mixed launches (the
Table-1 ``throughput`` microbenchmark interleaved with a vecAdd) with
a small pipelining window, sharded across ``workers`` worker
processes. The baseline runs the identical launch list on one warmed
Device, one launch at a time.

A *chaos* tenant rides along: pinned to worker 0 with a private
kernel and an armed ``memory_fault`` injection site, every one of its
launches traps — the bench asserts the healthy tenants' results stay
numerically correct and none of their launches fail, i.e. a trapping
tenant never blocks or corrupts the others.

Results are written as JSON (``BENCH_serve.json``) so the serving
trajectory is measurable across commits. ``--assert-speedup X`` turns
the pool-vs-baseline throughput ratio into a hard failure bound (used
by the CI ``serve`` job on multi-core runners; meaningless on a
single-core host)."""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from typing import List, Optional

import numpy as np

from ..api.device import Device
from ..runtime.pool import DevicePool
from ..workloads.registry import get_workload

_VECADD_PTX = r"""
.version 2.3
.target sim

.entry serveVecAdd (.param .u64 a, .param .u64 b, .param .u64 c,
                    .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [a];
  ld.param.u64 %rd3, [b];
  ld.param.u64 %rd4, [c];
  add.u64 %rd5, %rd2, %rd1;
  add.u64 %rd6, %rd3, %rd1;
  add.u64 %rd7, %rd4, %rd1;
  ld.global.f32 %f1, [%rd5];
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  st.global.f32 [%rd7], %f3;
DONE:
  exit;
}
"""

#: Private module of the chaos tenant (its fault site is armed only
#: around its own launches, so the kernel needs no special timing).
_CHAOS_PTX = _VECADD_PTX.replace("serveVecAdd", "chaosVecAdd")

#: The process-chaos victim's kernel: no pointer arguments, so its
#: queued launches survive a worker respawn (nothing to go stale) and
#: the RetryPolicy can re-dispatch them transparently.
_NOOP_PTX = r"""
.version 2.3
.target sim

.entry serveNoop (.param .u32 n)
{
  .reg .u32 %r<2>;
  ld.param.u32 %r1, [n];
  exit;
}
"""

_VEC_N = 256
_VEC_BLOCK = 32
_VEC_GRID = _VEC_N // _VEC_BLOCK
_THROUGHPUT_THREADS = 64


def _launch_plan(launches: int, iters: int) -> List[dict]:
    """The per-tenant launch list: throughput/vecAdd interleaved."""
    plan = []
    for index in range(launches):
        if index % 2 == 0:
            plan.append({
                "kernel": "throughput",
                "grid": (1, 1, 1),
                "block": (_THROUGHPUT_THREADS, 1, 1),
                "iters": iters,
            })
        else:
            plan.append({
                "kernel": "serveVecAdd",
                "grid": (_VEC_GRID, 1, 1),
                "block": (_VEC_BLOCK, 1, 1),
            })
    return plan


def _run_baseline(modules: List[str], plan: List[dict], tenants: int):
    """Equal total work on one warmed synchronous Device."""
    device = Device()
    for source in modules:
        device.register_module(source)
    device.warm()
    out = device.malloc(4 * _THROUGHPUT_THREADS)
    a = device.upload(np.arange(_VEC_N, dtype=np.float32))
    b = device.upload(np.arange(_VEC_N, dtype=np.float32) * 2)
    c = device.malloc(4 * _VEC_N)
    start = time.perf_counter()
    for _ in range(tenants):
        for item in plan:
            if item["kernel"] == "throughput":
                device.launch(
                    "throughput", item["grid"], item["block"],
                    [out, item["iters"]],
                )
            else:
                device.launch(
                    "serveVecAdd", item["grid"], item["block"],
                    [a, b, c, _VEC_N],
                )
    return time.perf_counter() - start


class _TenantResult:
    def __init__(self):
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.output: Optional[np.ndarray] = None


def _setup_tenant(session) -> dict:
    """Allocate one tenant's buffers (untimed, like the baseline's)."""
    return {
        "a": session.upload(np.arange(_VEC_N, dtype=np.float32)),
        "b": session.upload(np.arange(_VEC_N, dtype=np.float32) * 2),
        "c": session.malloc(4 * _VEC_N),
        "out": session.malloc(4 * _THROUGHPUT_THREADS),
    }


def _run_tenant(session, buffers, plan, window, result: "_TenantResult"):
    """One healthy client: pipelined submit/collect over its plan,
    then a numeric check of its private vecAdd output."""
    inflight = []
    for item in plan:
        if item["kernel"] == "throughput":
            args = [buffers["out"], item["iters"]]
        else:
            args = [buffers["a"], buffers["b"], buffers["c"], _VEC_N]
        submitted = time.perf_counter()
        try:
            future = session.launch_async(
                item["kernel"], item["grid"], item["block"], args
            )
        except Exception as error:
            result.failures.append(f"submit: {error}")
            continue
        inflight.append((submitted, future))
        while len(inflight) >= window:
            result.latencies.append(_collect(inflight.pop(0), result))
    while inflight:
        result.latencies.append(_collect(inflight.pop(0), result))
    result.output = session.read(buffers["c"], np.float32, _VEC_N)


def _collect(entry, result: "_TenantResult") -> float:
    submitted, future = entry
    error = future.exception(timeout=300.0)
    if error is not None:
        result.failures.append(f"{future.kernel_name}: {error}")
    return time.perf_counter() - submitted


def _setup_chaos(pool):
    """The trapping tenant: ``memory_fault`` armed at probability 1
    for this tenant's launches, so every one of them traps."""
    session = pool.session("chaos", weight=1.0, worker=0)
    session.register_module(_CHAOS_PTX)
    session.inject_fault("memory_fault", probability=1.0, seed=7)
    data = session.upload(np.ones(_VEC_N, dtype=np.float32))
    sink = session.malloc(4 * _VEC_N)
    return session, data, sink


def _run_chaos(session, data, sink, traps: List[str], launches: int):
    """Submit the chaos plan, resetting the tenant's sticky fault
    between launches so it keeps submitting."""
    for _ in range(launches):
        try:
            future = session.launch_async(
                "chaosVecAdd", (_VEC_GRID, 1, 1), (_VEC_BLOCK, 1, 1),
                [data, data, sink, _VEC_N],
            )
        except Exception as error:
            traps.append(f"submit-rejected: {type(error).__name__}")
            try:
                session.reset()
            except Exception:
                pass
            continue
        error = future.exception(timeout=300.0)
        if error is not None:
            traps.append(type(error).__name__)
            try:
                session.reset()
            except Exception:
                # Worker lost mid-reset (process-chaos runs): the
                # respawned worker needs no reset anyway.
                pass
        else:
            traps.append("UNEXPECTED-SUCCESS")
    try:
        session.disarm_faults()
    except Exception:
        pass


def _run_victim(pool, session, injector, launches: int, outcome: dict):
    """The process-chaos victim: submits ``launches`` no-pointer noop
    launches to worker 0, whose first dispatched noop kills the worker
    process. The delivered casualty must resolve to DeviceLost; the
    queued rest are re-dispatched by the session's RetryPolicy onto
    the respawned worker. Measures the recovery interval: kill fired
    -> worker 0 alive again at a bumped epoch with its breaker
    closed."""
    futures = []
    for _ in range(launches):
        try:
            futures.append(
                session.launch_async("serveNoop", 1, 8, [1])
            )
        except Exception as error:
            outcome["outcomes"].append(type(error).__name__)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if injector.fired.get("kill_worker"):
            break
        time.sleep(0.005)
    killed_at = time.perf_counter()
    # One-shot chaos: disarm so the respawned worker survives the
    # retried launches.
    injector.restore()
    for future in futures:
        error = future.exception(timeout=300.0)
        outcome["outcomes"].append(
            "ok" if error is None else type(error).__name__
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        health = pool.health()[0]
        if health.alive and health.epoch >= 1 and health.state == "closed":
            outcome["recovery_seconds"] = time.perf_counter() - killed_at
            break
        time.sleep(0.01)


def _run_victim_durable(
    pool, session, buffers, injector, launches: int, outcome: dict
):
    """The durable victim: submits ``launches`` pointer-carrying
    vecAdd launches to worker 0, whose first dispatched one kills the
    worker process. Unlike the no-pointer ``_run_victim``, this
    tenant's guest state matters — after the kill, the pool must
    restore it (checkpoint + journal replay) onto the respawned
    worker so every launch still completes and the pre-kill buffers
    read back bit-identical through the original handles. No
    ``DeviceLost`` may surface."""
    futures = []
    for _ in range(launches):
        try:
            futures.append(
                session.launch_async(
                    "serveVecAdd", (_VEC_GRID, 1, 1),
                    (_VEC_BLOCK, 1, 1),
                    [buffers["a"], buffers["b"], buffers["c"], _VEC_N],
                )
            )
        except Exception as error:
            outcome["outcomes"].append(type(error).__name__)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if injector.fired.get("kill_worker"):
            break
        time.sleep(0.005)
    killed_at = time.perf_counter()
    injector.restore()
    restored = 0
    for future in futures:
        error = future.exception(timeout=300.0)
        if error is None:
            result = future.result()
            outcome["outcomes"].append("ok")
            restored += int(bool(getattr(result, "restored", False)))
        else:
            outcome["outcomes"].append(type(error).__name__)
    outcome["restored_launches"] = restored
    # The acceptance check: the buffers uploaded *before* the kill,
    # read back through the handles issued *before* the kill.
    a = session.read(buffers["a"], np.float32, _VEC_N)
    b = session.read(buffers["b"], np.float32, _VEC_N)
    c = session.read(buffers["c"], np.float32, _VEC_N)
    outcome["bit_identical"] = bool(
        np.array_equal(a, np.arange(_VEC_N, dtype=np.float32))
        and np.array_equal(b, np.arange(_VEC_N, dtype=np.float32) * 2)
        and np.array_equal(c, a + b)
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        health = pool.health()[0]
        if health.alive and health.epoch >= 1 and health.state == "closed":
            outcome["recovery_seconds"] = time.perf_counter() - killed_at
            break
        time.sleep(0.01)


def run_serve_bench(
    clients: int = 4,
    workers: int = 2,
    launches: int = 8,
    scale: float = 1.0,
    window: int = 4,
    chaos: bool = True,
    process_chaos: bool = False,
    recovery_slo: float = 15.0,
    assert_recovery: bool = False,
    assert_speedup: Optional[float] = None,
    output: Optional[str] = None,
    durability: str = "none",
    state_dir: Optional[str] = None,
) -> dict:
    """Run the serving bench; returns (and optionally writes) the
    result record. Raises AssertionError on isolation violations, on a
    missed ``assert_speedup`` bound, and — with ``process_chaos`` +
    ``assert_recovery`` — on a missed availability/recovery SLO.

    The process-chaos axis (``process_chaos=True``) kills worker 0
    mid-run via the seeded ``kill_worker`` injection site: healthy
    tenants are pinned to the other workers and their results must
    stay bit-identical to a no-chaos run; every victim launch must
    resolve to ``DeviceLost`` or transparently succeed via its
    RetryPolicy; and the supervisor must respawn the worker within
    ``recovery_slo`` seconds.

    The durability axis (``durability="journal"|"checkpoint"`` with
    ``process_chaos``) swaps the no-pointer victim for a durable
    session with live vecAdd buffers: after the kill, *no* launch may
    surface ``DeviceLost`` (the pool restores the tenant's state and
    re-dispatches the casualties) and the pre-kill buffers must read
    back bit-identical through the original handles."""
    if process_chaos and workers < 2:
        raise ValueError(
            "process_chaos needs workers >= 2 (worker 0 is the "
            "casualty; healthy tenants are pinned to the others)"
        )
    if durability not in ("none", "journal", "checkpoint"):
        raise ValueError(f"unknown durability mode {durability!r}")
    durable = process_chaos and durability != "none"
    iters = max(1, int(2 * scale))
    throughput_src = get_workload("throughput").module_source()
    modules = [throughput_src, _VECADD_PTX]
    if process_chaos:
        modules.append(_NOOP_PTX)
    plan = _launch_plan(launches, iters)

    baseline_seconds = _run_baseline(modules, plan, clients)

    scratch_state_dir = None
    if durability == "checkpoint" and state_dir is None:
        scratch_state_dir = tempfile.mkdtemp(prefix="repro-state-")
        state_dir = scratch_state_dir
    pool = DevicePool(
        workers=workers, modules=modules, warm=True,
        state_dir=state_dir,
    )
    try:
        pool.ready(timeout=300.0)
        sessions = [
            pool.session(
                f"client-{index}",
                weight=1.0 + (index % 2),
                # Keep healthy tenants off the casualty worker: their
                # results must be untouched by the kill.
                worker=(
                    1 + index % (workers - 1) if process_chaos else None
                ),
            )
            for index in range(clients)
        ]
        buffers = [_setup_tenant(session) for session in sessions]
        results = [_TenantResult() for _ in sessions]
        threads = [
            threading.Thread(
                target=_run_tenant,
                args=(session, tenant_buffers, plan, window, result),
                name=f"bench-{session.tenant}",
            )
            for session, tenant_buffers, result in zip(
                sessions, buffers, results
            )
        ]
        traps: List[str] = []
        chaos_thread = None
        if chaos:
            chaos_session, chaos_data, chaos_sink = _setup_chaos(pool)
            chaos_thread = threading.Thread(
                target=_run_chaos,
                args=(
                    chaos_session, chaos_data, chaos_sink,
                    traps, max(2, launches // 2),
                ),
                name="bench-chaos",
            )
        victim_thread = None
        victim_outcome: dict = {
            "outcomes": [],
            "recovery_seconds": None,
            "restored_launches": 0,
            "bit_identical": None,
        }
        if process_chaos:
            from ..runtime.pool import RetryPolicy
            from ..testing.fault_injection import FaultInjector, fault_seed

            injector = FaultInjector(pool, seed=fault_seed())
            if durable:
                victim = pool.session(
                    "victim",
                    worker=0,
                    durability=durability,
                    checkpoint_interval=2,
                )
                # Pre-kill state the restore must reproduce: the
                # buffers go in (and, in checkpoint mode, a snapshot
                # lands on disk) before the kill site is armed.
                victim_buffers = _setup_tenant(victim)
                if durability == "checkpoint":
                    victim.checkpoint()
                injector.arm(
                    "kill_worker", probability=1.0, worker=0,
                    op="launch", kernel="serveVecAdd",
                )
                victim_thread = threading.Thread(
                    target=_run_victim_durable,
                    args=(
                        pool, victim, victim_buffers, injector,
                        max(4, launches // 2), victim_outcome,
                    ),
                    name="bench-victim",
                )
            else:
                victim = pool.session(
                    "victim",
                    worker=0,
                    retry=RetryPolicy(max_attempts=4, base_delay=0.05),
                )
                injector.arm(
                    "kill_worker", probability=1.0, worker=0,
                    op="launch", kernel="serveNoop",
                )
                victim_thread = threading.Thread(
                    target=_run_victim,
                    args=(
                        pool, victim, injector,
                        max(4, launches // 2), victim_outcome,
                    ),
                    name="bench-victim",
                )
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        if chaos_thread is not None:
            chaos_thread.start()
        if victim_thread is not None:
            victim_thread.start()
        for thread in threads:
            thread.join()
        pool_seconds = time.perf_counter() - start
        if chaos_thread is not None:
            chaos_thread.join()
        if victim_thread is not None:
            victim_thread.join()

        expected = np.arange(_VEC_N, dtype=np.float32) * 3
        for session, result in zip(sessions, results):
            assert not result.failures, (
                f"tenant {session.tenant} had launch failures: "
                f"{result.failures[:3]}"
            )
            exact = np.array_equal(result.output, expected) if (
                result.output is not None
            ) else False
            assert exact if process_chaos else (
                result.output is not None
                and np.allclose(result.output, expected)
            ), f"tenant {session.tenant} output corrupted by chaos tenant"
        if chaos:
            assert traps and all(
                entry != "UNEXPECTED-SUCCESS" for entry in traps
            ), f"chaos tenant did not trap as armed: {traps}"
        if process_chaos:
            outcomes = victim_outcome["outcomes"]
            if durable:
                # Durability contract: the kill is invisible to the
                # victim — every launch completes (restore +
                # re-dispatch), nothing resolves to DeviceLost, and
                # its pre-kill state survived bit-identically.
                assert outcomes and all(
                    entry == "ok" for entry in outcomes
                ), (
                    f"durable victim launches must all succeed "
                    f"(restore re-dispatches casualties), got "
                    f"{outcomes}"
                )
                assert victim_outcome["bit_identical"], (
                    "durable victim's pre-kill buffers did not read "
                    "back bit-identical through the original handles"
                )
                assert victim.stats.restores >= 1, (
                    f"victim session was never restored: "
                    f"{victim.stats}"
                )
            else:
                assert outcomes and all(
                    entry in ("ok", "DeviceLost") for entry in outcomes
                ), (
                    f"victim launches must resolve to DeviceLost or "
                    f"succeed via retry, got {outcomes}"
                )
                assert "DeviceLost" in outcomes, (
                    "the delivered casualty launch should have "
                    f"resolved to DeviceLost, got {outcomes}"
                )
            health = pool.health()[0]
            assert health.alive and health.respawns >= 1, (
                f"worker 0 was not respawned: {health.describe()}"
            )
            recovery = victim_outcome["recovery_seconds"]
            if assert_recovery:
                assert recovery is not None, (
                    "worker 0 never recovered (no alive/closed health "
                    "within the polling window)"
                )
                assert recovery <= recovery_slo, (
                    f"recovery took {recovery:.2f}s, above the "
                    f"{recovery_slo:.2f}s SLO"
                )
                if durable:
                    assert (
                        victim.stats.restore_seconds <= recovery_slo
                    ), (
                        f"state restore took "
                        f"{victim.stats.restore_seconds:.2f}s, above "
                        f"the {recovery_slo:.2f}s SLO"
                    )

        latencies = sorted(
            value
            for result in results
            for value in result.latencies
        )
        total_launches = clients * launches
        record = {
            "experiment": "serve",
            "clients": clients,
            "workers": workers,
            "launches_per_client": launches,
            "scale": scale,
            "cpu_count": os.cpu_count(),
            "baseline_seconds": round(baseline_seconds, 4),
            "pool_seconds": round(pool_seconds, 4),
            "speedup": round(baseline_seconds / pool_seconds, 3),
            "throughput_launches_per_s": round(
                total_launches / pool_seconds, 2
            ),
            "latency_p50_s": round(float(np.percentile(latencies, 50)), 4),
            "latency_p95_s": round(float(np.percentile(latencies, 95)), 4),
            "chaos": {
                "enabled": chaos,
                "trapped_launches": len(traps),
                "outcomes": sorted(set(traps)),
            },
            "process_chaos": {
                "enabled": process_chaos,
                "outcomes": sorted(set(victim_outcome["outcomes"])),
                "device_lost": victim_outcome["outcomes"].count(
                    "DeviceLost"
                ),
                "succeeded": victim_outcome["outcomes"].count("ok"),
                "retries": (
                    victim.stats.retries if process_chaos else 0
                ),
                "recovery_seconds": (
                    None
                    if victim_outcome["recovery_seconds"] is None
                    else round(victim_outcome["recovery_seconds"], 3)
                ),
                "recovery_slo_seconds": recovery_slo,
                "worker_health": [
                    health.describe() for health in pool.health()
                ],
            },
            "durability": {
                "mode": durability,
                "enabled": durable,
                "restores": (
                    victim.stats.restores if durable else 0
                ),
                "restore_seconds": (
                    round(victim.stats.restore_seconds, 3)
                    if durable else 0.0
                ),
                "replayed_ops": (
                    victim.stats.replayed_ops if durable else 0
                ),
                "restored_launches": victim_outcome[
                    "restored_launches"
                ],
                "checkpoints": (
                    victim.stats.checkpoints if durable else 0
                ),
                "bit_identical": victim_outcome["bit_identical"],
            },
            "tenants": {
                session.tenant: {
                    "worker": session.worker_index,
                    "completed": session.stats.completed,
                    "failed": session.stats.failed,
                    "instructions": session.stats.statistics.instructions,
                }
                for session in pool.sessions()
            },
            "report": pool.report(),
        }
    finally:
        pool.shutdown()
        if scratch_state_dir is not None:
            shutil.rmtree(scratch_state_dir, ignore_errors=True)

    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")

    if assert_speedup is not None:
        assert record["speedup"] >= assert_speedup, (
            f"pool speedup {record['speedup']}x below required "
            f"{assert_speedup}x (baseline {baseline_seconds:.2f}s, "
            f"pool {pool_seconds:.2f}s, {os.cpu_count()} cpus)"
        )
    return record


def format_serve(record: dict) -> str:
    lines = [
        "== serving bench: DevicePool vs single synchronous Device ==",
        f"clients={record['clients']} workers={record['workers']} "
        f"launches/client={record['launches_per_client']} "
        f"(host cpus={record['cpu_count']})",
        f"baseline (1 device, serial): {record['baseline_seconds']:.2f}s",
        f"pool ({record['workers']} workers): "
        f"{record['pool_seconds']:.2f}s  -> speedup "
        f"{record['speedup']:.2f}x, "
        f"{record['throughput_launches_per_s']:.1f} launches/s",
        f"latency p50={record['latency_p50_s'] * 1e3:.0f}ms "
        f"p95={record['latency_p95_s'] * 1e3:.0f}ms",
        f"chaos tenant: {record['chaos']['trapped_launches']} trapped "
        f"launches, outcomes={record['chaos']['outcomes']} "
        f"(healthy tenants unaffected)",
    ]
    process = record.get("process_chaos", {})
    if process.get("enabled"):
        recovery = process.get("recovery_seconds")
        rendered = "never" if recovery is None else f"{recovery:.2f}s"
        lines.append(
            f"process chaos: worker 0 killed mid-run; "
            f"{process['device_lost']} DeviceLost, "
            f"{process['succeeded']} succeeded "
            f"({process['retries']} retried), recovery {rendered} "
            f"(SLO {process['recovery_slo_seconds']:.0f}s)"
        )
    durable = record.get("durability", {})
    if durable.get("enabled"):
        identical = (
            "bit-identical" if durable.get("bit_identical")
            else "MISMATCH"
        )
        lines.append(
            f"durability ({durable['mode']}): "
            f"{durable['restores']} restore(s) in "
            f"{durable['restore_seconds']:.3f}s, "
            f"{durable['replayed_ops']} ops replayed, "
            f"{durable['restored_launches']} launches re-dispatched, "
            f"{durable['checkpoints']} checkpoint(s); pre-kill "
            f"buffers {identical} through original handles"
        )
    lines.extend(["", record["report"]])
    return "\n".join(lines)
