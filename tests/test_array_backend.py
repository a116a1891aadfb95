"""Array-vectorized execution backend tests.

The array backend batches every resident warp of an entry point into
numpy array programs over uniform block runs; divergent or yielding
warps fall back to the closure path mid-kernel. Because it is a pure
host-side optimization, every *modeled* statistic must stay
bit-identical to the sequential closure interpreter — these tests pin
that A/B equivalence on divergent, barrier-heavy and precise-mode
workloads, the backend selection surface (config validation, cache-key
namespacing, ``REPRO_BACKEND``), and the ready-pool's deferred-result
injection that keeps warp formation order exactly sequential.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Device, ExecutionConfig, vectorized_config
from repro.machine.array_backend import ArrayBackend
from repro.machine.backend import BACKENDS, create_backend
from repro.runtime.config import apply_backend_env
from repro.runtime.context import ThreadContext, Warp
from repro.runtime.execution_manager import _ReadyPool
from repro.workloads.registry import get_workload
from tests.test_interpreter_lowering import _modeled_statistics


@pytest.fixture(autouse=True)
def _pin_backend(monkeypatch):
    """This module tests backend selection itself: the CI matrix's
    ``REPRO_BACKEND`` override must not redirect the configs built
    here (the env-override tests set the variable explicitly)."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


# ---------------------------------------------------------------------------
# Backend selection surface
# ---------------------------------------------------------------------------


class TestBackendConfig:
    def test_known_backends(self):
        assert BACKENDS == ("interpreter", "array", "reference")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionConfig(backend="cuda")

    def test_cache_key_namespaces_array_backend(self):
        base = vectorized_config(4)
        array = replace(base, backend="array")
        assert base.cache_key() != array.cache_key()
        assert ("backend", "array") in array.cache_key()
        # the default backend's key stays byte-identical to releases
        # that predate the backend axis
        assert not any(
            isinstance(entry, tuple) and entry[:1] == ("backend",)
            for entry in base.cache_key()
        )

    def test_device_builds_array_backend(self):
        device = Device(
            config=replace(vectorized_config(4), backend="array")
        )
        assert isinstance(device.interpreter, ArrayBackend)
        assert device.interpreter.supports_batching

    def test_create_backend_rejects_unknown(self):
        from repro.machine import sandybridge
        from repro.machine.memory import MemorySystem

        with pytest.raises(ValueError):
            create_backend(
                "jit", sandybridge(), MemorySystem(1 << 12)
            )

    def test_env_override_selects_array(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert apply_backend_env(
            vectorized_config(4)
        ).backend == "array"

    def test_env_override_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "jit")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            apply_backend_env(vectorized_config(4))

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interpreter")
        config = replace(vectorized_config(4), backend="array")
        assert apply_backend_env(config).backend == "array"
        # the oracle stays the oracle under CI's REPRO_BACKEND=array
        monkeypatch.setenv("REPRO_BACKEND", "array")
        config = replace(vectorized_config(4), backend="reference")
        assert apply_backend_env(config).backend == "reference"


# ---------------------------------------------------------------------------
# A/B: array batching vs sequential closure path
# ---------------------------------------------------------------------------


# BitonicSort: data-dependent branching (mid-kernel fallback);
# Reduction: bar.sync tree (warps park at barriers between batches);
# Clock: %clock forces precise accounting, which cannot batch;
# BinomialOptions / ScanLargeArray: loop-heavy, the biggest batch
# consumers; throughput: the Table-1 FMA microbenchmark.
AB_WORKLOADS = [
    "BitonicSort",
    "Reduction",
    "Clock",
    "BinomialOptions",
    "ScanLargeArray",
    "throughput",
]


class TestArrayBackendEquivalence:
    @pytest.mark.parametrize("name", AB_WORKLOADS)
    def test_modeled_statistics_bit_identical(self, name):
        workload = get_workload(name)
        observed = {}
        for backend in BACKENDS:
            config = replace(
                vectorized_config(4), backend=backend
            )
            run = workload.run_on(config, scale=0.25)
            assert run.correct, f"{name} incorrect under {backend}"
            observed[backend] = _modeled_statistics(run.statistics)
        assert observed["array"] == observed["reference"]
        assert observed["interpreter"] == observed["reference"]

    def test_batching_engages_on_uniform_kernels(self):
        workload = get_workload("throughput")
        run = workload.run_on(
            replace(vectorized_config(4), backend="array"),
            scale=0.25,
        )
        assert run.correct
        assert run.statistics.batched_warps > 0

    def test_sequential_backend_never_batches(self):
        workload = get_workload("throughput")
        run = workload.run_on(vectorized_config(4), scale=0.25)
        assert run.correct
        assert run.statistics.batched_warps == 0

    def test_batch_fault_traps_like_sequential(self):
        # A fault inside a batch is re-executed sequentially, so the
        # structured trap names the same thread the sequential backend
        # would have blamed.
        from repro.errors import KernelTrap
        from tests.test_fault_containment import _oob_device

        observed = {}
        for backend in ("interpreter", "array"):
            device = _oob_device(
                replace(vectorized_config(4), backend=backend)
            )
            buffer = device.malloc(16)
            with pytest.raises(KernelTrap) as excinfo:
                device.launch("oob", grid=1, block=64, args=[buffer])
            info = excinfo.value.info
            assert info.faulting_lanes, backend
            observed[backend] = (
                info.faulting_lanes[0].tid,
                info.block_label,
                info.instruction_index,
            )
        assert observed["array"] == observed["interpreter"]

    def test_divergent_workload_batches_and_falls_back(self):
        # BinomialOptions both batches (uniform loop bodies) and
        # yields (barriers): the deferred results must re-enter the
        # scheduler in sequential order
        workload = get_workload("BinomialOptions")
        run = workload.run_on(
            replace(vectorized_config(4), backend="array"),
            scale=0.25,
        )
        assert run.correct
        assert run.statistics.batched_warps > 0
        assert run.statistics.barrier_yields > 0


# ---------------------------------------------------------------------------
# Ready-pool deferred-result injection
# ---------------------------------------------------------------------------


def _context(tid, entry=0, cta=0):
    return ThreadContext(
        tid=(tid, 0, 0),
        ntid=(64, 1, 1),
        ctaid=(cta, 0, 0),
        nctaid=(4, 1, 1),
        resume_point=entry,
    )


def _item(contexts, tag):
    """A fake batch-result tuple: only ``item[0].contexts`` and
    identity matter to the pool."""
    return (Warp(contexts=list(contexts)), tag, None, None, None)


class TestReadyPoolDeferral:
    def test_head_batch_peeks_without_popping(self):
        pool = _ReadyPool()
        for tid in range(4):
            pool.push(_context(tid))
        assert pool.head_batch(2) == (0, 0, 4)
        assert pool.size == 4

    def test_head_batch_requires_two_full_chunks(self):
        pool = _ReadyPool()
        for tid in range(3):
            pool.push(_context(tid))
        assert pool.head_batch(2) is None

    def test_pop_chunks_and_defer_roundtrip(self):
        pool = _ReadyPool()
        for tid in range(4):
            pool.push(_context(tid))
        chunks = pool.pop_chunks(2)
        assert [[c.tid[0] for c in chunk] for chunk in chunks] == [
            [0, 1], [2, 3]
        ]
        assert pool.size == 0
        items = [_item(chunk, i) for i, chunk in enumerate(chunks)]
        pool.defer(items)
        assert pool.size == 4
        # pending results block further batching at this key
        assert pool.head_batch(2) is None
        drained = []
        while True:
            item = pool.pop_deferred()
            if item is None:
                break
            drained.append(item[1])
        assert drained == [0, 1]
        assert pool.size == 0
        assert pool.pop_group(4) == []

    def test_defer_advances_round_robin_one_step(self):
        # Deferring at key A must move A behind key B — exactly as if
        # the first warp of the batch had just been popped — so B's
        # threads are served before A's remaining results drain.
        pool = _ReadyPool()
        for tid in range(4):
            pool.push(_context(tid, entry=0))
        for tid in range(4, 6):
            pool.push(_context(tid, entry=1))
        chunks = pool.pop_chunks(2)
        assert len(chunks) == 2
        pool.defer(
            [_item(chunk, tag) for chunk, tag in zip(chunks, "ab")]
        )
        # head is now B: no pending there, so nothing drains yet
        assert pool.pop_deferred() is None
        group = pool.pop_group(2)
        assert [c.tid[0] for c in group] == [4, 5]
        item = pool.pop_deferred()
        assert item is not None and item[1] == "a"
        item = pool.pop_deferred()
        assert item is not None and item[1] == "b"
        assert pool.size == 0

    def test_contexts_reports_pending_threads(self):
        # watchdog/deadlock reports must see threads parked in pending
        # batch results
        pool = _ReadyPool()
        for tid in range(4):
            pool.push(_context(tid))
        chunks = pool.pop_chunks(2)
        pool.defer([_item(chunk, i) for i, chunk in enumerate(chunks)])
        tids = sorted(c.tid[0] for c in pool.contexts())
        assert tids == [0, 1, 2, 3]
