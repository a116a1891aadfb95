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
from repro.errors import KernelTrap
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
# Leaving a batch mid-kernel: the continuation transplant
# ---------------------------------------------------------------------------

#: A Collatz walk whose every step also gathers from a table at a
#: data-dependent index: the vectorizer scalarizes that load and packs
#: the lanes with an ``insertelement`` chain (built in place by the
#: block emitter), so the blocks around every divergent ``Switch`` hold
#: chains on both sides of the batched/sequential seam.
WALK_PTX = r"""
.version 2.3
.target sim
.entry walk (.param .u64 src, .param .u64 table, .param .u64 dst, .param .u32 n)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<10>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [src];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r6, [%rd3];
  ld.param.u64 %rd6, [table];
  mov.u32 %r7, 0;
LOOP:
  setp.le.u32 %p2, %r6, 1;
  @%p2 bra EXITLOOP;
  and.b32 %r8, %r6, 7;
  mul.wide.u32 %rd7, %r8, 4;
  add.u64 %rd8, %rd6, %rd7;
  ld.global.u32 %r9, [%rd8];
  add.u32 %r7, %r7, %r9;
  and.b32 %r8, %r6, 1;
  setp.eq.u32 %p3, %r8, 0;
  @%p3 bra EVEN;
  mul.lo.u32 %r6, %r6, 3;
  add.u32 %r6, %r6, 1;
  bra LOOP;
EVEN:
  shr.u32 %r6, %r6, 1;
  bra LOOP;
EXITLOOP:
  ld.param.u64 %rd4, [dst];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r7;
DONE:
  exit;
}
"""

#: A uniform loop (``trips`` iterations, each gathering from ``table``
#: at a data-dependent index — an in-place ``insertelement`` chain per
#: iteration), then a block that reads ``%clock``: no batched lowering,
#: and what it reads depends on the cycles the batched prefix charged.
#: With a small instruction limit the batch instead stops, mid-loop,
#: at the conservative limit check.
CLOCKED_PTX = r"""
.version 2.3
.target sim
.entry clocked (.param .u64 table, .param .u64 dst, .param .u32 trips)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<10>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r8, [trips];
  ld.param.u64 %rd6, [table];
  mov.u32 %r5, %r4;
  mov.u32 %r6, 0;
LOOP:
  and.b32 %r9, %r5, 7;
  mul.wide.u32 %rd7, %r9, 4;
  add.u64 %rd8, %rd6, %rd7;
  ld.global.u32 %r10, [%rd8];
  mad.lo.u32 %r5, %r5, 3, %r10;
  add.u32 %r6, %r6, 1;
  setp.lt.u32 %p1, %r6, %r8;
  @%p1 bra LOOP;
  mov.u32 %r7, %clock;
  xor.b32 %r5, %r5, %r7;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [dst];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r5;
  exit;
}
"""


@pytest.fixture
def _plain_kernels(monkeypatch):
    """The tests below count batches of the kernels as written: no
    melded diamonds, no sanitizer (which never batches)."""
    for variable in ("REPRO_MELD", "REPRO_SANITIZE"):
        monkeypatch.delenv(variable, raising=False)


def _table(device):
    return device.upload(np.arange(8, dtype=np.uint32) + 3)


def _walk_args(device):
    values = np.arange(96, dtype=np.uint32) * 7 + 1
    return [device.upload(values), _table(device), device.malloc(96 * 4), 96]


def _observe(backend, ptx, kernel, grid, block, make_args, limit=None):
    """One launch on a fresh, compiled Device (so the first warp can
    already batch and no history hides a path): the device, the
    launch's statistics, the trap PC if it trapped, the arena."""
    device = Device(config=replace(vectorized_config(4), backend=backend))
    device.register_module(ptx)
    device.warm()
    if limit is not None:
        device.interpreter.instruction_limit = limit
    trap = None
    try:
        statistics = device.launch(
            kernel, grid=grid, block=block, args=make_args(device)
        ).statistics
    except KernelTrap as caught:
        statistics = caught.statistics
        info = caught.info
        trap = (
            info.cause_type, info.block_label, info.instruction_index,
            [lane.tid for lane in info.faulting_lanes],
        )
    arena = device.memory.data[: device.memory.bytes_allocated].copy()
    return device, statistics, trap, arena


@pytest.mark.usefixtures("_plain_kernels")
class TestBatchFallback:
    """Each way a batch hands its warps to the sequential path, on a
    kernel with in-place vector chains on both sides of the hand-off:
    guest memory and modeled statistics must not be able to tell."""

    def _agree(self, oracle, *arguments, **options):
        device, statistics, trap, arena = _observe(
            "array", *arguments, **options
        )
        _, expected, expected_trap, expected_arena = _observe(
            oracle, *arguments, **options
        )
        assert _modeled_statistics(statistics) == _modeled_statistics(
            expected
        )
        assert trap == expected_trap
        assert np.array_equal(arena, expected_arena)
        assert expected.batched_warps == 0
        return device, statistics, trap

    def test_divergent_switch(self):
        device, statistics, trap = self._agree(
            "reference", WALK_PTX, "walk", 3, 32, _walk_args
        )
        assert trap is None
        assert 0 < statistics.batch_fallbacks < statistics.batched_warps
        # only what a batch entered was lowered for batches
        executable = device.cache.resident("walk", 4)
        assert set(executable.array_blocks) < set(executable.function.blocks)
        for width in (1, 2):
            assert not device.cache.resident("walk", width).array_blocks

    def test_untranslated_clock_block(self):
        device, statistics, trap = self._agree(
            "reference", CLOCKED_PTX, "clocked", 2, 32,
            lambda device: [_table(device), device.malloc(64 * 4), 5],
        )
        assert trap is None
        # every batch ends there (the second CTA's is formed late: the
        # first one's abort is already on record)
        assert statistics.batch_fallbacks == statistics.batched_warps >= 8
        blocks = device.cache.resident("clocked", 4).array_blocks
        assert [label for label, entry in blocks.items() if entry is None]

    def test_conservative_instruction_limit_exit(self):
        # The runaway cap ends the launch in a trap either way. Partial
        # statistics are compared with the block emitter's (the
        # reference stops mid-block, the generated code after it).
        device, statistics, trap = self._agree(
            "interpreter", CLOCKED_PTX, "clocked", 2, 32,
            lambda device: [_table(device), device.malloc(64 * 4), 1000],
            limit=300,
        )
        assert trap[0] == "InstructionLimitExceeded"
        assert statistics.batch_fallbacks == statistics.batched_warps == 8
        # it says nothing about the entry point: not recorded
        assert device.cache.resident("clocked", 4).array_blocks.outcomes == {}


# ---------------------------------------------------------------------------
# Batch admission: what the batches from an entry point did decides
# ---------------------------------------------------------------------------

#: Every warp is uniform, neighbouring warps disagree, and a barrier
#: per iteration brings the whole CTA back to one entry point: every
#: batch formed there runs into a divergent ``Switch``. (COLLATZ_PTX
#: would not do: most of its batches are of warps that are all mixed
#: and take the yield path together, i.e. complete.)
ZIGZAG_PTX = r"""
.version 2.3
.target sim
.entry zigzag (.param .u64 dst, .param .u32 trips)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<6>;
  .reg .pred %p<4>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r9, [trips];
  add.u32 %r5, %r4, 27;
  shr.u32 %r10, %r1, 2;
  mov.u32 %r6, 0;
LOOP:
  bar.sync 0;
  add.u32 %r8, %r10, %r6;
  and.b32 %r8, %r8, 1;
  setp.eq.u32 %p1, %r8, 0;
  @%p1 bra EVEN;
  mul.lo.u32 %r5, %r5, 3;
  add.u32 %r5, %r5, 1;
  bra NEXT;
EVEN:
  shr.u32 %r5, %r5, 1;
NEXT:
  add.u32 %r6, %r6, 1;
  setp.lt.u32 %p2, %r6, %r9;
  @%p2 bra LOOP;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [dst];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r5;
  exit;
}
"""

_TOUCH_PTX = r"""
.version 2.3
.target sim
.entry k (.param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  TOUCH
  st.global.u32 [%rd3], %r1;
  exit;
}
"""
PLAIN_K = _TOUCH_PTX.replace("TOUCH", "add.u32 %r1, %r1, 1;")
ATOMIC_K = _TOUCH_PTX.replace(
    "TOUCH", "atom.global.add.u32 %r1, [%rd2+256], 1;"  # a ticket
)


def _array_device(ptx):
    device = Device(config=replace(vectorized_config(4), backend="array"))
    device.register_module(ptx)
    return device


def _zigzag(device):
    dst = device.malloc(4 * 64 * 4)
    statistics = device.launch(
        "zigzag", grid=4, block=64, args=[dst, 4]
    ).statistics
    values = dst.read(np.uint32, 4 * 64)
    device.free(dst)
    return statistics, values


def _touch(device):
    out = device.malloc(65 * 4)
    statistics = device.launch("k", grid=1, block=64, args=[out]).statistics
    values = out.read(np.uint32, 64)
    device.free(out)
    return statistics, values


@pytest.mark.usefixtures("_plain_kernels")
class TestBatchAdmission:
    def test_consistent_divergence_stops_being_batched(self):
        reference = Device(
            config=replace(vectorized_config(4), backend="reference")
        )
        reference.register_module(ZIGZAG_PTX)
        expected, expected_values = _zigzag(reference)
        histories = []
        for _ in range(2):
            device = _array_device(ZIGZAG_PTX)
            history = []
            for _ in range(5):
                statistics, values = _zigzag(device)
                # which path a warp took never shows in what it computed
                assert np.array_equal(values, expected_values)
                assert _modeled_statistics(statistics) == (
                    _modeled_statistics(expected)
                )
                history.append(
                    (statistics.batched_warps, statistics.batch_fallbacks)
                )
            histories.append(history)
        # a function of the launch history, not of the host
        assert histories[0] == histories[1]
        fallbacks = [fell_back for _, fell_back in histories[0]]
        assert fallbacks[0] >= 40
        assert max(fallbacks[2:]) <= 0.1 * fallbacks[0]
        # the entry point that completes (the run up to the first
        # barrier) is batched in every launch
        assert all(batched >= 4 * 15 for batched, _ in histories[0])

    def test_guarded_uniform_kernel_keeps_batching(self):
        # 8 CTAs of 16 warps; in the last one warps 0-6 are in bounds,
        # warp 7 is mixed, the rest are out: its batch aborts in every
        # launch, and costs the next launch four warps of batching.
        from tests.conftest import VECADD_PTX

        device = _array_device(VECADD_PTX)
        total, n = 8 * 64, 7 * 64 + 30
        a = np.arange(total, dtype=np.float32)
        b = np.ones(total, dtype=np.float32)
        batched = []
        for _ in range(10):
            buffers = [device.upload(a), device.upload(b),
                       device.malloc(total * 4)]
            statistics = device.launch(
                "vecAdd", grid=8, block=64, args=[*buffers, n]
            ).statistics
            assert np.array_equal(
                buffers[2].read(np.float32, total)[:n], (a + b)[:n]
            )
            for buffer in buffers:
                device.free(buffer)
            assert statistics.batch_fallbacks == 16
            batched.append(statistics.batched_warps)
        assert batched[0] >= 8 * 16 - 1
        assert batched[9] >= 0.75 * batched[0]

    def test_faulting_batch_is_not_recorded(self, monkeypatch):
        from tests.test_fault_containment import _oob_device

        device = _oob_device(replace(vectorized_config(4), backend="array"))
        device.warm()
        raised = []
        run = ArrayBackend.execute_batch

        def watched(*arguments, **options):
            try:
                return run(*arguments, **options)
            except Exception as fault:
                raised.append(fault)
                raise

        monkeypatch.setattr(ArrayBackend, "execute_batch", watched)
        with pytest.raises(KernelTrap):
            device.launch("oob", grid=1, block=64, args=[device.malloc(16)])
        assert len(raised) == 1
        assert device.cache.resident("oob", 4).array_blocks.outcomes == {}

    def test_batchability_is_forgotten_with_the_translation(self):
        # The answer used to be remembered per kernel *name*.
        fresh, expected = _touch(_array_device(PLAIN_K))
        assert fresh.batched_warps >= 15
        device = _array_device(ATOMIC_K)
        statistics, _ = _touch(device)
        assert statistics.batched_warps == 0
        device.register_module(PLAIN_K)
        statistics, values = _touch(device)
        assert statistics.batched_warps == fresh.batched_warps
        assert np.array_equal(values, expected)
        # and the mirror: an atomic must never meet a batch
        device.register_module(ATOMIC_K)
        assert device.cache.resident("k", 4) is None
        statistics, values = _touch(device)
        assert statistics.batched_warps == 0
        assert sorted(values) == list(range(64))


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
