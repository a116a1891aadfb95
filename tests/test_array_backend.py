"""Batched execution inside the one executor.

Every default ``Device`` runs :class:`ArrayBackend`: generated block
functions one warp at a time and, where at least ``MIN_BATCH_WARPS``
full warps wait at one entry point and the record of earlier batches
there does not refuse, all of them at once as numpy array programs;
divergent or yielding warps fall back to the sequential path
mid-kernel. Batching is a pure host-side optimization, so every
*modeled* statistic and every guest byte must be what the sequential
path (``tests.conftest.sequential_only``) and the reference oracle
produce — these tests pin that, the admission rules as counts (size
rule, outcome rule, no host clock), the selection surface (``"array"``
is an alias of the default with the default's cache key), the
formation census, and the one ready queue whose pre-run entries keep
warp formation order exactly sequential.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Device, ExecutionConfig, vectorized_config
from repro.errors import KernelTrap
from repro.machine.array_backend import MIN_BATCH_WARPS, ArrayBackend
from repro.machine.backend import BACKENDS, create_backend
from repro.machine.descriptor import sandybridge
from repro.runtime.context import ThreadContext, Warp
from repro.runtime.execution_manager import _ReadyPool
from repro.runtime.launcher import partition_ctas
from repro.testing import FaultInjector
from repro.workloads.registry import all_workloads, get_workload
from tests.conftest import VECADD_PTX, sequential_only
from tests.test_interpreter_lowering import _modeled_statistics


@pytest.fixture(autouse=True)
def _plain_kernels(monkeypatch):
    """The tests below count batches of the kernels as written, on the
    executor a default Device builds: no environment override, no
    melded diamonds, no sanitizer (which never batches)."""
    for variable in ("REPRO_MELD", "REPRO_SANITIZE"):
        monkeypatch.delenv(variable, raising=False)


# ---------------------------------------------------------------------------
# Selection surface: one executor, one name, one key
# ---------------------------------------------------------------------------


class TestBackendConfig:
    def test_known_backends(self):
        assert BACKENDS == ("interpreter", "reference")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionConfig(backend="cuda")

    def test_array_is_the_default_under_its_old_name(self):
        base = vectorized_config(4)
        array = replace(base, backend="array")
        assert array.backend == "interpreter" and array == base
        assert array.cache_key() == base.cache_key()
        assert (
            ExecutionConfig(backend="array").cache_key()
            == ExecutionConfig().cache_key()
        )
        # the default's key stays byte-identical to releases that
        # predate the backend axis; the oracle keeps its own namespace
        assert not any(
            isinstance(entry, tuple) and entry[:1] == ("backend",)
            for entry in base.cache_key()
        )
        reference = replace(base, backend="reference")
        assert ("backend", "reference") in reference.cache_key()

    def test_array_device_hits_what_a_default_device_stored(self, tmp_path):
        on_disk = replace(
            vectorized_config(4),
            persistent_cache=True, cache_dir=str(tmp_path),
        )
        writer = Device(config=on_disk)
        writer.register_module(VECADD_PTX)
        writer.warm()
        assert writer.cache.statistics.disk_misses == 3
        reader = Device(config=replace(on_disk, backend="array"))
        reader.register_module(VECADD_PTX)
        reader.warm()
        assert reader.cache.statistics.disk_hits == 3
        assert reader.cache.statistics.disk_misses == 0

    def test_every_device_builds_the_batching_executor(self):
        for config in (None, replace(vectorized_config(4), backend="array")):
            device = Device(config=config)
            assert type(device.interpreter) is ArrayBackend

    def test_create_backend_rejects_unknown(self):
        from repro.machine import sandybridge
        from repro.machine.memory import MemorySystem

        with pytest.raises(ValueError):
            create_backend(
                "jit", sandybridge(), MemorySystem(1 << 12)
            )


# ---------------------------------------------------------------------------
# A/B: batching vs the forced-sequential leg vs the oracle
# ---------------------------------------------------------------------------


# BitonicSort: data-dependent branching (mid-kernel fallback);
# Reduction: bar.sync tree (warps park at barriers between batches);
# Clock: %clock forces precise accounting, which cannot batch;
# MatrixMul / FastWalshTransform: the biggest batch consumers among
# the barrier apps; throughput: the Table-1 FMA microbenchmark.
AB_WORKLOADS = [
    "BitonicSort",
    "Reduction",
    "Clock",
    "MatrixMul",
    "FastWalshTransform",
    "throughput",
]


class TestArrayBackendEquivalence:
    @pytest.mark.parametrize("name", AB_WORKLOADS)
    def test_modeled_statistics_bit_identical(self, name):
        workload = get_workload(name)
        config = vectorized_config(4)
        reference = workload.run_on(
            replace(config, backend="reference"), scale=0.25
        )
        batching = workload.run_on(config, scale=0.25)
        with sequential_only():
            sequential = workload.run_on(config, scale=0.25)
        assert reference.correct and batching.correct and sequential.correct
        expected = _modeled_statistics(reference.statistics)
        assert _modeled_statistics(batching.statistics) == expected
        assert _modeled_statistics(sequential.statistics) == expected
        assert sequential.statistics.batched_warps == 0
        assert reference.statistics.batched_warps == 0

    def test_batching_engages_on_uniform_kernels(self):
        workload = get_workload("throughput")
        run = workload.run_on(vectorized_config(4), scale=0.25)
        assert run.correct
        assert run.statistics.batched_warps > 0

    def test_sequential_backend_never_batches(self):
        # What forces the sequential path on a launch that would batch:
        # the test-side leg, the sanitizer, a cycle budget, static or
        # cross-CTA formation.
        workload = get_workload("throughput")
        base = vectorized_config(4)
        assert workload.run_on(base, scale=0.25).statistics.batched_warps
        with sequential_only():
            run = workload.run_on(base, scale=0.25)
        assert run.correct and run.statistics.batched_warps == 0
        for config in (
            replace(base, sanitize=True),
            replace(base, max_kernel_cycles=1 << 40),
            replace(base, static_warps=True),
            replace(base, allow_cross_cta_warps=True),
        ):
            run = workload.run_on(config, scale=0.25)
            assert run.correct and run.statistics.batched_warps == 0, config

    def test_batch_fault_traps_like_sequential(self, monkeypatch):
        # A fault inside a batch is re-executed sequentially, so the
        # structured trap names the same thread the sequential path
        # would have blamed.
        from tests.test_fault_containment import _oob_device

        batches = []
        run = ArrayBackend.execute_batch
        monkeypatch.setattr(
            ArrayBackend, "execute_batch",
            lambda *arguments: batches.append(1) or run(*arguments),
        )

        def observe():
            device = _oob_device()
            device.warm()
            buffer = device.malloc(16)
            with pytest.raises(KernelTrap) as excinfo:
                device.launch("oob", grid=1, block=64, args=[buffer])
            info = excinfo.value.info
            assert info.faulting_lanes
            return (
                info.faulting_lanes[0].tid,
                info.block_label,
                info.instruction_index,
            )

        batching = observe()
        assert batches == [1]
        with sequential_only():
            assert observe() == batching
        assert batches == [1]

    def test_divergent_workload_batches_and_falls_back(self):
        # FastWalshTransform batches (uniform butterfly stages), falls
        # back (stages whose partner test splits the batch) and yields
        # at barriers: the deferred results must re-enter the scheduler
        # in sequential order
        run = get_workload("FastWalshTransform").run_on(
            vectorized_config(4), scale=0.25
        )
        assert run.correct
        assert 0 < run.statistics.batch_fallbacks < run.statistics.batched_warps
        assert run.statistics.barrier_yields > 0


# ---------------------------------------------------------------------------
# Leaving a batch mid-kernel: the continuation transplant
# ---------------------------------------------------------------------------

#: A Collatz walk whose every step also gathers from a table at a
#: data-dependent index: the vectorizer replicates that load as a lane
#: group and packs its lanes, so the blocks around every divergent
#: ``Switch`` hold packed vectors on both sides of the
#: batched/sequential seam.
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
#: at a data-dependent index — a packed load group per iteration),
#: then a block that reads ``%clock``: no batched lowering,
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


def _table(device):
    return device.upload(np.arange(8, dtype=np.uint32) + 3)


def _walk_args(device):
    values = np.arange(192, dtype=np.uint32) * 7 + 1
    return [device.upload(values), _table(device), device.malloc(192 * 4), 192]


def _observe(backend, ptx, kernel, grid, block, make_args, limit=None):
    """One launch on a fresh, compiled Device (so the first warps can
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


class TestBatchFallback:
    """Each way a batch hands its warps to the sequential path, on a
    kernel with packed load groups on both sides of the hand-off
    and CTAs of 32 threads (one batch of ``MIN_BATCH_WARPS`` each, so
    what leaves a batch cannot form another): guest memory and modeled
    statistics must not be able to tell."""

    def _agree(self, oracle, *arguments, **options):
        device, statistics, trap, arena = _observe(
            "interpreter", *arguments, **options
        )
        if oracle == "sequential":
            with sequential_only():
                _, expected, expected_trap, expected_arena = _observe(
                    "interpreter", *arguments, **options
                )
        else:
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
        # the first CTA's batch runs into the loop's divergent Switch;
        # that is on record when the other two CTAs ask
        assert statistics.batch_fallbacks == statistics.batched_warps == 8
        # only what a batch entered was lowered for batches
        executable = device.cache.resident("walk", 4)
        assert set(executable.array_blocks) < set(executable.function.blocks)
        for width in (1, 2):
            assert not device.cache.resident("walk", width).array_blocks

    def test_untranslated_clock_block(self):
        device, statistics, trap = self._agree(
            "reference", CLOCKED_PTX, "clocked", 2, 32,
            lambda device: [_table(device), device.malloc(128 * 4), 5],
        )
        assert trap is None
        # every batch ends there (the second CTA's is not formed: the
        # first one's abort is already on record)
        assert statistics.batch_fallbacks == statistics.batched_warps == 8
        blocks = device.cache.resident("clocked", 4).array_blocks
        assert [label for label, entry in blocks.items() if entry is None]

    def test_conservative_instruction_limit_exit(self):
        # The runaway cap ends the launch in a trap either way. Partial
        # statistics are compared with the sequential leg's (the
        # reference stops mid-block, the generated code after it).
        device, statistics, trap = self._agree(
            "sequential", CLOCKED_PTX, "clocked", 2, 32,
            lambda device: [_table(device), device.malloc(128 * 4), 1000],
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


#: The tree-reduction shape: one entry point (after the barrier) whose
#: batches alternate. On even trips every warp agrees and the batch
#: reaches the next barrier; on odd trips neighbouring warps disagree
#: (each uniform in itself, as ``tid < s`` is in a tree reduction) and
#: the batch runs into a divergent ``Switch``.
ALTERNATING_PTX = ZIGZAG_PTX.replace("zigzag", "alternating").replace(
    "add.u32 %r8, %r10, %r6;", "and.b32 %r8, %r10, %r6;"
)


def _device(ptx):
    """A compiled Device: its very first window can batch."""
    device = Device(config=vectorized_config(4))
    device.register_module(ptx)
    device.warm()
    return device


def _barrier_loop(device, kernel="zigzag", trips=4):
    dst = device.malloc(4 * 32 * 4)
    statistics = device.launch(
        kernel, grid=4, block=32, args=[dst, trips]
    ).statistics
    values = dst.read(np.uint32, 4 * 32)
    device.free(dst)
    return statistics, values


def _vecadd(device, grid, block, n):
    total = grid * block
    a = np.arange(total, dtype=np.float32)
    b = np.ones(total, dtype=np.float32)
    buffers = [device.upload(a), device.upload(b), device.malloc(total * 4)]
    statistics = device.launch(
        "vecAdd", grid=grid, block=block, args=[*buffers, n]
    ).statistics
    assert np.array_equal(
        buffers[2].read(np.float32, total)[:n], (a + b)[:n]
    )
    for buffer in buffers:
        device.free(buffer)
    return statistics


def _touch(device):
    device.warm()
    out = device.malloc(65 * 4)
    statistics = device.launch("k", grid=1, block=64, args=[out]).statistics
    values = out.read(np.uint32, 64)
    device.free(out)
    return statistics, values


def _histories(ptx, kernel, launches):
    """``(batched_warps, batch_fallbacks)`` per launch on two Devices
    given the same history, every launch checked against the oracle."""
    reference = Device(
        config=replace(vectorized_config(4), backend="reference")
    )
    reference.register_module(ptx)
    expected, expected_values = _barrier_loop(reference, kernel)
    histories = []
    for _ in range(2):
        device = _device(ptx)
        history = []
        for _ in range(launches):
            statistics, values = _barrier_loop(device, kernel)
            # which path a warp took never shows in what it computed
            assert np.array_equal(values, expected_values)
            assert _modeled_statistics(statistics) == (
                _modeled_statistics(expected)
            )
            history.append(
                (statistics.batched_warps, statistics.batch_fallbacks)
            )
        histories.append(history)
    # a function of the launch history, never of the host's clock
    assert histories[0] == histories[1]
    return histories[0]


class TestBatchAdmission:
    def test_fewer_than_the_floor_never_batch(self):
        # The size rule. 8 CTAs of 7 full warps (and of 7 and a
        # half): no key ever holds MIN_BATCH_WARPS full warps. One more
        # warp per CTA and every CTA is one batch.
        assert MIN_BATCH_WARPS == 8
        device = _device(VECADD_PTX)
        for block in (28, 30):
            statistics = _vecadd(device, 8, block, 8 * block)
            assert statistics.batched_warps == 0
            with sequential_only():
                sequential = _vecadd(device, 8, block, 8 * block)
            assert _modeled_statistics(statistics) == (
                _modeled_statistics(sequential)
            )
            assert statistics.cache.hits == sequential.cache.hits
            assert device.cache.resident("vecAdd", 4).array_blocks == {}
        assert _vecadd(device, 8, 32, 8 * 32).batched_warps == 8 * 8

    def test_consistent_divergence_stops_being_batched(self):
        history = _histories(ZIGZAG_PTX, "zigzag", launches=10)
        fallbacks = [fell_back for _, fell_back in history]
        # The entry point after the barrier is asked 16 times a launch
        # and aborts whenever it is admitted: at its 1st and 6th
        # opportunity (launch 0), its 23rd (launch 1), its 88th
        # (launch 5) and not again before its 345th.
        assert fallbacks == [16, 8, 0, 0, 0, 8, 0, 0, 0, 0]
        # the entry point that completes (the run up to the first
        # barrier) is batched in every launch
        assert all(
            batched - fell_back == 4 * 8 for batched, fell_back in history
        )

    def test_alternating_entry_point_backs_off(self):
        # The outcome rule weighs an abort above a completion: one
        # completed batch between two aborted ones does not reset the
        # back-off (it did, so this shape kept batching at a loss).
        history = _histories(ALTERNATING_PTX, "alternating", launches=12)
        aborted = [fell_back // 8 for _, fell_back in history]
        assert aborted[0] >= 2
        assert sum(aborted[6:]) <= 1
        device = _device(ALTERNATING_PTX)
        for _ in range(12):
            _barrier_loop(device, "alternating")
        outcomes = device.cache.resident("alternating", 4).array_blocks.outcomes
        entry, (score, refusals) = max(
            outcomes.items(), key=lambda item: item[1][0]
        )
        assert score >= 9 and refusals >= 64
        # and the straight run up to the first barrier keeps its credit
        assert min(record[0] for record in outcomes.values()) < 0

    def test_guarded_uniform_kernel_keeps_batching(self):
        # 8 CTAs of 8 warps; in the last one warps 0-2 are in bounds,
        # warp 3 is mixed, the rest are out: its batch aborts in every
        # launch. Seven completions to one abort never leave credit,
        # so it costs the next launch nothing.
        device = _device(VECADD_PTX)
        for _ in range(10):
            statistics = _vecadd(device, 8, 32, 7 * 32 + 14)
            assert statistics.batch_fallbacks == 8
            assert statistics.batched_warps == 8 * 8
        outcomes = device.cache.resident("vecAdd", 4).array_blocks.outcomes
        assert outcomes == {0: [-5, 0]}

    def test_faulting_batch_is_not_recorded(self, monkeypatch):
        from tests.test_fault_containment import _oob_device

        device = _oob_device()
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
        def registered(ptx):
            device = Device(config=vectorized_config(4))
            device.register_module(ptx)
            return device

        fresh, expected = _touch(registered(PLAIN_K))
        assert fresh.batched_warps == 16
        device = registered(ATOMIC_K)
        statistics, _ = _touch(device)
        assert statistics.batched_warps == 0
        assert device.cache.resident("k", 4).array_blocks is None
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

    def test_a_cold_window_does_not_batch(self):
        # Batching is settled per window from what is in the cache
        # when it starts: the first launch of an unwarmed kernel runs
        # its (only) window sequentially, the second one batches.
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        assert _vecadd(device, 1, 64, 64).batched_warps == 0
        assert _vecadd(device, 1, 64, 64).batched_warps == 16


class TestWatchdogParity:
    """A batch's warps finish one per round-robin visit, like the
    sequential loop's: the between-warp watchdog is asked after each
    exactly when it is there — a cycle budget or a deadline is set."""

    def test_unwatched_launch_never_asks_the_watchdog(self, monkeypatch):
        from repro.runtime.execution_manager import ExecutionManager

        asked = []
        monkeypatch.setattr(
            ExecutionManager, "_check_watchdog",
            lambda self, window: asked.append(window),
        )
        device = _device(VECADD_PTX)
        assert _vecadd(device, 2, 32, 64).batched_warps == 16
        assert asked == []

    def test_deadline_fires_at_the_same_program_points(self):
        # The deadline has passed when the first warp's yield has been
        # handled: the batching leg has run the whole first CTA by
        # then, the sequential one its first warp — and both report
        # the CTA's other threads ready at the kernel's entry.
        from repro.errors import LaunchTimeout

        def timed_out():
            device = Device(config=replace(
                vectorized_config(4), launch_timeout_s=1e-6
            ))
            device.register_module(VECADD_PTX)
            device.warm()
            buffers = [device.malloc(64 * 4) for _ in range(3)]
            with pytest.raises(LaunchTimeout) as excinfo:
                device.launch(
                    "vecAdd", grid=2, block=32, args=[*buffers, 64]
                )
            return (
                str(excinfo.value),
                [str(point) for point in excinfo.value.program_points],
                excinfo.value.statistics.batched_warps,
            )

        message, points, batched = timed_out()
        # (a window is one CTA: its other seven warps)
        assert "wall-clock deadline" in message and len(points) == 28
        assert batched == 8
        with sequential_only():
            assert timed_out() == (message, points, 0)


def _batch_calls(monkeypatch):
    """Per ``execute_batch`` call from now on, the CTA of each warp."""
    calls = []
    run = ArrayBackend.execute_batch

    def recorded(self, executable, warps, *arguments):
        calls.append([warp.cta for warp in warps])
        return run(self, executable, warps, *arguments)

    monkeypatch.setattr(ArrayBackend, "execute_batch", recorded)
    return calls


def _workers(ctas):
    """The worker of each CTA of a grid of ``ctas`` on four cores."""
    return {
        cta: worker
        for worker, share in enumerate(partition_ctas(ctas, 4))
        for cta in share
    }


#: Four CTAs of 64 threads, one a worker. ``flag`` 1: CTA 1 branches
#: to a wild store, so a batch of its warps leaves at the branch and
#: they fault on the sequential path; ``flag`` 2: CTA 1's first store
#: is wild, so a batch holding its warps faults. Either way CTA 0
#: stores wild after the barrier.
TRAP_ORDER_PTX = r"""
.version 2.3
.target sim
.entry order (.param .u64 out, .param .u32 flag)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<7>;
  .reg .pred %p<4>;
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %tid.x;
  ld.param.u32 %r3, [flag];
  ld.param.u64 %rd1, [out];
  mad.lo.u32 %r4, %r1, 64, %r2;
  mul.wide.u32 %rd2, %r4, 4;
  add.u64 %rd3, %rd1, %rd2;
  setp.eq.u32 %p1, %r1, 1;
  setp.eq.u32 %p2, %r3, 2;
  and.pred %p3, %p1, %p2;
  selp.u32 %r5, 67108864, 0, %p3;
  cvt.u64.u32 %rd4, %r5;
  add.u64 %rd5, %rd3, %rd4;
  st.global.u32 [%rd5], %r4;
  setp.eq.u32 %p2, %r3, 1;
  and.pred %p3, %p1, %p2;
  @%p3 bra WILD;
  bar.sync 0;
  setp.eq.u32 %p1, %r1, 0;
  setp.ne.u32 %p2, %r3, 0;
  and.pred %p3, %p1, %p2;
  selp.u32 %r5, 67108864, 0, %p3;
  cvt.u64.u32 %rd4, %r5;
  add.u64 %rd5, %rd3, %rd4;
  st.global.u32 [%rd5], %r2;
  exit;
WILD:
  add.u64 %rd6, %rd3, 67108864;
  st.global.u32 [%rd6], %r2;
  exit;
}
"""


class TestOpeningRound:
    """Every worker's first window opens before any worker runs, and
    the warps their loops would batch first at the entry point run as
    one batch, once the entry point's record holds full credit."""

    def test_a_uniform_launch_opens_with_one_batch(self, monkeypatch):
        device = _device(VECADD_PTX)
        calls = _batch_calls(monkeypatch)
        # a fresh record merges nothing: four batches a launch, one a
        # worker, until eight completed batches give the full credit
        for _ in range(2):
            _vecadd(device, 4, 64, 256)
            assert len(calls) == 4
            calls.clear()
        statistics = _vecadd(device, 4, 64, 256)
        assert len(calls) == 1 and len(calls[0]) == 4 * 16
        assert {_workers(4)[cta] for cta in calls[0]} == {0, 1, 2, 3}
        assert statistics.batched_warps == 64
        assert statistics.batch_fallbacks == 0

    def test_two_ctas_a_worker_open_with_one_batch(self, monkeypatch):
        # throughput at scale 0.5: eight CTAs of 72 threads, two a
        # worker in one window, eighteen warps a CTA
        workload = type(get_workload("throughput"))()
        device = Device(config=vectorized_config(4))
        workload.prepare(device)
        device.warm()
        for _ in range(2):
            workload.execute(device, scale=0.5)
        calls = _batch_calls(monkeypatch)
        run = workload.execute(device, scale=0.5)
        assert len(run.launches) == 1
        assert run.launches[0].geometry.cta_count == 8
        assert len(calls) == 1
        assert sorted(set(calls[0])) == list(range(8))
        assert run.statistics.batched_warps == len(calls[0])

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_every_app_matches_its_sequential_run(self, cores, monkeypatch):
        # three runs a Device, so uniform entry points reach the full
        # credit and open with one batch; every run's bytes and
        # modeled statistics are the forced-sequential run's
        machine = replace(sandybridge(), cores=cores)

        def history(name):
            workload = type(get_workload(name))()
            device = Device(machine=machine, config=vectorized_config(4))
            workload.prepare(device)
            device.warm()
            runs = []
            for _ in range(3):
                statistics = workload.execute(device, scale=0.25).statistics
                used = device.memory.bytes_allocated
                runs.append((
                    _modeled_statistics(statistics),
                    device.memory.data[:used].tobytes(),
                ))
            return runs

        calls = _batch_calls(monkeypatch)
        merged = []
        for workload in all_workloads():
            calls.clear()
            batching = history(workload.name)
            if any(len(set(ctas)) > 1 for ctas in calls):
                merged.append(workload.name)
            with sequential_only():
                assert history(workload.name) == batching, workload.name
        assert {"BoxFilter", "MatrixMul", "Reduction"} <= set(merged)

    @pytest.mark.parametrize("flag", [1, 2])
    def test_the_first_worker_to_trap_is_reported(self, flag, monkeypatch):
        # CTA 1 (worker 1) faults in the opening round: flag 1 on the
        # sequential path after the batch left, flag 2 inside it (the
        # round takes nothing). CTA 0 (worker 0) faults later, after
        # its barrier. Worker 0 drains first, so its trap is the one.
        def trapped():
            device = _device(TRAP_ORDER_PTX)
            out = device.malloc(4 * 256)
            for _ in range(3):
                device.launch("order", grid=4, block=64, args=[out, 0])
            calls.clear()
            with pytest.raises(KernelTrap) as excinfo:
                device.launch("order", grid=4, block=64, args=[out, flag])
            info = excinfo.value.info
            return (
                info.worker_id, info.warp_id, info.block_label,
                info.instruction_index, info.registers,
                [lane.tid for lane in info.faulting_lanes],
                _modeled_statistics(excinfo.value.statistics),
            )

        calls = _batch_calls(monkeypatch)
        batching = trapped()
        assert batching[0] == 0
        # the opening round ran all four workers' warps as one batch
        assert sorted(set(calls[0])) == [0, 1, 2, 3]
        if flag == 2:  # it faulted: worker 0's loop batches its own
            assert set(calls[1]) == {0}
        with sequential_only():
            assert trapped() == batching


#: ``(batched_warps, batch_fallbacks)`` of every registered app's first
#: run (default seed, scale 0.25) on a compiled Device under
#: ``vectorized_config(4)``. Admission reads queue lengths and batch
#: outcomes only, so these repeat exactly; a change to a rule, a
#: constant or the formation order shows up here as a diff. (A
#: divergent app's ``(n, n)`` are the batches its entry points are
#: given before the record refuses them.)
CENSUS = {
    "AbsDiff": (37, 37),
    "AlignedTypes": (32, 0),
    "AsyncAPI": (32, 0),
    "BicubicTexture": (32, 0),
    "BinomialOptions": (80, 80),
    "Bisect": (97, 81),
    "BitonicSort": (208, 48),
    "BlackScholes": (32, 0),
    "BoxFilter": (64, 0),
    "Clock": (8, 8),
    "Collatz": (88, 70),
    "ConvolutionSeparable": (64, 0),
    "DwtHaar1D": (32, 0),
    "Eigenvalues": (16, 16),
    "FastWalshTransform": (190, 53),
    "GradClamp": (37, 37),
    "Histogram256": (0, 0),
    "Histogram64": (0, 0),
    "ImageDenoising": (32, 0),
    "MatrixMul": (320, 0),
    "MersenneTwister": (28, 28),
    "MonteCarlo": (32, 0),
    "Nbody": (8, 0),
    "OptionPayoff": (64, 0),
    "QuasirandomGenerator": (32, 0),
    "RecursiveGaussian": (16, 0),
    "Reduction": (185, 100),
    "ScalarProd": (56, 24),
    "Scan": (165, 94),
    "ScanLargeArray": (128, 56),
    "SharedToggle": (32, 0),
    "SimpleAtomicIntrinsics": (0, 0),
    "SimpleVoteIntrinsics": (0, 0),
    "SobelFilter": (37, 37),
    "SobolQRNG": (32, 0),
    "Template": (64, 0),
    "ThreadFenceReduction": (0, 0),
    "Transpose": (128, 0),
    "TransposeNew": (64, 0),
    "cp": (32, 0),
    "mri-fhd": (41, 33),
    "mri-q": (41, 33),
    "throughput": (144, 0),
}

#: ``(blocks printed for a batch, blocks the batch printer declined)``
#: of the same runs: every block a batch entered is one or the other. A
#: block moving right is coverage lost — its batches leave there and
#: the warps finish one at a time, correctly and silently — so that is
#: a diff here, not a slowdown somewhere. (Clock's one is its
#: ``%clock`` block; the all-zero apps hold atomics, which get no
#: batched lowering at all, or never gather ``MIN_BATCH_WARPS`` warps.)
COVERAGE = {
    "AbsDiff": (3, 0),
    "AlignedTypes": (4, 0),
    "AsyncAPI": (4, 0),
    "BicubicTexture": (4, 0),
    "BinomialOptions": (6, 0),
    "Bisect": (10, 0),
    "BitonicSort": (8, 0),
    "BlackScholes": (4, 0),
    "BoxFilter": (6, 0),
    "Clock": (1, 1),
    "Collatz": (11, 0),
    "ConvolutionSeparable": (6, 0),
    "DwtHaar1D": (2, 0),
    "Eigenvalues": (4, 0),
    "FastWalshTransform": (7, 0),
    "GradClamp": (3, 0),
    "Histogram256": (0, 0),
    "Histogram64": (0, 0),
    "ImageDenoising": (6, 0),
    "MatrixMul": (8, 0),
    "MersenneTwister": (4, 0),
    "MonteCarlo": (6, 0),
    "Nbody": (6, 0),
    "OptionPayoff": (4, 0),
    "QuasirandomGenerator": (6, 0),
    "RecursiveGaussian": (6, 0),
    "Reduction": (7, 0),
    "ScalarProd": (8, 0),
    "Scan": (11, 0),
    "ScanLargeArray": (10, 0),
    "SharedToggle": (4, 0),
    "SimpleAtomicIntrinsics": (0, 0),
    "SimpleVoteIntrinsics": (0, 0),
    "SobelFilter": (3, 0),
    "SobolQRNG": (6, 0),
    "Template": (4, 0),
    "ThreadFenceReduction": (0, 0),
    "Transpose": (3, 0),
    "TransposeNew": (4, 0),
    "cp": (4, 0),
    "mri-fhd": (8, 0),
    "mri-q": (8, 0),
    "throughput": (4, 0),
}


class TestAdmissionCensus:
    @staticmethod
    def _first_run(name, config=None):
        device = Device(config=config or vectorized_config(4))
        workload = type(get_workload(name))()
        workload.prepare(device)
        device.warm()
        statistics = workload.execute(device, scale=0.25).statistics
        used = device.memory.bytes_allocated
        tables = [
            device.cache.resident(*specialization).array_blocks
            for specialization in device.cache.cached_specializations()
        ]
        entries = [
            entry for table in tables if table for entry in table.values()
        ]
        declined = entries.count(None)
        return (
            statistics,
            device.memory.data[:used].copy(),
            (len(entries) - declined, declined),
        )

    def test_census_covers_every_registered_app(self):
        assert sorted(CENSUS) == sorted(
            workload.name for workload in all_workloads()
        )

    @pytest.mark.parametrize("name", sorted(CENSUS))
    def test_batches_are_pinned_and_invisible(self, name):
        statistics, arena, coverage = self._first_run(name)
        assert (
            statistics.batched_warps, statistics.batch_fallbacks
        ) == CENSUS[name]
        assert coverage == COVERAGE[name]
        with sequential_only():
            sequential, sequential_arena, _ = self._first_run(name)
        assert sequential.batched_warps == 0
        assert _modeled_statistics(statistics) == (
            _modeled_statistics(sequential)
        )
        assert np.array_equal(arena, sequential_arena)


#: Per app, the first 12 hex digits of a sha256 over every warp
#: execution of the same first runs, in order: the warp id, each
#: member's ``(linear_ctaid, tid)`` and each member's resume point
#: after the execution. Which threads form a warp, in what order, and
#: where they go next is the sequential schedule; a batch must not be
#: able to change any of it, so a change to formation, to the ready
#: pool or to how batched warps re-enter it shows up here as a diff.
#: (9 984 warp executions, 2 730 of them run by a batch; apps of one
#: uniform launch of the same geometry share a digest.)
FORMATION = {
    "AbsDiff": "5dbf46c28b14",
    "AlignedTypes": "1b0b52b9bf60",
    "AsyncAPI": "1b0b52b9bf60",
    "BicubicTexture": "1b0b52b9bf60",
    "BinomialOptions": "882fa8e4d730",
    "Bisect": "a573ec520d77",
    "BitonicSort": "56a940af3db8",
    "BlackScholes": "f68b65851e77",
    "BoxFilter": "2a4cbdcc7da4",
    "Clock": "563525c4c1cd",
    "Collatz": "87f8ef0179db",
    "ConvolutionSeparable": "2a4cbdcc7da4",
    "DwtHaar1D": "1b0b52b9bf60",
    "Eigenvalues": "b9790fa15295",
    "FastWalshTransform": "e6a933bb6eb9",
    "GradClamp": "6eeed798cad6",
    "Histogram256": "2a4cbdcc7da4",
    "Histogram64": "db5eba25f49a",
    "ImageDenoising": "1b0b52b9bf60",
    "MatrixMul": "9f6a3f488c21",
    "MersenneTwister": "952312e715e0",
    "MonteCarlo": "1b0b52b9bf60",
    "Nbody": "8183af65b83c",
    "OptionPayoff": "d12792809c83",
    "QuasirandomGenerator": "1b0b52b9bf60",
    "RecursiveGaussian": "6e2dd14fe6d6",
    "Reduction": "20526fdedcc4",
    "ScalarProd": "25e9fd2f16aa",
    "Scan": "3985a6df8433",
    "ScanLargeArray": "618841c7aa42",
    "SharedToggle": "fec016bd7abc",
    "SimpleAtomicIntrinsics": "6f6a917c50f6",
    "SimpleVoteIntrinsics": "0f41cdb9b371",
    "SobelFilter": "5aa1c59dfdfc",
    "SobolQRNG": "1b0b52b9bf60",
    "Template": "2a4cbdcc7da4",
    "ThreadFenceReduction": "7441f0f054da",
    "Transpose": "ad17ea7dd2e6",
    "TransposeNew": "2a4cbdcc7da4",
    "cp": "1b0b52b9bf60",
    "mri-fhd": "2588132ea786",
    "mri-q": "2588132ea786",
    "throughput": "c17d1a517704",
}


#: The same digest over the 24 apps whose warps keep yielding (the
#: benchmark's ``yield`` family) under the two formation policies that
#: never batch, so ``FORMATION`` cannot see them: static formation
#: (``static_warps``: a consecutive ``tid.x`` run of one CTA row) and
#: dynamic formation across CTAs (``allow_cross_cta_warps``: the key
#: is the entry point alone, barrier and exit bookkeeping per thread).
FORMATION_STATIC = {
    "AbsDiff": "62d82ffd07fc",
    "BinomialOptions": "d6c098d9b8e6",
    "Bisect": "ef3d6d8ccca7",
    "BitonicSort": "d3852772f7ab",
    "Clock": "6102a80da960",
    "Collatz": "255b7ccc5b94",
    "Eigenvalues": "e596ec049117",
    "FastWalshTransform": "1b91d6be9a0e",
    "GradClamp": "20baf88d54d8",
    "Histogram256": "203ded44ef36",
    "Histogram64": "295ada08a76d",
    "MatrixMul": "219e946f0712",
    "MersenneTwister": "c1fe99ebcc1c",
    "OptionPayoff": "e39fbde37442",
    "Reduction": "319b85feb869",
    "Scan": "118d98583104",
    "ScanLargeArray": "c52052f29063",
    "SharedToggle": "88da7652d75d",
    "SimpleAtomicIntrinsics": "c3670e593e5c",
    "SimpleVoteIntrinsics": "fc5ee64bf1f8",
    "ThreadFenceReduction": "8f8c062deafa",
    "Transpose": "56191713c5b7",
    "mri-fhd": "f59ffcddf2ec",
    "mri-q": "f59ffcddf2ec",
}

FORMATION_CROSS_CTA = {
    "AbsDiff": "d026849f4b6d",
    "BinomialOptions": "771179bb822f",
    "Bisect": "69fd0a3eba79",
    "BitonicSort": "d3d9f3dba762",
    "Clock": "957cf3d26c21",
    "Collatz": "6de53a82c15d",
    "Eigenvalues": "ae94ba45b564",
    "FastWalshTransform": "b0f9bf157f15",
    "GradClamp": "dcc774754ca8",
    "Histogram256": "2a4cbdcc7da4",
    "Histogram64": "db5eba25f49a",
    "MatrixMul": "9f6a3f488c21",
    "MersenneTwister": "0072e5e4ffb8",
    "OptionPayoff": "7df1114eb2fb",
    "Reduction": "785ee761fd7a",
    "Scan": "543a43ddb4c7",
    "ScanLargeArray": "71a1e6a02f1b",
    "SharedToggle": "f0cfc2fea1b3",
    "SimpleAtomicIntrinsics": "6f6a917c50f6",
    "SimpleVoteIntrinsics": "0f41cdb9b371",
    "ThreadFenceReduction": "7441f0f054da",
    "Transpose": "ad17ea7dd2e6",
    "mri-fhd": "e2fd1c9267dd",
    "mri-q": "e2fd1c9267dd",
}


class TestFormationCensus:
    @staticmethod
    def _formation(name, monkeypatch, config=None):
        from repro.runtime.execution_manager import ExecutionManager

        digest = hashlib.sha256()
        run_warp = ExecutionManager._run_warp

        def recorded(self, window, warp, *arguments, **options):
            run_warp(self, window, warp, *arguments, **options)
            digest.update(repr((
                warp.warp_id,
                [(c.linear_ctaid, c.tid) for c in warp.contexts],
                [c.resume_point for c in warp.contexts],
            )).encode())

        # at class level: a trace callback would switch batching off
        monkeypatch.setattr(ExecutionManager, "_run_warp", recorded)
        statistics, _, _ = TestAdmissionCensus._first_run(name, config)
        return digest.hexdigest()[:12], statistics.batched_warps

    def test_census_covers_every_registered_app(self):
        assert sorted(FORMATION) == sorted(CENSUS)

    @pytest.mark.parametrize("name", sorted(CENSUS))
    def test_formation_is_pinned(self, name, monkeypatch):
        digest, batched = self._formation(name, monkeypatch)
        assert batched == CENSUS[name][0]
        assert digest == FORMATION[name]

    def test_the_unbatched_policies_pin_one_family(self):
        assert sorted(FORMATION_CROSS_CTA) == sorted(FORMATION_STATIC)

    @pytest.mark.parametrize("name", sorted(FORMATION_STATIC))
    def test_static_formation_is_pinned(self, name, monkeypatch):
        config = replace(vectorized_config(4), static_warps=True)
        digest, batched = self._formation(name, monkeypatch, config)
        assert batched == 0
        assert digest == FORMATION_STATIC[name]

    @pytest.mark.parametrize("name", sorted(FORMATION_CROSS_CTA))
    def test_cross_cta_formation_is_pinned(self, name, monkeypatch):
        config = replace(vectorized_config(4), allow_cross_cta_warps=True)
        digest, batched = self._formation(name, monkeypatch, config)
        assert batched == 0
        assert digest == FORMATION_CROSS_CTA[name]


class TestMemoryCountCensus:
    """The memory system's load and store counts, which the inline and
    batch templates add once per straight-line run of the local accesses
    the frame proves, are the reference's — per launch, on every app,
    batching, one warp at a time, and through the guest-access seam."""

    @staticmethod
    def _counts(name, backend="interpreter", checked=False):
        device = Device(config=replace(vectorized_config(4), backend=backend))
        workload = type(get_workload(name))()
        workload.prepare(device)
        device.warm()
        if checked:
            # a patched seam: every warp runs the checked template
            FaultInjector(device, seed=0).arm("memory_fault", probability=0)
        memory, launch, counts = device.memory, device.launch, []

        def counted(*args, **kwargs):
            before = memory.load_count, memory.store_count
            result = launch(*args, **kwargs)
            counts.append((
                memory.load_count - before[0], memory.store_count - before[1]
            ))
            return result

        device.launch = counted
        workload.execute(device, scale=0.25)
        assert counts
        if checked:
            tables = {
                access
                for key in device.cache.cached_specializations()
                for access in device.cache.resident(*key).code
            }
            assert tables == {"checked"}
        return counts

    @pytest.mark.parametrize(
        "name", sorted(workload.name for workload in all_workloads())
    )
    def test_counts_are_the_references(self, name):
        expected = self._counts(name, backend="reference")
        assert self._counts(name) == expected
        with sequential_only():
            assert self._counts(name) == expected
        assert self._counts(name, checked=True) == expected


# ---------------------------------------------------------------------------
# One ready queue: a batch's warps wait, pre-run, in their own key's queue
# ---------------------------------------------------------------------------


def _context(tid, entry=0, cta=0):
    return ThreadContext(
        tid=(tid, 0, 0),
        ntid=(64, 1, 1),
        ctaid=(cta, 0, 0),
        nctaid=(4, 1, 1),
        resume_point=entry,
    )


def _pre_run(contexts, tag):
    """A pre-run entry as a batch leaves it: only its warp's threads
    and its identity matter to the pool."""
    return (Warp(contexts=list(contexts)), tag, None, None, None)


def _tids(contexts):
    return [context.tid[0] for context in contexts]


class _PerThreadPool:
    """The reference model: the ready pool as it was before chunks, one
    queue entry per thread (verbatim but for the docstrings, and a
    batch filing every warp it ran without moving the round-robin). The
    chunked pool must hand out the same threads in the same order."""

    def __init__(self, cross_cta: bool = False):
        self._queues: "OrderedDict[tuple, deque]" = OrderedDict()
        self._cross_cta = cross_cta
        self.size = 0

    def _advance(self, key: tuple, queue: deque) -> None:
        if queue:
            self._queues.move_to_end(key)
        else:
            del self._queues[key]

    def push(self, context: ThreadContext) -> None:
        key = (
            (context.resume_point,)
            if self._cross_cta
            else (context.resume_point, context.linear_ctaid)
        )
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        queue.append(context)
        self.size += 1

    def pop_ran(self):
        queue = next(iter(self._queues.values()))
        entry = queue[0]
        if entry.__class__ is not tuple:
            return None
        queue.popleft()
        self.size -= entry[0].size
        self._advance(next(iter(self._queues)), queue)
        return entry

    def head_batch(self, floor: int):
        queue = next(iter(self._queues.values()))
        return queue if len(queue) >= floor else None

    def take_batch(self, threads: int, entries) -> None:
        queue = next(iter(self._queues.values()))
        for _ in range(threads):
            queue.popleft()
        queue.extendleft(reversed(entries))
        self.size -= threads - sum(entry[0].size for entry in entries)

    def pop_group(self, limit: int):
        key, queue = next(iter(self._queues.items()))
        members = [queue.popleft() for _ in range(min(limit, len(queue)))]
        self.size -= len(members)
        self._advance(key, queue)
        return members

    def contexts(self):
        for queue in self._queues.values():
            for entry in queue:
                if entry.__class__ is tuple:
                    yield from entry[0].contexts
                else:
                    yield entry

    def __bool__(self):
        return self.size > 0


_STEPS = st.one_of(
    # a warp yields: each lane to a random entry point (and, under
    # cross-CTA formation, from a random CTA)
    st.tuples(
        st.just("yield"),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                 min_size=1, max_size=12),
    ),
    # a visit that forms one warp, and hands some of it back
    st.tuples(st.just("pop"), st.integers(1, 9), st.integers(0, 9)),
    # a visit that batches the head key, when it holds the floor
    st.tuples(st.just("batch"), st.integers(1, 4), st.integers(1, 4)),
)


class TestOneReadyQueue:
    def test_the_floor_is_asked_of_the_head_key(self):
        # the size rule, in threads: one short and nothing is formed;
        # at the floor the head queue is shown, nothing taken
        pool = _ReadyPool()
        for tid in range(7):
            pool.push([_context(tid)], 0)
        assert pool.head_batch(8) is None
        pool.push([_context(7)], 0)
        assert _tids(pool.head_batch(8)[1]) == list(range(8))
        assert pool.size == 8
        # only the head key is asked: a long queue behind it waits for
        # its round-robin turn
        pool = _ReadyPool()
        pool.push([_context(0, entry=1)], 0)
        for tid in range(1, 9):
            pool.push([_context(tid, entry=2)], 0)
        assert pool.head_batch(8) is None

    def test_a_batch_round_advances_the_round_robin_one_step(self):
        # A batch at key A leaves A at the head with every warp it ran
        # pre-run; the loop's next visit hands out the first, which
        # moves A behind key B, exactly as popping the batch's first
        # warp would: B is served before A's second warp.
        pool = _ReadyPool()
        batched = [_context(tid, entry=0) for tid in range(4)]
        for context in batched:
            pool.push([context], 0)
        for tid in range(4, 6):
            pool.push([_context(tid, entry=1)], 0)
        pool.take_batch((0, 0), 4, [
            _pre_run(batched[:2], "first"), _pre_run(batched[2:], "second")
        ])
        assert pool.size == 6
        assert pool.pop_ran()[1] == "first"
        assert pool.size == 4
        assert pool.pop_ran() is None
        assert _tids(pool.pop_group(2)[1]) == [4, 5]
        assert pool.pop_ran()[1] == "second"
        assert not pool

    def test_pre_run_warps_drain_ahead_of_the_rest(self):
        # Four warps of two ran as a batch; threads 8 and 9 are the
        # key's remainder, 10 and 11 arrive later. The pre-run warps
        # come out first, in formation order, one per visit; then the
        # threads, FIFO.
        pool = _ReadyPool()
        contexts = [_context(tid) for tid in range(10)]
        for context in contexts:
            pool.push([context], 0)
        pool.take_batch(
            (0, 0), 8, [_pre_run(contexts[i : i + 2], i) for i in (0, 2, 4, 6)]
        )
        for tid in (10, 11):
            pool.push([_context(tid)], 0)
        assert pool.size == 12
        assert [pool.pop_ran()[1] for _ in range(4)] == [0, 2, 4, 6]
        assert pool.pop_ran() is None and pool.size == 4
        assert _tids(pool.pop_group(4)[1]) == [8, 9, 10, 11]
        assert not pool

    def test_a_faulting_batch_leaves_the_queue_as_it_found_it(
        self, monkeypatch
    ):
        # The batch's warps are formed from the queue, not taken off
        # it: after a fault the sequential former finds the same
        # threads in the same order and forms the same warps.
        from repro.errors import MemoryFault
        from repro.runtime.execution_manager import LaunchGeometry, _Window

        device = _device(VECADD_PTX)
        manager = device.launcher.managers[0]
        executable = device.cache.resident("vecAdd", 4)
        batches = []

        def faulting(executable, warps, *arguments):
            batches.append([_tids(warp.contexts) for warp in warps])
            raise MemoryFault(0, 4, reason="injected")

        monkeypatch.setattr(device.interpreter, "execute_batch", faulting)
        ready = _ReadyPool()
        contexts = [_context(tid) for tid in range(34)]
        for context in contexts:
            ready.push([context], 0)
        window = _Window(
            "vecAdd", LaunchGeometry((1, 1, 1), (64, 1, 1)), 0, {},
            ready, {0: 64}, {0: []}, False,
        )
        assert not manager._execute_batch_round(
            window, executable, *ready.head_batch(8 * 4)
        )
        assert batches == [
            [list(range(4 * i, 4 * i + 4)) for i in range(8)]
        ]
        assert ready.size == 34
        assert all(a is b for a, b in zip(ready.contexts(), contexts))
        assert len(list(ready.contexts())) == 34
        assert ready.pop_ran() is None

    def test_contexts_lists_pre_run_threads_in_queue_order(self):
        # watchdog/deadlock reports see a pre-run warp's threads where
        # the warp waits
        pool = _ReadyPool()
        contexts = [_context(tid) for tid in range(6)]
        for context in contexts:
            pool.push([context], 0)
        pool.push([_context(6, entry=1)], 0)
        pool.take_batch((0, 0), 4, [
            _pre_run(contexts[:2], "first"), _pre_run(contexts[2:4], "second")
        ])
        assert _tids(pool.contexts()) == [0, 1, 2, 3, 4, 5, 6]
        pool.pop_ran()
        assert _tids(pool.contexts()) == [6, 2, 3, 4, 5]

    @settings(max_examples=150, deadline=None)
    @given(cross_cta=st.booleans(), steps=st.lists(_STEPS, max_size=40))
    def test_chunks_hand_out_what_threads_would(self, cross_cta, steps):
        # The chunked pool against the per-thread one, over random
        # interleavings of yields, pops (extras handed back), batches
        # and their pre-run warps: every visit hands out the same
        # threads in the same order, and the queued threads are the
        # same list, a pre-run warp's in its place.
        pool, model = _ReadyPool(cross_cta), _PerThreadPool(cross_cta)
        tid = 0

        def arrive(contexts, cta):
            pool.push(list(contexts), cta)
            for context in contexts:
                model.push(context)

        for step in steps:
            if step[0] == "yield":
                cta = step[1][0][1]
                contexts = []
                for point, own in step[1]:
                    contexts.append(_context(
                        tid, entry=point, cta=own if cross_cta else cta
                    ))
                    tid += 1
                arrive(contexts, None if cross_cta else cta)
            elif pool:
                # a visit: a pre-run warp at the head first
                ran = pool.pop_ran()
                assert ran is model.pop_ran()
                if ran is None and step[0] == "pop":
                    _, limit, keep = step
                    key, members = pool.pop_group(limit)
                    expected = model.pop_group(limit)
                    assert members == expected
                    assert all(a is b for a, b in zip(members, expected))
                    first = members[0]
                    assert key == (
                        first.resume_point,
                        None if cross_cta else first.linear_ctaid,
                    )
                    if keep < len(members):  # extras handed back
                        arrive(members[keep:], key[1])
                elif ran is None:
                    _, width, warps = step
                    head = pool.head_batch(width * warps)
                    expected = model.head_batch(width * warps)
                    assert (head is None) == (expected is None)
                    if head is not None:
                        threads = list(head[1])
                        assert threads == list(expected)
                        ran = [
                            _pre_run(threads[i : i + width], i)
                            for i in range(0, width * warps, width)
                        ]
                        pool.take_batch(head[0], width * warps, ran)
                        model.take_batch(width * warps, ran)
            queued, expected = list(pool.contexts()), list(model.contexts())
            assert len(queued) == len(expected) == pool.size == model.size
            assert all(a is b for a, b in zip(queued, expected))
        while pool:  # drained one visit at a time, in the same order
            ran = pool.pop_ran()
            assert ran is model.pop_ran()
            if ran is None:
                _, members = pool.pop_group(4)
                assert members == model.pop_group(4)
        assert not model

    def test_a_chunk_straddling_the_width_is_split(self):
        pool = _ReadyPool()
        pool.push([_context(tid) for tid in range(3)], 0)
        pool.push([_context(tid) for tid in range(3, 9)], 0)
        assert _tids(pool.pop_group(4)[1]) == [0, 1, 2, 3]
        assert _tids(pool.pop_group(4)[1]) == [4, 5, 6, 7]
        assert _tids(pool.pop_group(4)[1]) == [8]
        assert not pool
