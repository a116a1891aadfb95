"""Fault containment: structured traps, sticky errors, the launch
watchdog, degradation fallbacks, barrier-deadlock reporting, and the
seeded fault-injection harness."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    BarrierDeadlock,
    Device,
    ExecutionConfig,
    KernelTrap,
    LaunchTimeout,
    baseline_config,
    format_timeout,
    format_trap,
    vectorized_config,
)
from repro.errors import (
    LaunchError,
    MemoryFault,
    TranslationError,
    VectorizationError,
)
from repro.runtime.cache_store import CacheStore
from repro.runtime.traps import ProgramPoint, TrapInfo
from repro.testing import FaultInjector, fault_seed

from tests.conftest import REDUCE_PTX, VECADD_PTX

#: Writes tid to out + tid * 64MiB: thread 0 lands in the buffer,
#: every later thread is past the arena end — a deterministic
#: out-of-bounds store independent of arena layout.
OOB_PTX = r"""
.version 2.3
.target sim
.entry oob (.param .u64 out)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, 67108864;
  mul.wide.u32 %rd1, %r1, %r2;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r1;
  exit;
}
"""

#: Counts to n (u32): with n = 0xffffffff the loop is effectively
#: infinite and only the watchdog can end the launch.
SPIN_PTX = r"""
.version 2.3
.target sim
.entry spin (.param .u32 n, .param .u64 out)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  ld.param.u32 %r2, [n];
  mov.u32 %r1, 0;
LOOP:
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra LOOP;
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r1;
  exit;
}
"""

FOREVER = 0xFFFFFFFF


def _oob_device(config=None):
    device = Device(config=config or vectorized_config(4))
    device.register_module(OOB_PTX)
    return device


def _vecadd_launch(device, n=256, grid=2, block=128):
    a = np.arange(n, dtype=np.float32)
    b = np.ones(n, dtype=np.float32)
    da = device.upload(a)
    db = device.upload(b)
    dc = device.malloc(n * 4)
    result = device.launch(
        "vecAdd", grid=grid, block=block, args=[da, db, dc, n]
    )
    out = dc.read(np.float32, n)
    np.testing.assert_allclose(out, a + b)
    for allocation in (da, db, dc):
        device.free(allocation)
    return result


class TestKernelTrap:
    def test_oob_store_raises_structured_trap(self):
        device = _oob_device()
        buffer = device.malloc(16)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("oob", grid=1, block=64, args=[buffer])
        trap = excinfo.value
        message = str(trap)
        assert "oob" in message
        assert "MemoryFault" in message
        assert "cta=" in message and "tid=" in message
        assert "block" in message and "instruction" in message
        info = trap.info
        assert isinstance(info, TrapInfo)
        assert info.kernel == "oob"
        assert info.block_label is not None
        assert info.instruction_index >= 0
        assert info.instruction is not None
        assert info.faulting_lanes, "no lane marked as faulting"
        fault = info.faulting_lanes[0]
        # Thread 0 lands in the buffer; thread 1 is the first to
        # reach past the arena end.
        assert fault.tid == (1, 0, 0)
        assert fault.ctaid == (0, 0, 0)
        assert info.cause_type == "MemoryFault"

    def test_trap_in_dispatch_mode_matches(self):
        # The reference (per-instruction dispatch) interpreter must
        # attribute the fault exactly like the generated code does —
        # whether the faulting warp was first tried in a batch (the
        # compiled default Device: the batch is abandoned and its
        # warps re-run one at a time) or never was: same program
        # counter, same lane, same register snapshot.
        from tests.conftest import sequential_only

        def observe(backend="interpreter"):
            device = _oob_device(
                ExecutionConfig(warp_sizes=(1, 2, 4), backend=backend)
            )
            device.warm()
            buffer = device.malloc(16)
            with pytest.raises(KernelTrap) as excinfo:
                device.launch("oob", grid=1, block=64, args=[buffer])
            info = excinfo.value.info
            assert info.instruction_index >= 0
            assert info.faulting_lanes[0].tid == (1, 0, 0)
            return (
                info.block_label,
                info.instruction_index,
                info.instruction,
                info.registers,
            )

        reference = observe("reference")
        assert observe() == reference
        with sequential_only():
            assert observe() == reference

    def test_format_trap_renders_report(self):
        device = _oob_device()
        buffer = device.malloc(16)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("oob", grid=1, block=64, args=[buffer])
        report = format_trap(excinfo.value)
        assert "== kernel trap: oob ==" in report
        assert "cause" in report and "MemoryFault" in report
        assert "lanes:" in report
        assert "<- FAULT" in report
        assert "registers" in report
        assert "program ctr" in report

    def test_trap_counts_in_statistics(self):
        device = _oob_device()
        buffer = device.malloc(16)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("oob", grid=1, block=64, args=[buffer])
        stats = excinfo.value.statistics
        assert stats.traps == 1
        assert "traps=1" in stats.report()

    def test_a_trapped_launch_counts_the_warp_that_ran(self):
        # A window's statistics reach the launch's in a finally: the
        # faulting warp's entry, its manager charge and its partial
        # counters still count.
        device = _oob_device()
        machine = device.machine
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("oob", grid=1, block=64, args=[device.malloc(16)])
        stats = excinfo.value.statistics
        assert stats.warp_size_histogram == {4: 1}
        assert (stats.warp_executions, stats.thread_entries) == (1, 4)
        assert stats.em_cycles == (
            machine.em_event_cost + 4 * machine.em_per_thread_cost
        )
        assert stats.instructions > 0


#: Lane 2 of every warp of four (thread 2) reads or writes far past the
#: arena; the other lanes access their own word of ``out``.
WILD_LANE_PTX = r"""
.version 2.3
.target sim
.entry wild (.param .u64 out)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<6>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  setp.eq.u32 %p1, %r1, 2;
  selp.u64 %rd4, 1099511627776, 0, %p1;
  add.u64 %rd5, %rd3, %rd4;
  ACCESS
  exit;
}
"""


class TestFaultingLane:
    @pytest.mark.parametrize("access", [
        "ld.global.u32 %r2, [%rd5];\n  st.global.u32 [%rd3], %r2;",
        "st.global.u32 [%rd5], %r1;",
    ])
    @pytest.mark.parametrize("path", ["default", "sequential", "checked"])
    def test_a_wild_lane_is_the_only_faulting_lane(self, access, path):
        # One access of the warp's four has a wild address: the trap
        # names that lane only, whichever path ran the warp.
        from contextlib import nullcontext

        from tests.conftest import sequential_only

        config = vectorized_config(4)
        if path == "checked":
            config = replace(config, sanitize=True)
        device = Device(config=config)
        device.register_module(WILD_LANE_PTX.replace("ACCESS", access))
        device.warm()
        out = device.upload(np.zeros(32, dtype=np.uint32))
        leg = sequential_only() if path == "sequential" else nullcontext()
        with leg, pytest.raises(KernelTrap) as excinfo:
            device.launch("wild", grid=1, block=32, args=[out])
        info = excinfo.value.info
        assert info.warp_size == 4
        assert [lane.tid for lane in info.faulting_lanes] == [(2, 0, 0)]
        assert [lane.lane for lane in info.faulting_lanes] == [2]


class TestStickyErrors:
    def test_fault_is_sticky_until_reset(self):
        device = _oob_device()
        buffer = device.malloc(16)
        with pytest.raises(KernelTrap):
            device.launch("oob", grid=1, block=64, args=[buffer])
        assert isinstance(device.last_error, KernelTrap)
        with pytest.raises(LaunchError, match="failed state"):
            device.launch("oob", grid=1, block=4, args=[buffer])
        device.reset()
        assert device.last_error is None
        result = device.launch("oob", grid=1, block=1, args=[buffer])
        assert result.statistics.threads_launched == 1
        assert buffer.read(np.uint32, 1)[0] == 0

    def test_trap_reset_relaunch_does_not_grow_arena(self):
        device = _oob_device()
        device.register_module(VECADD_PTX)
        buffer = device.malloc(16)
        # First cycle reserves slabs; measure after it.
        with pytest.raises(KernelTrap):
            device.launch("oob", grid=1, block=64, args=[buffer])
        device.reset()
        _vecadd_launch(device)
        settled = device.memory.bytes_allocated
        for _ in range(3):
            with pytest.raises(KernelTrap):
                device.launch("oob", grid=1, block=64, args=[buffer])
            device.reset()
            _vecadd_launch(device)
            assert device.memory.bytes_allocated == settled

    def test_launch_after_trap_produces_correct_results(self):
        device = _oob_device()
        device.register_module(VECADD_PTX)
        buffer = device.malloc(16)
        with pytest.raises(KernelTrap):
            device.launch("oob", grid=1, block=64, args=[buffer])
        device.reset()
        # The cache still serves clean specializations and the pooled
        # warp state holds no residue of the trapped warp.
        _vecadd_launch(device)


class TestWatchdog:
    def test_cycle_budget_terminates_infinite_kernel(self):
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4), max_kernel_cycles=50_000
            )
        )
        device.register_module(SPIN_PTX)
        out = device.malloc(16)
        with pytest.raises(LaunchTimeout) as excinfo:
            device.launch("spin", grid=1, block=4, args=[FOREVER, out])
        timeout = excinfo.value
        assert "cycle budget" in str(timeout)
        assert timeout.kernel == "spin"
        assert timeout.program_points
        point = timeout.program_points[0]
        assert isinstance(point, ProgramPoint)
        assert "cta=" in str(timeout) and "tid=" in str(timeout)
        assert excinfo.value.statistics.watchdog_timeouts == 1
        assert "== launch timeout: spin ==" in format_timeout(timeout)

    def test_cycle_budget_is_deterministic(self):
        def run_once():
            device = Device(
                config=ExecutionConfig(
                    warp_sizes=(1, 2, 4), max_kernel_cycles=50_000
                )
            )
            device.register_module(SPIN_PTX)
            out = device.malloc(16)
            with pytest.raises(LaunchTimeout) as excinfo:
                device.launch(
                    "spin", grid=1, block=4, args=[FOREVER, out]
                )
            return (
                str(excinfo.value),
                excinfo.value.statistics.instructions,
            )

        assert run_once() == run_once()

    def test_wall_clock_deadline_terminates_infinite_kernel(self):
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4), launch_timeout_s=0.1
            )
        )
        device.register_module(SPIN_PTX)
        out = device.malloc(16)
        with pytest.raises(LaunchTimeout) as excinfo:
            device.launch("spin", grid=1, block=4, args=[FOREVER, out])
        assert "wall-clock deadline" in str(excinfo.value)
        assert excinfo.value.program_points

    def test_watchdog_spares_finite_kernels(self):
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4),
                max_kernel_cycles=10_000_000,
                launch_timeout_s=60.0,
            )
        )
        device.register_module(VECADD_PTX)
        _vecadd_launch(device)

    def test_device_stays_usable_after_timeout(self):
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4), max_kernel_cycles=50_000
            )
        )
        device.register_module(SPIN_PTX)
        device.register_module(VECADD_PTX)
        out = device.malloc(16)
        with pytest.raises(LaunchTimeout):
            device.launch("spin", grid=1, block=4, args=[FOREVER, out])
        assert isinstance(device.last_error, LaunchTimeout)
        device.reset()
        _vecadd_launch(device)


class TestBuildFailure:
    def test_scalar_failure_propagates(self):
        device = Device(config=baseline_config())
        device.register_module(VECADD_PTX)
        original = device.cache._build_specialization

        def broken(kernel_name, warp_size):
            raise VectorizationError("nothing builds")

        device.cache._build_specialization = broken
        device.cache.store = None
        with pytest.raises(Exception, match="nothing builds"):
            _vecadd_launch(device)
        device.cache._build_specialization = original

        # A failing width-4 build fails the launch the same way. It is
        # not a trap, so nothing is sticky: once the build is restored
        # the next launch runs 4-wide.
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        original = device.cache._build_specialization

        def broken_at_4(kernel_name, warp_size):
            if warp_size == 4:
                raise VectorizationError("width 4 does not build")
            return original(kernel_name, warp_size)

        device.cache._build_specialization = broken_at_4
        device.cache.store = None
        with pytest.raises(VectorizationError, match="width 4"):
            _vecadd_launch(device)
        assert device.last_error is None
        device.cache._build_specialization = original
        result = _vecadd_launch(device)
        assert result.statistics.warp_size_histogram.get(4, 0) > 0

    @staticmethod
    def _break_width(device, width, error=VectorizationError):
        """Make every build of ``width`` raise ``error``; returns the
        original builder and the list of widths it was asked for."""
        original = device.cache._build_specialization
        attempts = []

        def broken(kernel_name, warp_size):
            attempts.append(warp_size)
            if warp_size == width:
                raise error(f"width {width} does not build")
            return original(kernel_name, warp_size)

        device.cache._build_specialization = broken
        device.cache.store = None
        return original, attempts

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_vector_build_failure_fails_the_launch(self, width):
        device = Device(config=vectorized_config(width))
        device.register_module(VECADD_PTX)
        original, attempts = self._break_width(device, width)
        with pytest.raises(VectorizationError) as info:
            _vecadd_launch(device)
        # The launch's partial statistics ride on the failure, and
        # nothing narrower ran in the failed width's place.
        assert info.value.statistics.warp_size_histogram == {}
        assert attempts == [width]
        assert device.cache.resident("vecAdd", width) is None
        assert device.last_error is None
        device.cache._build_specialization = original
        result = _vecadd_launch(device)
        assert set(result.statistics.warp_size_histogram) == {width}

    def test_a_failed_build_is_attempted_again_by_the_next_launch(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        _, attempts = self._break_width(device, 4)
        for _ in range(2):
            with pytest.raises(VectorizationError):
                _vecadd_launch(device)
        assert attempts == [4, 4]

    def test_a_translation_error_fails_the_launch_unchanged(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        self._break_width(device, 4, error=TranslationError)
        with pytest.raises(TranslationError, match="width 4"):
            _vecadd_launch(device)
        assert device.last_error is None

    def test_a_failed_build_leaves_other_kernels_runnable(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.register_module(REDUCE_PTX)
        original = device.cache._build_specialization

        def broken(kernel_name, warp_size):
            if kernel_name == "vecAdd":
                raise VectorizationError("vecAdd does not build")
            return original(kernel_name, warp_size)

        device.cache._build_specialization = broken
        device.cache.store = None
        with pytest.raises(VectorizationError):
            _vecadd_launch(device)
        data = np.arange(128, dtype=np.float32)
        dst = device.malloc(2 * 4)
        result = device.launch(
            "reduceK", grid=2, block=64, args=[device.upload(data), dst]
        )
        np.testing.assert_allclose(
            dst.read(np.float32, 2), data.reshape(2, 64).sum(axis=1)
        )
        assert result.statistics.warp_size_histogram.get(4, 0) > 0


class TestBarrierDeadlock:
    def test_starved_barrier_reports_waiting_threads(self):
        device = Device(config=vectorized_config(4))
        device.register_module(REDUCE_PTX)
        src = device.upload(np.ones(64, dtype=np.float32))
        dst = device.malloc(4)
        with FaultInjector(device, seed=0) as injector:
            injector.arm("barrier_starvation")
            with pytest.raises(BarrierDeadlock) as excinfo:
                device.launch(
                    "reduceK", grid=1, block=64, args=[src, dst]
                )
        deadlock = excinfo.value
        message = str(deadlock)
        assert "barrier deadlock" in message
        assert "reduceK" in message
        assert "cta=" in message and "tid=" in message
        assert "entry=" in message
        assert deadlock.waiting
        assert all(
            point.state == "barrier" for point in deadlock.waiting
        )
        assert isinstance(deadlock, LaunchError)  # hierarchy preserved


class TestHostErrorState:
    """The guest's numpy error state (overflow, invalid, divide
    ignored: machine arithmetic wraps) is held once per execution-
    manager run, not per warp. It must end with the launch however the
    launch ends, and host code running between warps must never see
    it."""

    @pytest.fixture(autouse=True)
    def host_state(self):
        # A state that equals neither numpy's default nor the guest's,
        # so a leak in either direction shows.
        with np.errstate(
            over="raise", invalid="raise", divide="raise", under="warn"
        ):
            self.host = np.geterr()
            yield
            assert np.geterr() == self.host

    def _overflowing_launch(self, device, grid=2):
        """vecAdd over values whose sums overflow f32: raises
        FloatingPointError unless the guest state is in force."""
        n = 64
        big = device.upload(np.full(n, 3e38, dtype=np.float32))
        out = device.malloc(n * 4)
        statistics = device.launch(
            "vecAdd", grid=(grid, 1, 1), block=(n // grid, 1, 1),
            args=[big, big, out, n],
        ).statistics
        assert np.isinf(out.read(np.float32, n)).all()
        return statistics

    def test_completed_launch(self, execution_leg):
        # one CTA of 16 warps on a compiled Device: a batch, which
        # holds the guest state itself, or 16 warps under the run's
        device = Device(config=ExecutionConfig(warp_sizes=(1, 2, 4)))
        device.register_module(VECADD_PTX)
        device.warm()
        statistics = self._overflowing_launch(device, grid=1)
        assert statistics.batched_warps == (
            16 if execution_leg == "batching" else 0
        )
        assert np.geterr() == self.host

    def test_trapped_launch(self):
        device = _oob_device()
        with pytest.raises(KernelTrap):
            device.launch("oob", grid=1, block=64, args=[device.malloc(16)])
        assert np.geterr() == self.host

    @pytest.mark.parametrize(
        "limit", [{"max_kernel_cycles": 50_000}, {"launch_timeout_s": 0.1}]
    )
    def test_timed_out_launch(self, limit):
        device = Device(
            config=ExecutionConfig(warp_sizes=(1, 2, 4), **limit)
        )
        device.register_module(SPIN_PTX)
        with pytest.raises(LaunchTimeout):
            device.launch(
                "spin", grid=1, block=4, args=[FOREVER, device.malloc(16)]
            )
        assert np.geterr() == self.host

    def test_deadlocked_launch(self):
        device = Device(config=vectorized_config(4))
        device.register_module(REDUCE_PTX)
        src = device.upload(np.ones(64, dtype=np.float32))
        with FaultInjector(device, seed=0) as injector:
            injector.arm("barrier_starvation")
            with pytest.raises(BarrierDeadlock):
                device.launch(
                    "reduceK", grid=1, block=64, args=[src, device.malloc(4)]
                )
        assert np.geterr() == self.host

    def test_sanitizer_host_side_runs_in_the_host_state(self):
        # Non-fatal checked execution: what the sanitizer does between
        # warps and after the launch is host code.
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4), sanitize=True, sanitize_fatal=False
            )
        )
        device.register_module(REDUCE_PTX)
        device.register_module(VECADD_PTX)
        seen = []
        for name in ("barrier_released", "take_reports"):
            original = getattr(device.sanitizer, name)

            def recording(*args, _original=original):
                seen.append(np.geterr())
                return _original(*args)

            setattr(device.sanitizer, name, recording)
        src = device.upload(np.ones(64, dtype=np.float32))
        device.launch("reduceK", grid=1, block=64, args=[src, device.malloc(4)])
        self._overflowing_launch(device)
        assert len(seen) > 2 and all(state == self.host for state in seen)

    def test_direct_execute_calls_scope_their_own(self):
        # No execution manager around: Interpreter.execute and
        # ArrayBackend.execute_batch hold the guest state themselves.
        from repro.ir import BinaryOp, IRFunction, UnaryOp, Yield
        from repro.ir.values import Constant, VirtualRegister
        from repro.machine import Interpreter, sandybridge
        from repro.machine.array_backend import ArrayBackend
        from repro.machine.memory import MemorySystem
        from repro.ptx.types import DataType
        from repro.runtime import ThreadContext, Warp

        f32 = DataType.f32
        x, y = VirtualRegister("x", f32), VirtualRegister("y", f32)
        function = IRFunction("t", warp_size=1)
        function.add_block("entry").extend([
            UnaryOp("mov", f32, x, Constant(3e38, f32)),
            BinaryOp("mul", f32, y, x, x),
            Yield(status=3),
        ])
        warps = [
            Warp(contexts=[ThreadContext(
                tid=(lane, 0, 0), ntid=(2, 1, 1),
                ctaid=(0, 0, 0), nctaid=(1, 1, 1),
            )])
            for lane in range(2)
        ]
        interpreter = Interpreter(sandybridge(), MemorySystem(1 << 12))
        state = interpreter.new_state()
        assert interpreter.execute(
            interpreter.load_function(function), warps[0], 0, state=state
        ) == 3
        assert not state.scoped
        assert np.isinf(state.regs[1]) and np.geterr() == self.host
        backend = ArrayBackend(sandybridge(), MemorySystem(1 << 12))
        outcome = backend.execute_batch(
            backend.load_function(function), warps, 0, 1000
        )
        assert outcome.kind == "yield" and outcome.status == 3
        assert np.geterr() == self.host


class TestFaultInjection:
    def test_seed_defaults_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "1234")
        assert fault_seed() == 1234
        device = Device()
        assert FaultInjector(device).seed == 1234
        monkeypatch.delenv("REPRO_FAULT_SEED")
        assert fault_seed() == 0

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector(Device(), seed=0).arm("nonexistent")

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_injected_memory_fault_traps(self, sanitize):
        # One patch of the guest-access seam, which is the sanitizer on
        # a sanitized device: the fault fires before its check.
        device = Device(config=replace(vectorized_config(4), sanitize=sanitize))
        device.register_module(VECADD_PTX)
        with FaultInjector(device, seed=3) as injector:
            injector.arm("memory_fault", probability=1.0, kind="store")
            with pytest.raises(KernelTrap) as excinfo:
                _vecadd_launch(device)
            assert injector.fired["memory_fault"] >= 1
        assert "injected fault" in str(excinfo.value)
        assert excinfo.value.info.block_label is not None
        assert excinfo.value.info.sanitizer is None
        # Restored: the same device computes correctly afterwards.
        device.reset()
        _vecadd_launch(device)

    @pytest.mark.parametrize(
        "site, options",
        [
            ("memory_fault", {}),
            ("oob_within_arena", {"allocation": (64, 16)}),
            ("use_after_free", {"allocation": (64, 16), "freed": 128}),
            ("shared_race", {}),
        ],
    )
    def test_memory_sites_refuse_the_reference_backend(self, site, options):
        # The oracle calls the memory system, never the guest-access
        # seam: a memory site armed there could never fire.
        device = Device(config=ExecutionConfig(backend="reference"))
        with pytest.raises(ValueError, match="backend='reference'"):
            FaultInjector(device, seed=0).arm(site, **options)

    def test_injected_interpreter_error_traps_without_pc(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        with FaultInjector(device, seed=0) as injector:
            injector.arm("interpreter_error")
            with pytest.raises(KernelTrap) as excinfo:
                _vecadd_launch(device)
        info = excinfo.value.info
        assert info.cause == "injected interpreter fault"
        assert info.block_label is None
        assert info.instruction_index == -1

    def test_identical_seeds_reproduce_identical_faults(self):
        def run(seed):
            device = Device(config=vectorized_config(4))
            device.register_module(VECADD_PTX)
            with FaultInjector(device, seed=seed) as injector:
                injector.arm(
                    "memory_fault", probability=0.05, kind="both"
                )
                try:
                    _vecadd_launch(device)
                    outcome = "completed"
                except KernelTrap as trap:
                    outcome = str(trap)
                return outcome, dict(injector.fired)

        first = run(42)
        second = run(42)
        different = run(43)
        assert first == second
        assert first != different or first[0] == "completed"

    def test_environment_seeded_soak(self):
        """Runs under any ``$REPRO_FAULT_SEED`` (the CI fault matrix):
        whatever launches the seed chooses to break, the fault is
        contained and the device recovers."""
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        for _ in range(3):
            with FaultInjector(device) as injector:
                injector.arm(
                    "memory_fault", probability=0.01, kind="both"
                )
                try:
                    _vecadd_launch(device)
                except KernelTrap as trap:
                    assert trap.info is not None
                    assert trap.statistics.traps == 1
            device.reset()
            device.cache.invalidate("vecAdd")
            _vecadd_launch(device)

    def test_slow_warp_trips_wall_clock_watchdog(self):
        device = Device(
            config=ExecutionConfig(
                warp_sizes=(1, 2, 4), launch_timeout_s=0.05
            )
        )
        device.register_module(VECADD_PTX)
        with FaultInjector(device, seed=0) as injector:
            injector.arm("slow_warp", probability=1.0, delay_s=0.06)
            with pytest.raises(LaunchTimeout) as excinfo:
                _vecadd_launch(device)
        assert "wall-clock deadline" in str(excinfo.value)
        assert excinfo.value.program_points

    def test_cache_corruption_recovers_by_recompiling(self, tmp_path):
        store = CacheStore(directory=str(tmp_path))
        warmup = Device(
            config=vectorized_config(4), cache_store=store
        )
        warmup.register_module(VECADD_PTX)
        warmup.warm("vecAdd")
        assert store.entries(), "warm-up wrote no cache entries"

        device = Device(config=vectorized_config(4), cache_store=store)
        device.register_module(VECADD_PTX)
        with FaultInjector(device, seed=0) as injector:
            injector.arm("cache_corruption", probability=1.0)
            _vecadd_launch(device)
            assert injector.fired["cache_corruption"] >= 1
        stats = device.cache.statistics
        assert stats.disk_errors >= 1
        assert stats.translations >= 1  # recompiled, not crashed

    def test_cache_corruption_requires_store(self):
        device = Device(config=vectorized_config(4))
        device.cache.store = None
        injector = FaultInjector(device, seed=0)
        with pytest.raises(ValueError, match="persistent cache store"):
            injector.arm("cache_corruption")

    def test_restore_reinstates_original_behavior(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        seam = device.interpreter.guest
        original_load = seam.guest_load
        original_execute = device.interpreter.execute
        injector = FaultInjector(device, seed=0)
        injector.arm("memory_fault", kind="load")
        injector.arm("interpreter_error", probability=0.0)
        assert seam.guest_load is not original_load and seam.patched()
        injector.restore()
        assert seam.guest_load == original_load and not seam.patched()
        assert device.interpreter.execute == original_execute
        _vecadd_launch(device)

    def test_arming_after_the_first_launch_takes_effect(
        self, execution_leg
    ):
        """Blocks are lowered when a warp first enters them, so an
        injector may be armed before, between or after that: generated
        code never captures a patched accessor. Armed after a kernel
        already ran (its blocks hold inline memory code): the fault
        fires. Restored (the faulting launch lowered late-bound code
        meanwhile): it stops. Re-armed: it fires again. (CTAs of 32
        warps: one leg batches them whenever no injector is armed — an
        armed one forces the sequential path.)"""
        device = Device(config=ExecutionConfig(warp_sizes=(1, 2, 4)))
        device.register_module(VECADD_PTX)
        _vecadd_launch(device)
        for _ in range(2):
            with FaultInjector(device, seed=0) as injector:
                injector.arm("memory_fault", probability=1.0, kind="load")
                with pytest.raises(KernelTrap, match="injected fault"):
                    _vecadd_launch(device)
                assert injector.fired["memory_fault"] >= 1
            device.reset()
            _vecadd_launch(device)
            assert injector.fired["memory_fault"] == 1

    def test_blocks_first_entered_while_armed_keep_no_patch(self):
        # The mirror image (a co-tenant's situation): every block is
        # first entered, i.e. lowered, while an injector is armed. The
        # code generated then calls through the guest-access seam and
        # is only run while a patch exists; afterwards the same blocks
        # are lowered again, inline.
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        with FaultInjector(device, seed=0) as injector:
            injector.arm("memory_fault", probability=0.0)
            _vecadd_launch(device)
        executable = device.cache.get("vecAdd", 4)
        assert set(executable.code) == {"checked"}
        assert "san.guest_load(" in executable.code["checked"]["entry"][0].source
        _vecadd_launch(device)
        assert "san.guest_load(" not in executable.block_source("entry")
        assert set(executable.code) == {"checked", "inline"}


class TestRobustnessReporting:
    def test_launch_report_includes_robustness_line(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        a = np.arange(64, dtype=np.float32)
        da = device.upload(a)
        db = device.upload(a)
        dc = device.malloc(64 * 4)
        result = device.launch(
            "vecAdd", grid=1, block=64, args=[da, db, dc, 64]
        )
        report = result.statistics.report()
        assert "robustness" in report
        assert "traps=0" in report
        assert "watchdog=0" in report


#: Divergent diamond whose arms both store — the odd arm far past the
#: arena end. The stores align, so the melding pass merges the region;
#: the melded store must still trap with the faulting thread's own
#: coordinates.
MELD_OOB_PTX = r"""
.version 2.3
.target sim
.entry moob (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  ld.param.u64 %rd1, [out];
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra EVEN;
  mov.u32 %r3, 67108864;
  mul.wide.u32 %rd2, %r1, %r3;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r1;
  bra JOIN;
EVEN:
  mov.u32 %r4, 4;
  mul.wide.u32 %rd4, %r1, %r4;
  add.u64 %rd5, %rd1, %rd4;
  st.global.u32 [%rd5], %r1;
JOIN:
  exit;
}
"""


class TestMeldTrapConformance:
    """Melding preserves diagnostics: a fault inside a melded arm
    traps with the same kernel/CTA/thread coordinates as the
    divergent original."""

    def _trap(self, meld):
        from dataclasses import replace

        config = replace(vectorized_config(4), meld=meld)
        device = Device(config=config)
        device.register_module(MELD_OOB_PTX)
        buffer = device.malloc(256)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("moob", grid=1, block=64, args=[buffer])
        return excinfo.value

    def test_melded_arm_fault_keeps_coordinates(self, monkeypatch):
        # the meld-off baseline must really be off, even when the
        # suite runs under REPRO_MELD=1 (the CI meld leg)
        monkeypatch.delenv("REPRO_MELD", raising=False)
        plain = self._trap(meld=False)
        melded = self._trap(meld=True)
        # the melding pass actually fired on the meld run
        assert melded.statistics.melded_regions == 1
        assert plain.statistics.melded_regions == 0
        assert melded.info.kernel == plain.info.kernel == "moob"
        assert melded.info.cause_type == plain.info.cause_type
        plain_lane = plain.info.faulting_lanes[0]
        melded_lane = melded.info.faulting_lanes[0]
        assert melded_lane.tid == plain_lane.tid
        assert melded_lane.ctaid == plain_lane.ctaid
        # thread 1 (first odd thread) is the first out-of-bounds store
        assert melded_lane.tid == (1, 0, 0)
