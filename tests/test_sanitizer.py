"""Kernel sanitizer: guest-memory memcheck, the shared-memory race
detector, quarantine/redzone shadow bookkeeping, trap integration,
non-fatal accumulation, and the fault-injection sites that prove each
check catches its fault class with exact coordinates."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Device,
    ExecutionConfig,
    KernelTrap,
    SanitizerError,
    format_sanitizer_report,
    format_sanitizer_reports,
    format_trap,
    static_tie_config,
    vectorized_config,
)
from repro.errors import MemoryFault
from repro.machine.memory import MemorySystem
from repro.runtime.statistics import LaunchStatistics
from repro.sanitizer import KernelSanitizer, apply_sanitize_env
from repro.sanitizer.shadow import (
    INITIALIZED,
    QUARANTINE,
    REDZONE,
    UNADDRESSABLE,
    UNINITIALIZED,
)
from repro.testing import FaultInjector
from repro.workloads.registry import get_workload

from tests.conftest import REDUCE_PTX, VECADD_PTX

#: Writes tid to out[tid] unconditionally: launching one thread more
#: than the buffer holds is a genuine off-by-one overflow that stays
#: inside the arena — only redzones can see it.
FILL_PTX = r"""
.version 2.3
.target sim
.entry fill (.param .u64 out)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<4>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r1;
  exit;
}
"""

#: Every thread stores its tid to shared slot 0 before the barrier: a
#: genuine same-interval W-W race. The race-free variant below writes
#: per-thread slots instead.
RACY_PTX = r"""
.version 2.3
.target sim
.entry racy (.param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  .shared .u32 sdata[16];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, sdata;
  st.shared.u32 [%r2], %r1;
  bar.sync 0;
  setp.ne.u32 %p1, %r1, 0;
  @%p1 bra DONE;
  ld.shared.u32 %r3, [%r2];
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r3;
DONE:
  exit;
}
"""

SAFE_SHARED_PTX = r"""
.version 2.3
.target sim
.entry safeShared (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  .shared .u32 sdata[16];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, sdata;
  shl.b32 %r3, %r1, 2;
  add.u32 %r4, %r2, %r3;
  st.shared.u32 [%r4], %r1;
  bar.sync 0;
  xor.b32 %r5, %r1, 1;
  shl.b32 %r6, %r5, 2;
  add.u32 %r7, %r2, %r6;
  ld.shared.u32 %r5, [%r7];
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r5;
  exit;
}
"""

#: Sums src[0..n) into out[tid]: reads a buffer the host may never
#: have written — the initcheck scenario.
SUM_PTX = r"""
.version 2.3
.target sim
.entry sumAll (.param .u64 src, .param .u64 dst, .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, 0;
  mov.f32 %f1, 0f00000000;
  ld.param.u32 %r2, [n];
  ld.param.u64 %rd1, [src];
LOOP:
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  ld.global.f32 %f2, [%rd3];
  add.f32 %f1, %f1, %f2;
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra LOOP;
  mov.u32 %r3, %tid.x;
  mul.wide.u32 %rd4, %r3, 4;
  ld.param.u64 %rd5, [dst];
  add.u64 %rd6, %rd5, %rd4;
  st.global.f32 [%rd6], %f1;
  exit;
}
"""


def scalar_config(**kwargs):
    """Deterministic thread order: tid 0 executes first, so injected
    faults land on exact, assertable coordinates."""
    return ExecutionConfig(
        warp_sizes=(1,), scalar_yields_at_branches=False, **kwargs
    )


def sanitized_device(source, fatal=True, checks=True, config=None):
    config = config or scalar_config(
        sanitize=checks, sanitize_fatal=fatal
    )
    device = Device(config=config)
    device.register_module(source)
    return device


# -- configuration surface -------------------------------------------------


class TestConfig:
    def test_off_by_default(self):
        config = ExecutionConfig()
        assert config.sanitize_checks == ()

    def test_normalization(self):
        assert ExecutionConfig(sanitize=True).sanitize_checks == (
            "memcheck", "racecheck", "initcheck",
        )
        assert ExecutionConfig(
            sanitize="memcheck"
        ).sanitize_checks == ("memcheck",)
        # Canonical order regardless of input order.
        assert ExecutionConfig(
            sanitize=("initcheck", "memcheck")
        ).sanitize_checks == ("memcheck", "initcheck")

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitizer check"):
            ExecutionConfig(sanitize=("memchk",))

    def test_dispatch_mode_cannot_sanitize(self, monkeypatch):
        # The one rejected combination: the reference (dispatch)
        # interpreter has no checked lowering. The message names the
        # backend, and the env alias does not paper over it.
        with pytest.raises(ValueError, match="backend='reference'"):
            ExecutionConfig(sanitize=True, backend="reference")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(ValueError, match="backend='reference'"):
            apply_sanitize_env(ExecutionConfig(backend="reference"))

    def test_cache_key_off_is_byte_identical_to_pre_sanitizer(self):
        # The off-mode key is exactly the six code-shaping axes: a
        # checked entry appends, so persistent-cache digests of
        # unsanitized configs do not move with it.
        assert ExecutionConfig().cache_key() == (
            (1, 2, 4), False, False, True, None, False,
        )

    def test_cache_key_on_appends_checks(self):
        off = ExecutionConfig().cache_key()
        on = ExecutionConfig(sanitize=True).cache_key()
        assert on[: len(off)] == off
        assert on[-1] == (
            "sanitize", "memcheck", "racecheck", "initcheck",
        )
        subset = ExecutionConfig(sanitize=("memcheck",)).cache_key()
        assert subset != on

    def test_sanitize_fatal_not_in_cache_key(self):
        assert (
            ExecutionConfig(sanitize=True).cache_key()
            == ExecutionConfig(
                sanitize=True, sanitize_fatal=False
            ).cache_key()
        )

    def test_env_alias(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert apply_sanitize_env(
            ExecutionConfig()
        ).sanitize_checks == ("memcheck", "racecheck", "initcheck")
        monkeypatch.setenv("REPRO_SANITIZE", "memcheck,racecheck")
        assert apply_sanitize_env(
            ExecutionConfig()
        ).sanitize_checks == ("memcheck", "racecheck")
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert apply_sanitize_env(ExecutionConfig()).sanitize_checks == ()

    def test_env_alias_resolved_by_device(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        device = Device(config=scalar_config())
        assert device.sanitizer is not None
        assert device.memory.sanitizer is device.sanitizer


# -- shadow state / allocation registry ------------------------------------


class TestShadowMemory:
    def make(self, quarantine_bytes=1 << 20):
        memory = MemorySystem(size=1 << 20)
        sanitizer = KernelSanitizer(
            memory, quarantine_bytes=quarantine_bytes
        )
        memory.sanitizer = sanitizer
        return memory, sanitizer

    def test_redzones_surround_payload(self):
        memory, sanitizer = self.make()
        base = memory.allocate(64)
        shadow = sanitizer.shadow.shadow
        assert (shadow[base : base + 64] == UNINITIALIZED).all()
        assert (shadow[base - 16 : base] == REDZONE).all()
        assert (shadow[base + 64 : base + 80] == REDZONE).all()

    def test_oob_classified_with_allocation(self):
        memory, sanitizer = self.make()
        base = memory.allocate(64, label="buf")
        kind, record, detail = sanitizer.shadow.check(
            base + 64, 4, True, want_init=False
        )
        assert kind == "oob"
        assert record.label == "buf"
        assert "past the end" in detail

    def test_use_after_free_quarantined(self):
        memory, sanitizer = self.make()
        base = memory.allocate(64)
        memory.write_array(base, np.zeros(16, dtype=np.float32))
        memory.free(base, 64)
        assert sanitizer.shadow.quarantined(base)
        kind, record, detail = sanitizer.shadow.check(
            base, 4, False, want_init=False
        )
        assert kind == "use-after-free"
        assert record.freed

    def test_null_page_invalid(self):
        memory, sanitizer = self.make()
        kind, record, detail = sanitizer.shadow.check(
            0, 4, False, want_init=False
        )
        assert kind == "invalid"
        assert "null" in detail

    def test_uninit_read_then_clean_after_write(self):
        memory, sanitizer = self.make()
        base = memory.allocate(64)
        finding = sanitizer.shadow.check(base, 4, False, want_init=True)
        assert finding is not None and finding[0] == "uninit-read"
        # A guest write marks the bytes initialized...
        assert sanitizer.shadow.check(
            base, 4, True, want_init=False
        ) is None
        assert sanitizer.shadow.check(
            base, 4, False, want_init=True
        ) is None
        # ...and host copies do too.
        memory.write_array(
            base + 16, np.zeros(4, dtype=np.float32)
        )
        assert sanitizer.shadow.check(
            base + 16, 16, False, want_init=True
        ) is None

    def test_free_validations(self):
        memory, sanitizer = self.make()
        base = memory.allocate(64)
        with pytest.raises(MemoryFault, match="never returned"):
            memory.free(base + 4, 60)
        with pytest.raises(MemoryFault, match="size mismatch"):
            memory.free(base, 32)
        memory.free(base, 64)
        with pytest.raises(MemoryFault, match="double free"):
            memory.free(base, 64)

    def test_quarantine_eviction_returns_span(self):
        memory, sanitizer = self.make(quarantine_bytes=256)
        bases = [memory.allocate(64) for _ in range(4)]
        for base in bases:
            memory.free(base, 64)
        shadow = sanitizer.shadow
        # 64 payload + 16 + 16 redzone = 96-byte spans; a 256-byte cap
        # holds at most two, so the earliest frees were evicted.
        assert shadow._quarantine_bytes <= 256
        evicted = bases[0]
        assert (
            shadow.shadow[evicted : evicted + 64] == UNADDRESSABLE
        ).all()
        assert shadow.find_record(evicted) is None

    def test_resegment_marks_interior_redzones(self):
        memory, sanitizer = self.make()
        base = memory.allocate(96, kind="local")
        sanitizer.shadow.resegment(base, 16, 32)
        shadow = sanitizer.shadow.shadow
        for start in range(base, base + 96, 32):
            assert (shadow[start : start + 16] == UNINITIALIZED).all()
            assert (shadow[start + 16 : start + 32] == REDZONE).all()
        kind, record, detail = sanitizer.shadow.check(
            base + 16, 4, True, want_init=False
        )
        assert kind == "oob"
        assert "segment" in detail

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free"]),
                st.integers(min_value=1, max_value=300),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_registry_stress_invariants(self, ops):
        """Random allocate/free interleavings: live payloads never
        overlap, redzones are never handed out, and freed payloads are
        quarantined (reuse delayed) until evicted."""
        memory = MemorySystem(size=1 << 20)
        sanitizer = KernelSanitizer(memory, quarantine_bytes=2048)
        memory.sanitizer = sanitizer
        shadow = sanitizer.shadow
        live = {}
        for action, value in ops:
            if action == "alloc":
                base = memory.allocate(value)
                # Fresh payload: addressable, uninitialized — so it
                # cannot overlap any live payload (INITIALIZED bytes
                # would show), any redzone, or quarantined bytes.
                assert (
                    shadow.shadow[base : base + value] == UNINITIALIZED
                ).all()
                for other, other_size in live.items():
                    assert (
                        base + value <= other
                        or other + other_size <= base
                    )
                live[base] = value
                memory.write_array(
                    base, np.full(value, 0x5A, dtype=np.uint8)
                )
            elif live:
                base = sorted(live)[value % len(live)]
                size = live.pop(base)
                memory.free(base, size)
                record = shadow._records.get(base)
                if record is not None:
                    assert record.freed
                    assert (
                        shadow.shadow[base : base + size] == QUARANTINE
                    ).all()
        # Terminal invariants: every live payload still initialized,
        # every quarantined record's payload still fenced off.
        for base, size in live.items():
            assert (
                shadow.shadow[base : base + size] == INITIALIZED
            ).all()
        assert shadow._quarantine_bytes <= 2048
        for record in shadow._quarantine:
            span = shadow.shadow[
                record.base : record.base + record.size
            ]
            assert (span == QUARANTINE).all()


# -- arena satellites (coalescing, traffic counters) -----------------------


class TestArena:
    def test_interior_free_blocks_coalesce(self):
        memory = MemorySystem(size=1 << 16)
        a = memory.allocate(64)
        b = memory.allocate(64)
        guard = memory.allocate(16)
        brk = memory.bytes_allocated
        memory.free(a, 64)
        memory.free(b, 64)
        assert memory._free_blocks == [(a, 128)]
        # The coalesced region satisfies one 128-byte request without
        # growing the arena — two separate 64-byte holes could not.
        assert memory.allocate(128) == a
        assert memory.bytes_allocated == brk
        memory.free(guard, 16)

    def test_coalesce_absorbs_into_break(self):
        memory = MemorySystem(size=1 << 16)
        a = memory.allocate(64)
        b = memory.allocate(64)
        brk_before = memory.bytes_allocated
        memory.free(a, 64)
        memory.free(b, 64)  # merges with a's hole, then hits the break
        assert memory._free_blocks == []
        assert memory.bytes_allocated == brk_before - 128

    def test_host_copies_count_traffic(self):
        memory = MemorySystem(size=1 << 16)
        base = memory.allocate(256)
        stores, loads = memory.store_count, memory.load_count
        memory.write_array(base, np.zeros(32, dtype=np.float32))
        assert memory.store_count == stores + 32
        memory.read_array(base, np.float32, 32)
        assert memory.load_count == loads + 32


# -- caught faults (genuine, no injection) ---------------------------------


class TestCaughtFaults:
    def test_off_by_one_store_traps_with_coordinates(self):
        device = sanitized_device(FILL_PTX)
        out = device.malloc(16 * 4, label="out")
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("fill", grid=1, block=17, args=[out])
        info = excinfo.value.info
        assert info.cause_type == "SanitizerError"
        report = info.sanitizer
        assert report.kind == "oob"
        assert report.tid == (16, 0, 0)
        assert report.op_index >= 0 and report.block_label
        assert report.allocation.label == "out"
        assert "past the end" in report.message
        rendered = format_trap(excinfo.value)
        assert "sanitizer:" in rendered
        assert "'out'" in rendered

    def test_store_to_freed_buffer_traps(self):
        device = sanitized_device(FILL_PTX)
        out = device.malloc(32 * 4)
        device.free(out)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("fill", grid=1, block=8, args=[out])
        report = excinfo.value.info.sanitizer
        assert report.kind == "use-after-free"
        assert report.tid == (0, 0, 0)
        assert report.allocation.freed

    def test_null_pointer_traps_as_invalid(self):
        device = sanitized_device(FILL_PTX)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("fill", grid=1, block=4, args=[0])
        report = excinfo.value.info.sanitizer
        assert report.kind == "invalid"
        assert "null" in report.message

    def test_genuine_shared_race_detected(self):
        device = sanitized_device(RACY_PTX)
        out = device.malloc(4)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("racy", grid=1, block=4, args=[out])
        report = excinfo.value.info.sanitizer
        assert report.kind == "race"
        assert report.space == "shared"
        # Deterministic scalar order: tid 1's store conflicts with the
        # store tid 0 already logged in the same barrier interval.
        assert report.tid == (1, 0, 0)
        assert report.conflict.tid == (0, 0, 0)
        assert report.conflict.write
        assert report.op_index == report.conflict.op_index

    def test_barrier_ordered_sharing_is_clean(self):
        device = sanitized_device(SAFE_SHARED_PTX)
        out = device.malloc(16 * 4)
        device.launch("safeShared", grid=1, block=16, args=[out])
        values = out.read(np.uint32, 16)
        np.testing.assert_array_equal(
            values, np.arange(16, dtype=np.uint32) ^ 1
        )

    def test_uninit_read_caught_and_memset_clears_it(self):
        device = sanitized_device(SUM_PTX)
        src = device.malloc(16 * 4, label="never written")
        dst = device.malloc(4)
        with pytest.raises(KernelTrap) as excinfo:
            device.launch("sumAll", grid=1, block=1, args=[src, dst, 16])
        report = excinfo.value.info.sanitizer
        assert report.kind == "uninit-read"
        assert report.allocation.label == "never written"
        device.reset()
        device.memset(src, 0)
        device.launch("sumAll", grid=1, block=1, args=[src, dst, 16])
        assert dst.read(np.float32, 1)[0] == 0.0

    def test_memcheck_only_ignores_uninit(self):
        device = sanitized_device(SUM_PTX, checks=("memcheck",))
        src = device.malloc(16 * 4)
        dst = device.malloc(4)
        device.launch("sumAll", grid=1, block=1, args=[src, dst, 16])
        assert dst.read(np.float32, 1)[0] == 0.0


# -- injected faults (the CI fault matrix) ---------------------------------


class TestInjectedFaults:
    def _vecadd_buffers(self, device, n=16):
        a = device.upload(np.arange(n, dtype=np.float32))
        b = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4, label="out")
        return a, b, c, n

    def test_injected_oob_caught_with_exact_coordinates(self):
        device = sanitized_device(VECADD_PTX)
        a, b, c, n = self._vecadd_buffers(device)
        with FaultInjector(device, seed=0) as inject:
            inject.arm("oob_within_arena", probability=1.0, allocation=c)
            with pytest.raises(KernelTrap) as excinfo:
                device.launch(
                    "vecAdd", grid=1, block=n, args=[a, b, c, n]
                )
        report = excinfo.value.info.sanitizer
        assert report.kind == "oob"
        assert report.ctaid == (0, 0, 0) and report.tid == (0, 0, 0)
        assert report.block_label and report.op_index >= 0
        assert report.allocation.label == "out"
        assert inject.fired["oob_within_arena"] == 1

    def test_injected_oob_silent_without_sanitizer(self):
        device = Device(config=scalar_config())
        device.register_module(VECADD_PTX)
        a, b, c, n = self._vecadd_buffers(device)
        pad = device.malloc(64)  # absorbs the redirected stores
        with FaultInjector(device, seed=0) as inject:
            inject.arm("oob_within_arena", probability=1.0, allocation=c)
            device.launch("vecAdd", grid=1, block=n, args=[a, b, c, n])
            assert inject.fired["oob_within_arena"] == n

    def test_injected_use_after_free_caught(self):
        device = sanitized_device(VECADD_PTX)
        a, b, c, n = self._vecadd_buffers(device)
        victim = device.malloc(n * 4, label="victim")
        device.free(victim)
        with FaultInjector(device, seed=0) as inject:
            inject.arm(
                "use_after_free",
                probability=1.0,
                allocation=a,
                freed=victim,
            )
            with pytest.raises(KernelTrap) as excinfo:
                device.launch(
                    "vecAdd", grid=1, block=n, args=[a, b, c, n]
                )
        report = excinfo.value.info.sanitizer
        assert report.kind == "use-after-free"
        assert report.tid == (0, 0, 0)
        assert report.allocation.label == "victim"
        assert report.allocation.freed

    def test_injected_use_after_free_silent_without_sanitizer(self):
        device = Device(config=scalar_config())
        device.register_module(VECADD_PTX)
        a, b, c, n = self._vecadd_buffers(device)
        victim = device.malloc(n * 4)
        device.free(victim)
        with FaultInjector(device, seed=0) as inject:
            inject.arm(
                "use_after_free",
                probability=1.0,
                allocation=a,
                freed=victim,
            )
            device.launch("vecAdd", grid=1, block=n, args=[a, b, c, n])
            assert inject.fired["use_after_free"] == n

    def test_injected_shared_race_caught(self):
        device = sanitized_device(REDUCE_PTX)
        src = device.upload(np.ones(64, dtype=np.float32))
        dst = device.malloc(4)
        with FaultInjector(device, seed=0) as inject:
            inject.arm("shared_race", probability=1.0)
            with pytest.raises(KernelTrap) as excinfo:
                device.launch("reduceK", grid=1, block=64, args=[src, dst])
        report = excinfo.value.info.sanitizer
        assert report.kind == "race"
        assert report.space == "shared"
        assert report.tid == (1, 0, 0)
        assert report.conflict.tid == (0, 0, 0)

    def test_injected_shared_race_silent_without_sanitizer(self):
        device = Device(config=scalar_config())
        device.register_module(REDUCE_PTX)
        src = device.upload(np.ones(64, dtype=np.float32))
        dst = device.malloc(4)
        with FaultInjector(device, seed=0) as inject:
            inject.arm("shared_race", probability=1.0)
            device.launch("reduceK", grid=1, block=64, args=[src, dst])
            assert inject.fired["shared_race"] > 0


# -- non-fatal accumulation ------------------------------------------------


class TestNonFatal:
    def test_findings_accumulate_on_statistics(self):
        device = sanitized_device(FILL_PTX, fatal=False)
        out = device.malloc(16 * 4, label="out")
        result = device.launch("fill", grid=1, block=20, args=[out])
        reports = result.statistics.sanitizer
        # Threads 16..19 all overflow at the same program point: one
        # deduplicated report with a bumped count.
        assert len(reports) == 1
        assert reports[0].kind == "oob"
        assert reports[0].count == 4
        assert "sanitizer" in result.statistics.report()
        assert "oob=4" in result.statistics.report()
        rendered = format_sanitizer_reports(reports)
        assert "reported 4 times" in rendered
        # The next launch starts a fresh accumulation.
        ok = device.malloc(16 * 4)
        clean = device.launch("fill", grid=1, block=16, args=[ok])
        assert clean.statistics.sanitizer == []

    def test_non_fatal_run_still_completes_correctly(self):
        device = sanitized_device(FILL_PTX, fatal=False)
        out = device.malloc(16 * 4)
        device.launch("fill", grid=1, block=17, args=[out])
        np.testing.assert_array_equal(
            out.read(np.uint32, 16), np.arange(16, dtype=np.uint32)
        )

    def test_max_reports_cap_suppresses(self):
        memory = MemorySystem(size=1 << 20)
        sanitizer = KernelSanitizer(memory, fatal=False, max_reports=2)
        memory.sanitizer = sanitizer
        from repro.sanitizer.reports import SanitizerReport

        for index in range(5):
            sanitizer._emit(
                SanitizerReport(
                    kind="oob",
                    kernel="k",
                    message="m",
                    address=index,
                    size=1,
                    op_index=index,
                )
            )
        assert len(sanitizer.reports) == 2
        assert sanitizer.suppressed == 3

    def test_statistics_merge_extends_reports(self):
        from repro.sanitizer.reports import SanitizerReport

        first = LaunchStatistics()
        first.sanitizer.append(
            SanitizerReport(
                kind="oob", kernel="k", message="m", address=0, size=1
            )
        )
        second = LaunchStatistics()
        second.merge(first)
        assert len(second.sanitizer) == 1

    def test_empty_report_rendering(self):
        assert "clean" in format_sanitizer_reports([])


# -- leak check ------------------------------------------------------------


class TestLeakCheck:
    def test_reset_lists_unfreed_device_buffers(self):
        device = sanitized_device(FILL_PTX)
        kept = device.malloc(64, label="kept")
        freed = device.malloc(64, label="freed")
        device.free(freed)
        device.reset()
        leaks = device.sanitizer.leak_reports
        labels = [leak.allocation.label for leak in leaks]
        assert "kept" in labels
        assert "freed" not in labels
        for leak in leaks:
            assert leak.kind == "leak"
            # Slabs/params/globals are runtime-owned, not leaks.
            assert leak.allocation.kind == "device"
        rendered = format_sanitizer_report(leaks[labels.index("kept")])
        assert "never freed" in rendered


# -- clean runs over real workloads ---------------------------------------


WORKLOADS_UNDER_TEST = (
    "throughput",  # Table 1
    "MatrixMul",
    "Reduction",
    "ScalarProd",
)


class TestWorkloadsClean:
    @pytest.mark.parametrize("name", WORKLOADS_UNDER_TEST)
    def test_sanitizer_clean_and_statistics_identical(self, name):
        """Zero false positives over real (shared-memory, barrier,
        divergent) workloads, and the checked lowering models the exact
        same machine: every statistic is bit-identical."""
        workload = get_workload(name)
        base = vectorized_config()
        checked = dataclasses.replace(
            base, sanitize=True, sanitize_fatal=False
        )
        plain = workload.run_on(base, scale=0.25)
        sanitized = workload.run_on(checked, scale=0.25)
        assert sanitized.correct
        stats_plain = plain.statistics
        stats_checked = sanitized.statistics
        assert stats_checked.sanitizer == []
        for field_name in (
            "kernel_cycles",
            "yield_cycles",
            "em_cycles",
            "instructions",
            "flops",
            "thread_entries",
            "warp_executions",
            "threads_launched",
            "warp_size_histogram",
            "yields_by_status",
        ):
            assert getattr(stats_checked, field_name) == getattr(
                stats_plain, field_name
            ), field_name


#: Diamond whose arms both store the thread's value to out[tid]
#: (different expressions): with one thread past the buffer end, the
#: overflow happens inside a melded region.
MELD_FILL_PTX = r"""
.version 2.3
.target sim
.entry meldFill (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<6>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra EVEN;
  mul.lo.u32 %r3, %r1, 3;
  st.global.u32 [%rd3], %r3;
  bra JOIN;
EVEN:
  add.u32 %r4, %r1, 7;
  st.global.u32 [%rd3], %r4;
JOIN:
  exit;
}
"""

#: Diamond whose arms both store to the *same* shared slot: a genuine
#: W-W race inside a (meldable) divergent region.
MELD_RACE_PTX = r"""
.version 2.3
.target sim
.entry meldRace (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  .shared .u32 sdata[16];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, sdata;
  and.b32 %r3, %r1, 1;
  setp.eq.u32 %p1, %r3, 0;
  @%p1 bra EVEN;
  mul.lo.u32 %r4, %r1, 3;
  st.shared.u32 [%r2], %r4;
  bra JOIN;
EVEN:
  add.u32 %r5, %r1, 7;
  st.shared.u32 [%r2], %r5;
JOIN:
  bar.sync 0;
  ld.shared.u32 %r6, [%r2];
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r6;
  exit;
}
"""


class TestMeldSanitizerParity:
    """Melding preserves sanitizer findings: accesses issued from a
    melded region report the same kind/address/size/space (and, for
    deterministic overflows, thread) as the divergent original."""

    def _run(self, source, kernel, meld, block, buffer_words, checks):
        config = dataclasses.replace(
            vectorized_config(4),
            meld=meld,
            sanitize=checks,
            sanitize_fatal=False,
        )
        device = Device(config=config)
        device.register_module(source)
        out = device.malloc(buffer_words * 4, label="out")
        result = device.launch(kernel, grid=1, block=block, args=[out])
        return result.statistics

    def test_memcheck_findings_match_across_meld(self, monkeypatch):
        monkeypatch.delenv("REPRO_MELD", raising=False)
        # 17 threads, 16-word buffer: exactly thread 16 overflows
        plain = self._run(
            MELD_FILL_PTX, "meldFill", False, 17, 16, ("memcheck",)
        )
        melded = self._run(
            MELD_FILL_PTX, "meldFill", True, 17, 16, ("memcheck",)
        )
        assert melded.melded_regions == 1
        assert plain.melded_regions == 0

        def sites(stats):
            return sorted(
                (
                    finding.kind,
                    finding.address,
                    finding.size,
                    finding.space,
                    finding.tid,
                    finding.count,
                )
                for finding in stats.sanitizer
            )

        assert sites(plain) == sites(melded)
        assert len(plain.sanitizer) == 1
        assert plain.sanitizer[0].kind == "oob"
        assert plain.sanitizer[0].tid == (16, 0, 0)

    def test_racecheck_findings_match_across_meld(self, monkeypatch):
        monkeypatch.delenv("REPRO_MELD", raising=False)
        plain = self._run(
            MELD_RACE_PTX, "meldRace", False, 8, 16, ("racecheck",)
        )
        melded = self._run(
            MELD_RACE_PTX, "meldRace", True, 8, 16, ("racecheck",)
        )
        assert melded.melded_regions == 1
        assert plain.melded_regions == 0

        def sites(stats):
            return sorted(
                {
                    (
                        finding.kind,
                        finding.address,
                        finding.size,
                        finding.space,
                    )
                    for finding in stats.sanitizer
                }
            )

        assert sites(plain), "race not detected without melding"
        assert sites(plain) == sites(melded)
        assert all(f.kind == "race" for f in plain.sanitizer)


#: Each thread writes its own shared slot at a contiguous (affine)
#: address, then reads it back through one the affine analysis cannot
#: prove (``tid & 0xffff``): no thread touches another's slot.
SELF_READ_PTX = r"""
.version 2.3
.target sim
.entry selfRead (.param .u64 out)
{
  .reg .u32 %r<10>;
  .reg .u64 %rd<4>;
  .shared .u32 sdata[32];
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, sdata;
  shl.b32 %r3, %r1, 2;
  add.u32 %r4, %r2, %r3;
  st.shared.u32 [%r4], %r1;
  and.b32 %r6, %r1, 65535;
  shl.b32 %r7, %r6, 2;
  add.u32 %r8, %r2, %r7;
  ld.shared.u32 %r9, [%r8];
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r9;
  exit;
}
"""


class TestContiguousAccessParity:
    """A contiguous access (static formation with vector memory) is
    checked lane by lane at each lane's own address: its findings are
    those of the replicated accesses it stands for — kind, space,
    thread, address and size."""

    def _run(self, source, kernel, words, block, vector_memory):
        """The launch's findings, and how many contiguous groups the
        width-4 specialization holds."""
        config = dataclasses.replace(
            static_tie_config(4, vector_memory=vector_memory),
            sanitize=True,
            sanitize_fatal=False,
        )
        device = Device(config=config)
        device.register_module(source)
        out = device.malloc(words * 4, label="out")
        result = device.launch(kernel, grid=1, block=block, args=[out])
        findings = sorted(
            (f.kind, f.space, f.tid, f.address, f.size)
            for f in result.statistics.sanitizer
        )
        function = device.cache.get(kernel, 4).function
        return findings, sum(
            getattr(i, "contiguous", False) for i in function.instructions()
        )

    def test_a_thread_reading_its_own_slot_is_no_race(self):
        plain, replicated = self._run(SELF_READ_PTX, "selfRead", 8, 8, False)
        vector, contiguous = self._run(SELF_READ_PTX, "selfRead", 8, 8, True)
        assert plain == [] and vector == plain
        assert replicated == 0 and contiguous == 2

    def test_an_overflowing_store_names_its_thread_and_word(self):
        # 8 threads into 7 words: thread 7's 4-byte store, one word
        # past the buffer
        plain, replicated = self._run(FILL_PTX, "fill", 7, 8, False)
        vector, contiguous = self._run(FILL_PTX, "fill", 7, 8, True)
        assert vector == plain
        ((kind, space, tid, _, size),) = plain
        assert (kind, space, tid, size) == ("oob", "global", (7, 0, 0), 4)
        assert replicated == 0 and contiguous == 1
