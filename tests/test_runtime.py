"""Runtime tests: config, contexts, warp formation, barriers,
translation cache, launcher partitioning, statistics."""

import numpy as np
import pytest

from repro import (
    Device,
    ExecutionConfig,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from repro.errors import LaunchError, TranslationCacheError
from repro.ir import ResumeStatus
from repro.runtime import (
    LaunchGeometry,
    LaunchStatistics,
    ThreadContext,
    partition_ctas,
)
from tests.conftest import REDUCE_PTX, VECADD_PTX


class TestExecutionConfig:
    def test_default_matches_paper(self):
        config = ExecutionConfig()
        assert config.warp_sizes == (1, 2, 4)
        assert config.max_warp_size == 4

    def test_requires_scalar_specialization(self):
        with pytest.raises(ValueError):
            ExecutionConfig(warp_sizes=(2, 4))

    def test_requires_ascending_sizes(self):
        with pytest.raises(ValueError):
            ExecutionConfig(warp_sizes=(4, 1))

    def test_baseline_never_yields_at_branches(self):
        config = baseline_config()
        assert not config.yields_at_branches(1)
        assert not config.vectorized

    def test_dynamic_sub_maximal_yields(self):
        config = vectorized_config(4)
        assert config.yields_at_branches(1)
        assert config.yields_at_branches(2)
        assert not config.yields_at_branches(4)

    def test_static_formation_never_chases_reformation(self):
        config = static_tie_config(4)
        assert not config.yields_at_branches(1)
        assert not config.yields_at_branches(2)


class TestGeometry:
    def test_counts(self):
        geometry = LaunchGeometry(grid=(2, 3, 1), block=(8, 4, 1))
        assert geometry.cta_count == 6
        assert geometry.threads_per_cta == 32
        assert geometry.total_threads == 192

    def test_coordinate_roundtrip(self):
        geometry = LaunchGeometry(grid=(3, 2, 2), block=(4, 2, 2))
        seen = set()
        for linear in range(geometry.cta_count):
            seen.add(geometry.cta_coordinates(linear))
        assert len(seen) == 12

    def test_thread_coordinates(self):
        geometry = LaunchGeometry(grid=(1, 1, 1), block=(4, 2, 1))
        assert geometry.thread_coordinates(0) == (0, 0, 0)
        assert geometry.thread_coordinates(5) == (1, 1, 0)


class TestContexts:
    def test_linear_ids(self):
        context = ThreadContext(
            tid=(1, 2, 0), ntid=(4, 4, 1),
            ctaid=(1, 0, 0), nctaid=(2, 1, 1),
        )
        assert context.linear_tid == 9
        assert context.linear_ctaid == 1
        # a stored attribute (a slot), not a property: the creator of a
        # whole CTA's contexts may pass what it has already computed
        assert "linear_ctaid" in ThreadContext.__slots__
        assert ThreadContext(
            tid=(0, 0, 0), ntid=(4, 4, 1), ctaid=(1, 0, 0),
            nctaid=(2, 1, 1), linear_ctaid=1,
        ) == ThreadContext(
            tid=(0, 0, 0), ntid=(4, 4, 1), ctaid=(1, 0, 0), nctaid=(2, 1, 1),
        )


class TestPartitioning:
    def test_even_partition(self):
        parts = partition_ctas(8, 4)
        assert [len(p) for p in parts] == [2, 2, 2, 2]

    def test_remainder_spread(self):
        parts = partition_ctas(10, 4)
        assert [len(p) for p in parts] == [3, 3, 2, 2]

    def test_fewer_ctas_than_workers(self):
        parts = partition_ctas(2, 4)
        assert [len(p) for p in parts] == [1, 1, 0, 0]

    def test_contiguous_coverage(self):
        parts = partition_ctas(7, 3)
        flattened = [cta for part in parts for cta in part]
        assert flattened == list(range(7))

    def test_invalid_worker_count(self):
        with pytest.raises(LaunchError):
            partition_ctas(4, 0)


class TestTranslationCache:
    def _device(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        return device

    def test_lazy_translation(self):
        device = self._device()
        stats = device.cache.statistics
        assert stats.translations == 0
        assert stats.disk_hits == 0
        device.cache.get("vecAdd", 4)
        # Exactly one materialization — compiled fresh, or loaded from
        # the persistent tier when REPRO_CACHE=1 primed it.
        assert stats.translations + stats.disk_hits == 1

    def test_cache_hits(self):
        device = self._device()
        first = device.cache.get("vecAdd", 4)
        second = device.cache.get("vecAdd", 4)
        assert first is second
        assert device.cache.statistics.hits == 1

    def test_unconfigured_width_rejected(self):
        device = self._device()
        with pytest.raises(TranslationCacheError):
            device.cache.get("vecAdd", 8)

    def test_unknown_kernel_rejected(self):
        device = self._device()
        with pytest.raises(TranslationCacheError):
            device.cache.get("nope", 4)

    def test_specialization_for(self):
        device = self._device()
        assert device.cache.specialization_for(1) == 1
        assert device.cache.specialization_for(3) == 2
        assert device.cache.specialization_for(4) == 4
        assert device.cache.specialization_for(100) == 4

    def test_specialization_for_an_empty_queue_is_scalar(self):
        device = self._device()
        assert device.cache.specialization_for(0) == 1
        assert device.cache.specialization_for(-3) == 1

    def test_scalar_ir_shared_across_widths(self):
        device = self._device()
        first = device.cache.scalar_ir("vecAdd")
        device.cache.get("vecAdd", 2)
        device.cache.get("vecAdd", 4)
        assert device.cache.scalar_ir("vecAdd") is first

    def test_instruction_counts_recorded(self):
        device = self._device()
        count = device.cache.instruction_count("vecAdd", 4)
        assert count > 0


class TestWarpFormationStatistics:
    def test_full_warps_when_block_multiple_of_width(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 256
        a = device.upload(np.zeros(n, dtype=np.float32))
        b = device.upload(np.zeros(n, dtype=np.float32))
        c = device.malloc(n * 4)
        result = device.launch(
            "vecAdd", grid=(4, 1, 1), block=(64, 1, 1),
            args=[a, b, c, n],
        )
        fractions = result.statistics.warp_size_fractions()
        assert fractions == {4: 1.0}

    def test_small_cta_caps_warp_size(self):
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        n = 8
        a = device.upload(np.zeros(n, dtype=np.float32))
        b = device.upload(np.zeros(n, dtype=np.float32))
        c = device.malloc(n * 4)
        result = device.launch(
            "vecAdd", grid=(4, 1, 1), block=(2, 1, 1),
            args=[a, b, c, n],
        )
        # CTAs of 2 threads -> warps of at most 2 (same-CTA formation)
        assert max(result.statistics.warp_size_histogram) == 2

    def test_grid_wider_than_the_window_of_ctas(self):
        from repro.runtime.execution_manager import CTA_WINDOW

        device = Device(config=vectorized_config(4))
        device.register_module(REDUCE_PTX)
        # Every manager gets more than two windows of CTAs.
        ctas = (2 * CTA_WINDOW + 1) * len(device.launcher.managers)
        data = np.random.default_rng(1).standard_normal(
            ctas * 64
        ).astype(np.float32)
        dst = device.malloc(ctas * 4)
        result = device.launch(
            "reduceK", grid=(ctas, 1, 1), block=(64, 1, 1),
            args=[device.upload(data), dst],
        )
        np.testing.assert_allclose(
            dst.read(np.float32, ctas),
            data.reshape(ctas, 64).sum(axis=1),
            rtol=1e-5, atol=1e-5,
        )
        assert result.statistics.threads_launched == ctas * 64
        for manager in device.launcher.managers:
            assert len(manager._shared_slabs) <= CTA_WINDOW

    def test_barrier_yields_counted(self):
        device = Device(config=vectorized_config(4))
        device.register_module(REDUCE_PTX)
        data = np.random.default_rng(0).standard_normal(
            2 * 64
        ).astype(np.float32)
        src = device.upload(data)
        dst = device.malloc(2 * 4)
        result = device.launch(
            "reduceK", grid=(2, 1, 1), block=(64, 1, 1),
            args=[src, dst],
        )
        statistics = result.statistics
        assert statistics.barrier_yields > 0
        assert (
            statistics.yields_by_status[ResumeStatus.THREAD_EXIT] > 0
        )

    def test_threads_launched_counted(self):
        device = Device(config=baseline_config())
        device.register_module(VECADD_PTX)
        a = device.upload(np.zeros(64, dtype=np.float32))
        b = device.upload(np.zeros(64, dtype=np.float32))
        c = device.malloc(64 * 4)
        result = device.launch(
            "vecAdd", grid=(2, 1, 1), block=(32, 1, 1),
            args=[a, b, c, 64],
        )
        assert result.statistics.threads_launched == 64

    def test_divergent_launch_counts_are_pinned(
        self, execution_leg, monkeypatch
    ):
        # What the execution manager does once per warp — the cache
        # lookup, the entry record, the yield record — counted on a
        # sustained-divergence launch. The literals are PR 16's: hoists
        # in the per-warp path may make these cheaper, never different,
        # and neither may the path a warp takes. On the batching leg
        # the first launch's CTAs of 8 warps are one batch each once
        # the kernel is compiled (the first window's is not), and the
        # second launch's CTAs of 16 warps keep forming batches of 8
        # warps and more from what earlier ones left — the hits do not
        # move with any of it, so a batch costs the lookups its warps
        # would have made and a refused one none.
        from tests.conftest import COLLATZ_PTX, collatz_steps

        for variable in ("REPRO_MELD", "REPRO_SANITIZE"):
            monkeypatch.delenv(variable, raising=False)
        device = Device(config=vectorized_config(4))
        device.register_module(COLLATZ_PTX)

        def launch(grid, block):
            n = grid * block
            values = np.arange(n, dtype=np.uint32) * 7 + 1
            dst = device.malloc(n * 4)
            statistics = device.launch(
                "collatz", grid=(grid, 1, 1), block=(block, 1, 1),
                args=[device.upload(values), dst, n],
            ).statistics
            assert list(dst.read(np.uint32, n)) == [
                collatz_steps(int(value)) for value in values
            ]
            return statistics

        statistics = launch(3, 32)
        assert (statistics.cache.hits, statistics.cache.misses) == (1240, 3)
        assert statistics.warp_size_histogram == {1: 210, 2: 254, 4: 779}
        assert statistics.yields_by_status == {
            ResumeStatus.THREAD_BRANCH: 1167, ResumeStatus.THREAD_EXIT: 76,
        }
        assert statistics.values_restored == 11118
        assert statistics.warp_executions == 1243
        assert (statistics.batched_warps, statistics.batch_fallbacks) == (
            (16, 0) if execution_leg == "batching" else (0, 0)
        )
        statistics = launch(2, 64)
        assert (statistics.cache.hits, statistics.cache.misses) == (1379, 0)
        assert statistics.warp_size_histogram == {1: 158, 2: 154, 4: 1067}
        assert statistics.yields_by_status == {
            ResumeStatus.THREAD_BRANCH: 1282, ResumeStatus.THREAD_EXIT: 97,
        }
        assert statistics.values_restored == 13690
        assert statistics.warp_executions == 1379
        assert (statistics.batched_warps, statistics.batch_fallbacks) == (
            (83, 55) if execution_leg == "batching" else (0, 0)
        )


class TestLaunchStatistics:
    def test_merge(self):
        first = LaunchStatistics(kernel_cycles=10, em_cycles=5)
        first.warp_size_histogram[4] = 3
        second = LaunchStatistics(kernel_cycles=20, yield_cycles=2)
        second.warp_size_histogram[4] = 1
        second.warp_size_histogram[1] = 2
        first.merge(second)
        assert first.kernel_cycles == 30
        assert first.warp_size_histogram == {4: 4, 1: 2}

    def test_cycle_fractions_sum_to_one(self):
        statistics = LaunchStatistics(
            kernel_cycles=50, yield_cycles=25, em_cycles=25
        )
        fractions = statistics.cycle_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_elapsed_is_max_worker(self):
        statistics = LaunchStatistics()
        statistics.worker_cycles = {0: 100, 1: 250, 2: 50}
        assert statistics.elapsed_cycles == 250

    def test_gflops(self):
        statistics = LaunchStatistics(flops=1000)
        statistics.worker_cycles = {0: 1000}
        assert statistics.gflops(1e9) == pytest.approx(1.0)

    def test_empty_statistics_are_safe(self):
        statistics = LaunchStatistics()
        assert statistics.average_warp_size == 0.0
        assert statistics.average_values_restored == 0.0
        assert statistics.warp_size_fractions() == {}


class TestLaunchErrors:
    def test_wrong_argument_count(self):
        device = Device()
        device.register_module(VECADD_PTX)
        with pytest.raises(LaunchError):
            device.launch("vecAdd", grid=1, block=32, args=[1, 2])

    def test_empty_grid_rejected(self):
        device = Device()
        device.register_module(VECADD_PTX)
        with pytest.raises(LaunchError):
            device.launch(
                "vecAdd", grid=0, block=32, args=[0, 0, 0, 0]
            )


class TestBarrierDeadlock:
    def test_partial_barrier_deadlock_detected(self):
        # Half the CTA exits before the barrier -> the other half can
        # never be released. With live-count tracking this would hang;
        # we require a LaunchError... unless live_counts releases them.
        source = """
.version 2.3
.target sim
.entry bad (.param .u32 unused)
{
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  setp.lt.u32 %p1, %r1, 16;
  @%p1 bra WAIT;
  exit;
WAIT:
  bar.sync 0;
  exit;
}
"""
        device = Device(config=baseline_config())
        device.register_module(source)
        # Threads 0-15 wait; 16-31 exit. live_counts drops to 16 and
        # the barrier releases — CUDA leaves this undefined, we choose
        # the forgiving semantics. The launch must terminate.
        result = device.launch("bad", grid=1, block=32, args=[0])
        assert result.statistics.threads_launched == 32
