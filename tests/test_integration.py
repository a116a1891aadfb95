"""End-to-end integration tests: full kernels through the public API
under every configuration, checking both results and the divergence
machinery's observable behaviour."""

import numpy as np
import pytest

from repro import (
    Device,
    ExecutionConfig,
    avx_machine,
    baseline_config,
    knights_ferry,
    static_tie_config,
    vectorized_config,
)
from tests.conftest import (
    COLLATZ_PTX,
    REDUCE_PTX,
    VECADD_PTX,
    collatz_steps,
)

ALL_CONFIGS = [
    ("baseline", baseline_config()),
    ("vec4", vectorized_config(4)),
    ("vec2", vectorized_config(2)),
    ("static-tie", static_tie_config(4)),
]


def run_vecadd(device, n, grid, block, rng):
    device.register_module(VECADD_PTX)
    a = rng.standard_normal(n).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)
    a_buffer = device.upload(a)
    b_buffer = device.upload(b)
    c_buffer = device.malloc(n * 4)
    result = device.launch(
        "vecAdd", grid=grid, block=block,
        args=[a_buffer, b_buffer, c_buffer, n],
    )
    return c_buffer.read(np.float32, n), a + b, result


class TestVecAddEverywhere:
    @pytest.mark.parametrize("label,config", ALL_CONFIGS)
    def test_exact_size(self, label, config, rng):
        device = Device(config=config)
        got, expected, _ = run_vecadd(
            device, 256, (4, 1, 1), (64, 1, 1), rng
        )
        assert np.allclose(got, expected)

    @pytest.mark.parametrize("label,config", ALL_CONFIGS)
    def test_ragged_size_diverges_at_guard(self, label, config, rng):
        device = Device(config=config)
        got, expected, _ = run_vecadd(
            device, 250, (4, 1, 1), (64, 1, 1), rng
        )
        assert np.allclose(got, expected)

    def test_divergent_guard_yields_when_misaligned(self, rng):
        device = Device(config=vectorized_config(4))
        # n = 249 puts the guard boundary inside a warp
        _, _, result = run_vecadd(
            device, 249, (4, 1, 1), (63, 1, 1), rng
        )
        assert result.statistics.divergent_yields > 0


class TestCollatzDivergence:
    @pytest.mark.parametrize("label,config", ALL_CONFIGS)
    def test_correct_everywhere(self, label, config, rng):
        n = 256
        values = rng.integers(1, 500, n).astype(np.uint32)
        expected = np.array(
            [collatz_steps(int(v)) for v in values], dtype=np.uint32
        )
        device = Device(config=config)
        device.register_module(COLLATZ_PTX)
        src = device.upload(values)
        dst = device.malloc(n * 4)
        device.launch(
            "collatz", grid=(4, 1, 1), block=(64, 1, 1),
            args=[src, dst, n],
        )
        assert np.array_equal(dst.read(np.uint32, n), expected)

    def test_dynamic_formation_reforms_warps(self, rng):
        n = 256
        values = rng.integers(1, 500, n).astype(np.uint32)
        device = Device(config=vectorized_config(4))
        device.register_module(COLLATZ_PTX)
        src = device.upload(values)
        dst = device.malloc(n * 4)
        result = device.launch(
            "collatz", grid=(4, 1, 1), block=(64, 1, 1),
            args=[src, dst, n],
        )
        statistics = result.statistics
        assert statistics.divergent_yields > 0
        # re-formation found wider-than-scalar warps after divergence
        assert statistics.average_warp_size > 1.5
        assert statistics.average_values_restored > 0

    def test_uniform_data_never_diverges(self):
        n = 128
        values = np.full(n, 32, dtype=np.uint32)  # same trip count
        device = Device(config=vectorized_config(4))
        device.register_module(COLLATZ_PTX)
        src = device.upload(values)
        dst = device.malloc(n * 4)
        result = device.launch(
            "collatz", grid=(2, 1, 1), block=(64, 1, 1),
            args=[src, dst, n],
        )
        assert result.statistics.divergent_yields == 0
        assert np.all(dst.read(np.uint32, n) == collatz_steps(32))


class TestBarriers:
    @pytest.mark.parametrize("label,config", ALL_CONFIGS)
    def test_reduction_correct(self, label, config, rng):
        ctas = 8
        data = rng.standard_normal(ctas * 64).astype(np.float32)
        device = Device(config=config)
        device.register_module(REDUCE_PTX)
        src = device.upload(data)
        dst = device.malloc(ctas * 4)
        device.launch(
            "reduceK", grid=(ctas, 1, 1), block=(64, 1, 1),
            args=[src, dst],
        )
        got = dst.read(np.float32, ctas)
        expected = data.reshape(ctas, 64).sum(axis=1)
        assert np.allclose(got, expected, rtol=1e-4)

    def test_repeated_launches_reuse_state(self, rng):
        """Same kernel launched repeatedly: slabs are reused and the
        cache serves translations without re-compiling."""
        device = Device(config=vectorized_config(4))
        device.register_module(REDUCE_PTX)
        for _ in range(3):
            data = rng.standard_normal(2 * 64).astype(np.float32)
            src = device.upload(data)
            dst = device.malloc(2 * 4)
            device.launch(
                "reduceK", grid=(2, 1, 1), block=(64, 1, 1),
                args=[src, dst],
            )
            expected = data.reshape(2, 64).sum(axis=1)
            assert np.allclose(
                dst.read(np.float32, 2), expected, rtol=1e-4
            )
        translations = device.cache.statistics.translations
        assert translations <= len(device.config.warp_sizes)


class TestOtherMachines:
    def test_avx_8_wide_runs(self, rng):
        device = Device(
            machine=avx_machine(),
            config=ExecutionConfig(warp_sizes=(1, 2, 4, 8)),
        )
        got, expected, result = run_vecadd(
            device, 256, (4, 1, 1), (64, 1, 1), rng
        )
        assert np.allclose(got, expected)
        assert max(result.statistics.warp_size_histogram) == 8

    def test_knights_ferry_16_wide_runs(self, rng):
        device = Device(
            machine=knights_ferry(),
            config=ExecutionConfig(warp_sizes=(1, 2, 4, 8, 16)),
        )
        got, expected, result = run_vecadd(
            device, 512, (8, 1, 1), (64, 1, 1), rng
        )
        assert np.allclose(got, expected)
        assert max(result.statistics.warp_size_histogram) == 16


class TestCrossCtaFormation:
    def test_cross_cta_warps_widen_small_blocks(self, rng):
        n = 64
        base = ExecutionConfig(warp_sizes=(1, 2, 4))
        cross = ExecutionConfig(
            warp_sizes=(1, 2, 4), allow_cross_cta_warps=True
        )
        results = {}
        for label, config in (("same", base), ("cross", cross)):
            device = Device(config=config)
            got, expected, result = run_vecadd(
                device, n, (32, 1, 1), (2, 1, 1), rng
            )
            assert np.allclose(got, expected)
            results[label] = result.statistics.average_warp_size
        assert results["same"] <= 2.0
        assert results["cross"] > results["same"]


class TestOptimizationLevels:
    def test_unoptimized_pipeline_still_correct(self, rng):
        config = ExecutionConfig(warp_sizes=(1, 2, 4), optimize=False)
        device = Device(config=config)
        got, expected, _ = run_vecadd(
            device, 200, (4, 1, 1), (64, 1, 1), rng
        )
        assert np.allclose(got, expected)

    def test_optimization_reduces_instructions(self):
        plain = Device(
            config=ExecutionConfig(warp_sizes=(1, 2, 4), optimize=False)
        )
        optimized = Device(
            config=ExecutionConfig(warp_sizes=(1, 2, 4), optimize=True)
        )
        plain.register_module(VECADD_PTX)
        optimized.register_module(VECADD_PTX)
        assert optimized.cache.instruction_count(
            "vecAdd", 4
        ) <= plain.cache.instruction_count("vecAdd", 4)


#: ``cvt`` and ``set`` read an immediate as their *source* type.
SOURCE_IMMEDIATE_PTX = r"""
.version 2.3
.target sim
.entry k (.param .u64 inp, .param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;

  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [inp];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  cvt.rni.s32.f32 %r2, 2.7;
  set.gt.u32.f32 %r3, %f1, 1.5;
  mul.wide.u32 %rd4, %r1, 8;
  ld.param.u64 %rd5, [out];
  add.u64 %rd6, %rd5, %rd4;
  st.global.u32 [%rd6], %r2;
  st.global.u32 [%rd6+4], %r3;
  exit;
}
"""


class TestSourceTypedImmediates:
    @pytest.mark.parametrize("threads", [1, 8])
    def test_cvt_and_set_read_the_immediate_as_the_source_type(
        self, threads, monkeypatch
    ):
        # 1 thread: scalar destinations, which the optimizer folds. (The
        # reference oracle cannot sanitize: a forced REPRO_SANITIZE
        # would reject its config.)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        data = np.array(
            [1.0, 1.25, 1.5, 1.75, 2.0, -3.0, 1.4999, 7.5], np.float32
        )[:threads]
        expected = np.empty((threads, 2), np.uint32)
        expected[:, 0] = np.rint(np.float32(2.7))
        expected[:, 1] = np.where(data > np.float32(1.5), 0xFFFFFFFF, 0)
        for config in (
            ExecutionConfig(),
            ExecutionConfig(optimize=False),
            ExecutionConfig(backend="reference"),
        ):
            device = Device(config=config)
            device.register_module(SOURCE_IMMEDIATE_PTX)
            out = device.malloc(threads * 8)
            device.launch(
                "k", grid=1, block=threads,
                args=[device.upload(data), out],
            )
            result = out.read(np.uint32, threads * 2).reshape(threads, 2)
            assert (result == expected).all(), config
