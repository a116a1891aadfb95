"""Device API tests: module registration, memory management, argument
packing, launches."""

import numpy as np
import pytest

from repro import Device, vectorized_config
from repro.errors import LaunchError, PTXValidationError
from tests.conftest import VECADD_PTX

PARAM_ECHO_PTX = """
.version 2.3
.target sim
.entry echoParams (.param .u64 out, .param .u32 a, .param .s32 b,
                   .param .f32 c, .param .u64 d, .param .f32 taps[3])
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  .reg .f32 %f<6>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  setp.ne.u32 %p1, %r1, 0;
  @%p1 bra DONE;
  ld.param.u64 %rd1, [out];
  ld.param.u32 %r2, [a];
  st.global.u32 [%rd1], %r2;
  ld.param.s32 %r3, [b];
  st.global.u32 [%rd1+4], %r3;
  ld.param.f32 %f1, [c];
  st.global.f32 [%rd1+8], %f1;
  ld.param.u64 %rd2, [d];
  st.global.u64 [%rd1+16], %rd2;
  ld.param.f32 %f2, [taps];
  ld.param.f32 %f3, [taps+4];
  ld.param.f32 %f4, [taps+8];
  add.f32 %f5, %f2, %f3;
  add.f32 %f5, %f5, %f4;
  st.global.f32 [%rd1+24], %f5;
DONE:
  exit;
}
"""


class TestModuleRegistration:
    def test_register_text(self, device):
        module = device.register_module(VECADD_PTX)
        assert "vecAdd" in module.kernels

    def test_register_parsed_module(self, device, vecadd_module):
        device.register_module(vecadd_module)
        assert device.cache.kernel("vecAdd") is not None

    def test_invalid_module_rejected_eagerly(self, device):
        bad = (
            ".version 2.3\n.target sim\n"
            ".entry broken () {\n  bra NOWHERE;\n}"
        )
        with pytest.raises(PTXValidationError):
            device.register_module(bad)

    def test_const_variables_materialized(self, device):
        source = (
            ".version 2.3\n.target sim\n"
            ".const .f32 lut[2] = { 1.5, 2.5 };\n"
            ".entry k () { exit; }"
        )
        device.register_module(source)
        # initializer written into the arena, at the address in the
        # module's own table
        address = device._registered[source][1]["lut"]
        values = device.memory.read_array(address, np.float32, 2)
        assert list(values) == [1.5, 2.5]


class TestMemoryManagement:
    def test_upload_and_read(self, device, rng):
        data = rng.standard_normal(100).astype(np.float32)
        buffer = device.upload(data)
        assert np.array_equal(buffer.read(np.float32, 100), data)

    def test_memset(self, device):
        buffer = device.malloc(64)
        device.memset(buffer, 0xAB)
        assert np.all(buffer.read(np.uint8, 64) == 0xAB)

    def test_allocations_are_disjoint(self, device):
        first = device.malloc(100)
        second = device.malloc(100)
        assert (
            first.address + first.size <= second.address
            or second.address + second.size <= first.address
        )

    def test_allocation_int_conversion(self, device):
        buffer = device.malloc(16)
        assert int(buffer) == buffer.address

    def test_host_copies_are_bounded_by_the_buffer(self, device):
        """A read or write through one buffer never reaches the next
        one in the arena: past its size it is refused, naming the
        buffer and the byte counts, and the neighbour is untouched."""
        a = device.malloc(16, label="a")
        b = device.upload(np.array([7, 8, 9, 10], dtype=np.float32))
        with pytest.raises(LaunchError, match=r"read of 32 bytes .* a @"):
            a.read(np.float32, 8)
        with pytest.raises(LaunchError, match="write of 32 bytes"):
            device.memcpy_htod(a, np.full(8, -1.0, dtype=np.float32))
        with pytest.raises(LaunchError, match="read of -4 bytes"):
            a.read(np.float32, -1)
        assert list(b.read(np.float32, 4)) == [7, 8, 9, 10]
        a.write(np.full(4, -1.0, dtype=np.float32))  # exactly fits
        assert list(a.read(np.float32, 4)) == [-1] * 4
        assert list(b.read(np.float32, 4)) == [7, 8, 9, 10]


class TestArgumentPacking:
    def test_all_parameter_kinds(self, device):
        device.register_module(PARAM_ECHO_PTX)
        out = device.malloc(32)
        pointer = device.malloc(16)
        device.launch(
            "echoParams",
            grid=1,
            block=1,
            args=[out, 42, -17, 2.5, pointer, [0.5, 1.0, 1.5]],
        )
        from repro.ptx.types import DataType

        raw32 = out.read(np.uint32, 8)
        assert raw32[0] == 42
        assert raw32[1] == np.uint32(np.int32(-17).view(np.uint32))
        assert out.read(np.float32, 8)[2] == 2.5
        stored_pointer = device.memory.load(
            DataType.u64, out.address + 16
        )
        assert stored_pointer == pointer.address
        assert out.read(np.float32, 8)[6] == 3.0

    def test_wrong_array_length_rejected(self, device):
        device.register_module(PARAM_ECHO_PTX)
        out = device.malloc(32)
        with pytest.raises(LaunchError):
            device.launch(
                "echoParams",
                grid=1,
                block=1,
                args=[out, 1, 2, 3.0, 0, [1.0, 2.0]],  # needs 3 taps
            )

    def test_int_accepted_for_pointer(self, device, rng):
        device.register_module(VECADD_PTX)
        data = rng.standard_normal(32).astype(np.float32)
        a = device.upload(data)
        b = device.upload(data)
        c = device.malloc(32 * 4)
        device.launch(
            "vecAdd", grid=1, block=32,
            args=[a.address, b.address, c.address, 32],
        )
        assert np.allclose(c.read(np.float32, 32), data * 2)


class TestDimNormalization:
    def test_scalar_dims(self, device, rng):
        device.register_module(VECADD_PTX)
        data = rng.standard_normal(64).astype(np.float32)
        a = device.upload(data)
        b = device.upload(data)
        c = device.malloc(64 * 4)
        device.launch("vecAdd", grid=2, block=32, args=[a, b, c, 64])
        assert np.allclose(c.read(np.float32, 64), data * 2)

    def test_tuple_dims_padded(self, device, rng):
        device.register_module(VECADD_PTX)
        data = rng.standard_normal(64).astype(np.float32)
        a = device.upload(data)
        b = device.upload(data)
        c = device.malloc(64 * 4)
        device.launch(
            "vecAdd", grid=(2,), block=(32,), args=[a, b, c, 64]
        )
        assert np.allclose(c.read(np.float32, 64), data * 2)


class TestReporting:
    def test_statistics_report(self, device):
        device.register_module(VECADD_PTX)
        report = device.statistics_report()
        assert "modules=1" in report

    def test_launch_result_repr_and_metrics(self, device, rng):
        device.register_module(VECADD_PTX)
        data = rng.standard_normal(64).astype(np.float32)
        a = device.upload(data)
        b = device.upload(data)
        c = device.malloc(64 * 4)
        result = device.launch(
            "vecAdd", grid=2, block=32, args=[a, b, c, 64]
        )
        assert "vecAdd" in repr(result)
        assert result.elapsed_seconds > 0
        assert result.gflops >= 0
