"""Launch-path validation and resource-reclaim regressions.

Covers the three launch-path bugfixes:
- failed argument marshalling must not leak the parameter segment
  (the arena break is stable across repeated failed launches);
- bad argument values raise :class:`LaunchError` naming the
  parameter, never a raw ``struct.error``;
- grid/block validation rejects 4+-dimension tuples and non-positive
  components, naming the offending axis.
"""

import struct

import numpy as np
import pytest

from repro import Device
from repro.errors import LaunchError
from tests.conftest import VECADD_PTX
from tests.test_api_device import PARAM_ECHO_PTX


@pytest.fixture
def vec_device():
    device = Device()
    device.register_module(VECADD_PTX)
    return device


@pytest.fixture
def echo_device():
    device = Device()
    device.register_module(PARAM_ECHO_PTX)
    return device


def _vecadd_buffers(device, n=8):
    a = device.upload(np.arange(n, dtype=np.float32))
    b = device.upload(np.arange(n, dtype=np.float32))
    c = device.malloc(4 * n)
    return a, b, c


class TestParameterSegmentReclaim:
    def test_failed_marshalling_does_not_leak_arena(self, vec_device):
        """Regression: the marshalling loop used to run before the
        try/finally that frees the parameter segment, so every failed
        launch permanently grew the arena break."""
        a, b, c = _vecadd_buffers(vec_device)
        break_before = vec_device.memory._brk
        for _ in range(3):
            with pytest.raises(LaunchError):
                vec_device.launch("vecAdd", 1, 8, [a, b, c, "bogus"])
        assert vec_device.memory._brk == break_before

    def test_failed_marshalling_does_not_set_sticky_error(
        self, vec_device
    ):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(LaunchError):
            vec_device.launch("vecAdd", 1, 8, [a, b, c, None])
        assert vec_device.last_error is None
        vec_device.launch("vecAdd", 1, 8, [a, b, c, 8])
        assert np.allclose(
            c.read(np.float32, 8), np.arange(8) * 2
        )

    def test_successful_launch_reclaims_parameter_segment(
        self, vec_device
    ):
        a, b, c = _vecadd_buffers(vec_device)
        vec_device.launch("vecAdd", 1, 8, [a, b, c, 8])
        break_before = vec_device.memory._brk
        for _ in range(3):
            vec_device.launch("vecAdd", 1, 8, [a, b, c, 8])
        assert vec_device.memory._brk == break_before


class TestBadArgumentValues:
    """Every class of bad value surfaces as LaunchError naming the
    parameter — struct.error must never escape Device.launch."""

    def _launch(self, device, args):
        out = device.malloc(64)
        return device.launch(
            "echoParams", 1, 1, [out] + args
        )

    GOOD_TAIL = [7, -3, 1.5, 99, [0.1, 0.2, 0.3]]

    @pytest.mark.parametrize(
        "index,bad,parameter",
        [
            (0, "seven", "a"),          # str for .u32
            (0, 2.5, "a"),              # float for int param
            (0, -1, "a"),               # negative for unsigned
            (0, 1 << 40, "a"),          # out of u32 range
            (1, "minus", "b"),          # str for .s32
            (1, 1 << 33, "b"),          # out of s32 range
            (2, "pi", "c"),             # str for .f32
            (2, None, "c"),             # None for float
            (3, object(), "d"),         # arbitrary object for .u64
        ],
    )
    def test_bad_scalar_raises_launch_error(
        self, echo_device, index, bad, parameter
    ):
        args = list(self.GOOD_TAIL)
        args[index] = bad
        try:
            self._launch(echo_device, args)
        except struct.error:
            pytest.fail("raw struct.error escaped Device.launch")
        except LaunchError as error:
            assert f"{parameter!r}" in str(error)
        else:
            pytest.fail("bad argument value was accepted")

    def test_bad_array_element_names_parameter_and_index(
        self, echo_device
    ):
        args = list(self.GOOD_TAIL)
        args[4] = [0.1, "x", 0.3]
        with pytest.raises(LaunchError, match=r"'taps'.*element 1"):
            self._launch(echo_device, args)

    def test_non_sequence_for_array_parameter(self, echo_device):
        args = list(self.GOOD_TAIL)
        args[4] = 1.25
        with pytest.raises(LaunchError, match="'taps'"):
            self._launch(echo_device, args)

    def test_good_values_still_launch(self, echo_device):
        out = echo_device.malloc(64)
        echo_device.launch(
            "echoParams", 1, 1, [out] + self.GOOD_TAIL
        )
        assert out.read(np.uint32, 1)[0] == 7


class TestDimensionValidation:
    def test_four_dimensional_grid_rejected(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(
            LaunchError, match=r"grid has 4 dimensions"
        ):
            vec_device.launch("vecAdd", (1, 2, 3, 4), 8, [a, b, c, 8])

    def test_four_dimensional_block_rejected(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(
            LaunchError, match=r"block has 5 dimensions"
        ):
            vec_device.launch(
                "vecAdd", 1, (1, 1, 1, 1, 1), [a, b, c, 8]
            )

    @pytest.mark.parametrize(
        "block,axis",
        [((0, 1, 1), "block.x"), ((8, 0), "block.y"), ((8, 1, -2), "block.z")],
    )
    def test_non_positive_component_names_axis(
        self, vec_device, block, axis
    ):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(LaunchError, match=axis.replace(".", r"\.")):
            vec_device.launch("vecAdd", 1, block, [a, b, c, 8])

    def test_zero_grid_scalar_rejected(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(LaunchError, match=r"grid\.x must be >= 1"):
            vec_device.launch("vecAdd", 0, 8, [a, b, c, 8])

    def test_non_integer_dimension_rejected(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(LaunchError, match="grid"):
            vec_device.launch("vecAdd", 1.5, 8, [a, b, c, 8])

    @pytest.mark.parametrize(
        "grid,axis",
        [
            ((2.5, 1), "grid.x"),
            ([4, 1.9], "grid.y"),
            ("12", "grid.x"),
            (True, "grid.x"),
            ((True, 2), "grid.x"),
            ((2, np.bool_(True)), "grid.y"),
        ],
    )
    def test_only_integer_components_accepted(self, vec_device, grid, axis):
        """A float is not rounded, a string is not split into digits
        and a bool is not taken as 1: each is refused, by axis."""
        a, b, c = _vecadd_buffers(vec_device)
        with pytest.raises(
            LaunchError, match=axis.replace(".", r"\.") + " must be an int"
        ):
            vec_device.launch("vecAdd", grid, 8, [a, b, c, 8])

    def test_validation_rejects_before_any_allocation(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        break_before = vec_device.memory._brk
        for _ in range(3):
            with pytest.raises(LaunchError):
                vec_device.launch(
                    "vecAdd", (1, 2, 3, 4), 8, [a, b, c, 8]
                )
        assert vec_device.memory._brk == break_before

    def test_valid_shapes_still_accepted(self, vec_device):
        a, b, c = _vecadd_buffers(vec_device)
        vec_device.launch("vecAdd", (1,), (8, 1), [a, b, c, 8])
        assert np.allclose(c.read(np.float32, 8), np.arange(8) * 2)
        vec_device.launch(
            "vecAdd", np.int64(1), (np.int32(8),), [a, b, c, 8]
        )
