"""Interpreter edge cases: unordered float compares, the full atomic
operator set, vote reductions, and context-field coverage."""

import numpy as np
import pytest

from repro import Device, baseline_config, vectorized_config
from repro.ptx.types import DataType

HEADER = ".version 2.3\n.target sim\n"


def run_kernel(source, buffers, kernel="k", grid=1, block=32,
               config=None):
    device = Device(config=config or baseline_config())
    device.register_module(HEADER + source)
    allocations = []
    arguments = []
    for item in buffers:
        if isinstance(item, np.ndarray):
            allocation = device.upload(item)
            allocations.append(allocation)
            arguments.append(allocation)
        else:
            arguments.append(item)
    device.launch(kernel, grid=grid, block=block, args=arguments)
    return allocations


class TestUnorderedCompares:
    def test_ltu_true_for_nan(self):
        source = """
.entry k (.param .u64 data, .param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  .reg .f32 %f<4>;
  .reg .pred %p<4>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [data];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  setp.ltu.f32 %p1, %f1, 1.0;
  selp.u32 %r2, 1, 0, %p1;
  setp.lt.f32 %p2, %f1, 1.0;
  selp.u32 %r3, 1, 0, %p2;
  shl.b32 %r3, %r3, 1;
  or.b32 %r2, %r2, %r3;
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r2;
  exit;
}
"""
        data = np.array(
            [0.5, 2.0, np.nan, 1.0] + [0.0] * 28, dtype=np.float32
        )
        buffers = run_kernel(
            source, [data, np.zeros(32, dtype=np.uint32)]
        )
        got = buffers[1].read(np.uint32, 32)
        # bit0 = ltu, bit1 = lt
        assert got[0] == 0b11  # 0.5 < 1: both
        assert got[1] == 0b00  # 2.0: neither
        assert got[2] == 0b01  # NaN: unordered-true only
        assert got[3] == 0b00  # equal: neither

    def test_nan_and_num_predicates(self):
        source = """
.entry k (.param .u64 data, .param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<6>;
  .reg .f32 %f<4>;
  .reg .pred %p<4>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [data];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  setp.nan.f32 %p1, %f1, %f1;
  selp.u32 %r2, 1, 0, %p1;
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r2;
  exit;
}
"""
        data = np.array([1.0, np.nan] + [0.0] * 30, dtype=np.float32)
        buffers = run_kernel(
            source, [data, np.zeros(32, dtype=np.uint32)]
        )
        got = buffers[1].read(np.uint32, 32)
        assert got[0] == 0
        assert got[1] == 1


class TestAtomicOperators:
    def _run_atomics(self, config):
        source = """
.entry k (.param .u64 cells)
{
  .reg .u32 %r<10>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  ld.param.u64 %rd1, [cells];
  // exch: last writer wins (some thread's id survives)
  atom.global.exch.u32 %r2, [%rd1], %r1;
  // inc with wrap limit 7
  atom.global.inc.u32 %r3, [%rd1+4], 7;
  // dec with floor behaviour
  atom.global.dec.u32 %r4, [%rd1+8], 100;
  // cas: only the thread seeing 0 installs its id+1
  add.u32 %r5, %r1, 1;
  atom.global.cas.u32 %r6, [%rd1+12], 0, %r5;
  // xor parity
  atom.global.xor.b32 %r7, [%rd1+16], 1;
  exit;
}
"""
        device = Device(config=config)
        device.register_module(HEADER + source)
        cells = device.upload(np.zeros(5, dtype=np.uint32))
        device.launch("k", grid=1, block=32, args=[cells])
        return cells.read(np.uint32, 5)

    @pytest.mark.parametrize(
        "config", [baseline_config(), vectorized_config(4)],
        ids=["baseline", "vec4"],
    )
    def test_atomic_semantics(self, config):
        got = self._run_atomics(config)
        assert got[0] < 32  # exch left some thread id
        assert got[1] == 32 % 8  # inc wraps at limit 7
        # dec from 0 with limit 100: first dec wraps to 100, then down
        assert got[2] == (100 - 31) % 101
        assert got[3] == 1  # only the first CAS succeeded (value 0+1)
        assert got[4] == 0  # 32 xors of 1 cancel


class TestVoteBallot:
    def test_ballot_mask(self):
        source = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .b32 %b<2>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 1;
  vote.ballot.b32 %b1, %p1;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %b1;
  exit;
}
"""
        device = Device(config=vectorized_config(4))
        device.register_module(HEADER + source)
        out = device.malloc(8 * 4)
        device.launch("k", grid=1, block=8, args=[out])
        got = out.read(np.uint32, 8)
        # warps of 4 consecutive threads: odd lanes set -> 0b1010
        assert np.all(got == 0b1010)


class TestContextFields:
    def test_all_dimensions_visible(self):
        source = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<12>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %tid.y;
  mov.u32 %r3, %ctaid.y;
  mov.u32 %r4, %nctaid.x;
  mov.u32 %r5, %ntid.y;
  setp.ne.u32 %p1, %r1, 0;
  @%p1 bra DONE;
  setp.ne.u32 %p1, %r2, 1;
  @%p1 bra DONE;
  // thread (0,1) of cta (*,1) writes a summary word
  mad.lo.u32 %r6, %r3, 100, %r4;
  mad.lo.u32 %r6, %r6, 100, %r5;
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r6;
DONE:
  exit;
}
"""
        device = Device(config=baseline_config())
        device.register_module(HEADER + source)
        out = device.malloc(4)
        device.launch(
            "k", grid=(3, 2, 1), block=(2, 4, 1), args=[out]
        )
        # ctaid.y in {0,1}; last writer has ctaid.y == 1:
        # (1*100 + nctaid.x=3)*100 + ntid.y=4 = 10304
        got = out.read(np.uint32, 1)[0]
        assert got in (304, 10304)

    def test_laneid_matches_position(self):
        source = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %laneid;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r2;
  exit;
}
"""
        device = Device(config=vectorized_config(4))
        device.register_module(HEADER + source)
        out = device.malloc(8 * 4)
        device.launch("k", grid=1, block=8, args=[out])
        got = out.read(np.uint32, 8)
        assert list(got) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_laneid_after_a_divergent_join_is_read_again(self):
        # Odd and even threads part and meet again at JOIN, where the
        # scheduler may have re-formed the warps: the second %laneid
        # is the thread's lane there, not a copy of the first.
        from repro.runtime.config import ExecutionConfig

        source = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %laneid;
  and.b32 %r3, %r1, 1;
  setp.eq.u32 %p, %r3, 0;
  @%p bra EVEN;
  add.u32 %r6, %r1, 1000;
  bra JOIN;
EVEN:
  add.u32 %r6, %r1, 2000;
JOIN:
  mov.u32 %r4, %laneid;
  mul.lo.u32 %r5, %r2, 100;
  add.u32 %r5, %r5, %r4;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r5;
  exit;
}
"""
        results = []
        for config in (
            ExecutionConfig(),
            ExecutionConfig(optimize=False),
            ExecutionConfig(backend="reference"),
        ):
            device = Device(config=config)
            device.register_module(HEADER + source)
            out = device.malloc(8 * 4)
            device.launch("k", grid=1, block=8, args=[out])
            results.append(list(out.read(np.uint32, 8)))
        optimized, unoptimized, reference = results
        assert optimized == unoptimized == reference
        # The lanes moved: some thread's two reads differ.
        assert any(value // 100 != value % 100 for value in optimized)


class TestMemorySystemEdgeCases:
    """Arena allocator corner cases backing the fault-containment
    guarantees (precise frees, validated double frees, bounded traps)."""

    def _memory(self, size=1 << 16):
        from repro.machine.memory import MemorySystem

        return MemorySystem(size=size)

    def test_zero_size_allocate_is_valid_and_free(self):
        memory = self._memory()
        before = memory.bytes_allocated
        address = memory.allocate(0)
        assert address >= 64  # never inside the null guard
        assert memory.bytes_allocated == before
        memory.free(address, 0)  # no-op, must not raise
        assert memory.bytes_allocated == before

    def test_negative_allocation_raises(self):
        from repro.errors import MemoryFault

        with pytest.raises(MemoryFault, match="negative allocation"):
            self._memory().allocate(-1)

    def test_free_at_exact_arena_break_lowers_break(self):
        memory = self._memory()
        first = memory.allocate(64)
        second = memory.allocate(64)
        top = memory.bytes_allocated
        assert top == second + 64
        memory.free(second, 64)
        assert memory.bytes_allocated == second
        memory.free(first, 64)
        assert memory.bytes_allocated == first

    def test_interior_free_then_break_free_absorbs_both(self):
        memory = self._memory()
        first = memory.allocate(64)
        second = memory.allocate(64)
        memory.free(first, 64)  # interior: break unchanged
        assert memory.bytes_allocated == second + 64
        memory.free(second, 64)  # at break: absorbs the interior block
        assert memory.bytes_allocated == first

    def test_overlapping_free_detected(self):
        from repro.errors import MemoryFault

        memory = self._memory()
        first = memory.allocate(64)
        memory.allocate(64)  # keep the break above the freed region
        memory.free(first, 64)
        with pytest.raises(MemoryFault, match="double free"):
            memory.free(first, 64)
        with pytest.raises(MemoryFault, match="already-free"):
            memory.free(first + 16, 32)  # partial overlap

    def test_free_beyond_break_detected(self):
        from repro.errors import MemoryFault

        memory = self._memory()
        address = memory.allocate(64)
        with pytest.raises(MemoryFault, match="beyond the allocation"):
            memory.free(address, 1 << 12)

    def test_null_page_and_arena_end_fault(self):
        from repro.errors import MemoryFault
        from repro.ptx.types import DataType

        memory = self._memory()
        with pytest.raises(MemoryFault):
            memory.load(DataType.u32, 0)  # null page
        with pytest.raises(MemoryFault):
            memory.store(DataType.u32, memory.size - 2, 1)  # past end

    def test_memory_fault_message_and_payload(self):
        from repro.errors import MemoryFault

        fault = MemoryFault(0x1234, 8, reason="injected fault")
        assert "injected fault" in str(fault)
        assert "address=0x1234" in str(fault)
        assert "size=8" in str(fault)
        assert fault.address == 0x1234
        assert fault.size == 8
        assert fault.reason == "injected fault"
