"""Vectorization transform tests (Algorithms 1-4) and the uniformity
analysis feeding §6.2's thread-invariant elimination."""

import pytest

from repro.ir import (
    Broadcast,
    CondBranch,
    ContextRead,
    ContextWrite,
    Load,
    Reduce,
    ResumeStatus,
    Store,
    Switch,
    VirtualRegister,
    Yield,
    verify_function,
)
from repro.ir.liveness import LivenessInfo
from repro.frontend import translate_kernel
from repro.ptx import parse
from repro.transforms import (
    VectorizeOptions,
    analyze_uniformity,
    assign_spill_slots,
    compute_entry_points,
    vectorize_kernel,
)


def instructions_of(function, kind):
    return [i for i in function.instructions() if isinstance(i, kind)]


def contiguous(function, kind):
    """The contiguous lane groups of class ``kind``."""
    return [i for i in instructions_of(function, kind) if i.contiguous]


def vectorize(scalar, **kw):
    options = VectorizeOptions(**kw)
    function = vectorize_kernel(scalar, options)
    verify_function(function)
    return function


class TestEntryPoints:
    def test_entry_zero_is_function_entry(self, vecadd_scalar_ir):
        points = compute_entry_points(vecadd_scalar_ir)
        assert points[vecadd_scalar_ir.entry_label] == 0

    def test_branch_successors_registered(self, vecadd_scalar_ir):
        points = compute_entry_points(vecadd_scalar_ir)
        assert "DONE" in points
        assert "fall_1" in points

    def test_numbering_consistent_across_specializations(
        self, reduce_scalar_ir
    ):
        narrow = vectorize(reduce_scalar_ir, warp_size=2)
        wide = vectorize(reduce_scalar_ir, warp_size=4)
        scalar_points = compute_entry_points(reduce_scalar_ir)
        for label, entry_id in scalar_points.items():
            # both specializations expose the same entry IDs
            assert entry_id in narrow.entry_points
            assert entry_id in wide.entry_points
            # and their handlers lead to the same source block
            if entry_id != 0:
                assert narrow.entry_points[entry_id].startswith(label)
                assert wide.entry_points[entry_id].startswith(label)

    def test_barrier_successor_registered(self, reduce_scalar_ir):
        points = compute_entry_points(reduce_scalar_ir)
        barrier_successors = [
            label for label in points if label.startswith("post_barrier")
        ]
        assert barrier_successors


class TestSpillSlots:
    def test_slots_aligned_to_size(self, vecadd_scalar_ir):
        slots, size = assign_spill_slots(vecadd_scalar_ir)
        for name, offset in slots.items():
            register = next(
                r for r in vecadd_scalar_ir.registers()
                if r.name == name
            )
            assert offset % register.dtype.size == 0
        assert size > 0

    def test_slots_deterministic(self, vecadd_scalar_ir):
        first, _ = assign_spill_slots(vecadd_scalar_ir)
        second, _ = assign_spill_slots(vecadd_scalar_ir)
        assert first == second

    def test_slots_do_not_overlap(self, vecadd_scalar_ir):
        slots, size = assign_spill_slots(vecadd_scalar_ir)
        registers = {r.name: r for r in vecadd_scalar_ir.registers()}
        intervals = sorted(
            (offset, offset + registers[name].dtype.size)
            for name, offset in slots.items()
        )
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert end <= start


class TestAlgorithm1:
    def test_arithmetic_promoted_to_vector(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        adds = [
            i for i in function.instructions()
            if getattr(i, "op", None) == "add"
            and getattr(i, "dst", None) is not None
            and i.dst.width == 4
        ]
        assert adds

    def test_loads_replicated_per_lane(self, vecadd_scalar_ir):
        # One lane group a load, standing for a load per lane.
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        global_loads = [
            i for i in instructions_of(function, Load)
            if i.space.value == "global"
        ]
        assert len(global_loads) == 2
        for load in global_loads:
            assert load.lane is None and load.moves(4)[0] == 4
            assert [lane.lane for lane in load.lanes(4)] == [0, 1, 2, 3]

    def test_packing_instructions_emitted(self, vecadd_scalar_ir):
        # The packing is counted on the groups, not built: each global
        # load extracts its address lanes and packs its result, the
        # store extracts its address and value lanes.
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        loads = [i for i in instructions_of(function, Load)
                 if i.space.value == "global"]
        assert [(load.extracts, load.pack) for load in loads] == [
            (4, True), (4, True)
        ]
        (store,) = [i for i in instructions_of(function, Store)
                    if i.space.value == "global"]
        assert store.extracts == 8 and store.moves(4) == (4, 8)

    def test_ws1_has_no_packing(self, vecadd_scalar_ir):
        # and no lane group: every access is lane 0's
        function = vectorize(vecadd_scalar_ir, warp_size=1)
        assert not any(
            getattr(i, "extracts", 0) for i in function.instructions()
        )
        assert all(
            getattr(i, "lane", 0) == 0 for i in function.instructions()
        )

    def test_context_reads_per_lane(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=2)
        tid_reads = [
            i for i in instructions_of(function, ContextRead)
            if i.field_name == "tid.x"
        ]
        assert [read.lane for read in tid_reads] == [None]
        assert [lane.lane for lane in tid_reads[0].lanes(2)] == [0, 1]


class TestAlgorithm2:
    def test_divergence_check_inserted(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        sums = [
            i for i in instructions_of(function, Reduce)
            if i.op == "add"
        ]
        assert sums
        switches = instructions_of(function, Switch)
        # cases 0 and ws with the exit handler as default
        switch = switches[-1]
        assert set(switch.cases) == {0, 4}

    def test_exit_handler_spills_and_yields(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        liveness = LivenessInfo(vecadd_scalar_ir)
        exit_blocks = [
            b for b in function.ordered_blocks()
            if "_exit" in b.label
        ]
        assert exit_blocks
        handler = exit_blocks[0]
        # One local store group per live-out register of the branch's
        # block, at its spill slot, extracting every lane (the handler
        # holds none); no per-lane store.
        live_out = liveness.live_out_registers(handler.label.split("_exit")[0])
        spills = [i for i in handler.instructions if isinstance(i, Store)]
        assert live_out
        assert sorted(spill.value.name for spill in spills) == sorted(
            register.name for register in live_out
        )
        assert all(
            spill.space.value == "local" and spill.lane is None
            and spill.value.width == 4 and spill.moves(4) == (4, 4)
            and spill.base.value == function.local_segment_size
            + function.spill_slots[spill.value.name]
            for spill in spills
        )
        writes = [
            i for i in handler.instructions
            if isinstance(i, ContextWrite)
        ]
        # one group writing each lane's resume point, extracting them
        assert len(writes) == 1 and writes[0].moves(4) == (4, 4)
        assert isinstance(handler.terminator, Yield)
        assert handler.terminator.status == ResumeStatus.THREAD_BRANCH

    def test_barrier_becomes_barrier_yield(self, reduce_scalar_ir):
        function = vectorize(reduce_scalar_ir, warp_size=4)
        yields = instructions_of(function, Yield)
        assert any(
            y.status == ResumeStatus.THREAD_BARRIER for y in yields
        )

    def test_exit_becomes_exit_yield(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        yields = instructions_of(function, Yield)
        assert any(
            y.status == ResumeStatus.THREAD_EXIT for y in yields
        )

    def test_ws1_keeps_plain_branches(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=1)
        assert instructions_of(function, CondBranch)

    def test_yield_at_branches_policy(self, vecadd_scalar_ir):
        function = vectorize(
            vecadd_scalar_ir, warp_size=1, yield_at_branches=True
        )
        # no direct conditional branches survive; all yield
        assert not instructions_of(function, CondBranch)
        yields = instructions_of(function, Yield)
        assert any(
            y.status == ResumeStatus.THREAD_BRANCH for y in yields
        )


class TestAlgorithm3:
    def test_scheduler_is_entry_block(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        assert function.entry_label.startswith("scheduler")
        scheduler = function.entry_block
        assert isinstance(scheduler.terminator, Switch)

    def test_scheduler_reads_resume_point(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        reads = [
            i for i in function.entry_block.instructions
            if isinstance(i, ContextRead)
        ]
        assert reads[0].field_name == "resume_point"

    def test_entry_handlers_restore_live_ins(self, reduce_scalar_ir):
        function = vectorize(reduce_scalar_ir, warp_size=4)
        handler_labels = [
            label
            for entry_id, label in function.entry_points.items()
            if entry_id != 0
        ]
        assert handler_labels
        liveness = LivenessInfo(reduce_scalar_ir)
        restores_seen = False
        for entry_id, label in function.entry_points.items():
            if entry_id == 0:
                continue
            block = function.blocks[label]
            # One packed local load group per live-in register of the
            # resumed block, as many as restore_counts says; no
            # per-lane load.
            live_in = liveness.live_in_registers(block.terminator.target)
            restores = [i for i in block.instructions if isinstance(i, Load)]
            assert len(restores) == function.restore_counts[entry_id]
            assert [r.dst.name for r in restores] == [
                register.name for register in live_in
            ]
            assert all(
                r.space.value == "local" and r.lane is None and r.pack
                and r.dst.width == 4 and r.moves(4) == (4, 4)
                for r in restores
            )
            restores_seen = restores_seen or bool(restores)
        assert restores_seen

    def test_restore_counts_recorded(self, reduce_scalar_ir):
        function = vectorize(reduce_scalar_ir, warp_size=4)
        assert function.restore_counts[0] == 0
        assert any(
            count > 0 for count in function.restore_counts.values()
        )


class TestOverheadMarking:
    def test_handler_instructions_flagged(self, reduce_scalar_ir):
        function = vectorize(reduce_scalar_ir, warp_size=4)
        scheduler = function.entry_block
        assert all(
            getattr(i, "overhead", False)
            for i in scheduler.all_instructions()
        )

    def test_kernel_body_not_flagged(self, vecadd_scalar_ir):
        function = vectorize(vecadd_scalar_ir, warp_size=4)
        body_flags = [
            getattr(i, "overhead", False)
            for i in function.blocks["fall_1"].instructions
        ]
        assert not any(body_flags)


class TestUniformity:
    def test_tid_is_variant(self, vecadd_scalar_ir):
        info = analyze_uniformity(vecadd_scalar_ir)
        assert "r1" not in info.uniform_registers  # tid.x

    def test_ntid_is_uniform(self, vecadd_scalar_ir):
        info = analyze_uniformity(vecadd_scalar_ir)
        assert "r2" in info.uniform_registers  # ntid.x

    def test_param_load_is_uniform(self, vecadd_scalar_ir):
        info = analyze_uniformity(vecadd_scalar_ir)
        assert "r5" in info.uniform_registers  # n

    def test_ctaid_uniform_only_with_static_warps(
        self, vecadd_scalar_ir
    ):
        dynamic = analyze_uniformity(
            vecadd_scalar_ir, static_warps=False
        )
        static = analyze_uniformity(vecadd_scalar_ir, static_warps=True)
        assert "r3" not in dynamic.uniform_registers
        assert "r3" in static.uniform_registers

    def test_values_behind_divergent_branch_are_variant(
        self, vecadd_scalar_ir
    ):
        info = analyze_uniformity(vecadd_scalar_ir, static_warps=True)
        # rd2 is a param load (uniform data) but defined in fall_1,
        # which is a divergent-branch successor.
        assert "fall_1" not in info.pre_divergence_blocks
        assert "rd2" not in info.uniform_registers

    def test_loop_back_into_early_blocks_taints(self):
        source = """
.version 2.3
.target sim
.entry k (.param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .pred %p<4>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [n];
TOP:
  add.u32 %r3, %r2, 1;
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra TOP;
  exit;
}
"""
        scalar = translate_kernel(parse(source).kernel("k"))
        info = analyze_uniformity(scalar)
        # TOP is reachable from the variant branch -> tainted, so r3
        # (defined there) cannot be proven uniform.
        assert "TOP" not in info.pre_divergence_blocks
        assert "r3" not in info.uniform_registers


class TestThreadInvariantElimination:
    def test_uniform_registers_stay_scalar(self, vecadd_scalar_ir):
        function = vectorize(
            vecadd_scalar_ir,
            warp_size=4,
            static_warps=True,
            thread_invariant_elimination=True,
        )
        registers = {r.name: r for r in function.registers()}
        assert registers["r2"].width == 1  # ntid
        assert registers["r4"].width == 4  # global id

    def test_tie_reduces_instruction_count(self, vecadd_scalar_ir):
        plain = vectorize(vecadd_scalar_ir, warp_size=4)
        tie = vectorize(
            vecadd_scalar_ir,
            warp_size=4,
            static_warps=True,
            thread_invariant_elimination=True,
        )
        assert tie.instruction_count() < plain.instruction_count()

    def test_affine_tid_rewrite(self, vecadd_scalar_ir):
        function = vectorize(
            vecadd_scalar_ir,
            warp_size=4,
            static_warps=True,
            thread_invariant_elimination=True,
        )
        tid_reads = [
            i for i in instructions_of(function, ContextRead)
            if i.field_name == "tid.x"
        ]
        # only lane 0 reads tid.x; lanes 1-3 are computed as +1/+2/+3
        assert len(tid_reads) == 1 and tid_reads[0].affine
        lanes = tid_reads[0].lanes(4)
        assert [type(lane).__name__ for lane in lanes] == [
            "ContextRead", "BinaryOp", "BinaryOp", "BinaryOp"
        ]
        assert lanes[0].lane == 0

    def test_uniform_branch_stays_conditional(self):
        source = """
.version 2.3
.target sim
.entry k (.param .u64 out, .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, 0;
  ld.param.u32 %r2, [n];
LOOP:
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra LOOP;
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r1;
  exit;
}
"""
        scalar = translate_kernel(parse(source).kernel("k"))
        function = vectorize(
            scalar,
            warp_size=4,
            static_warps=True,
            thread_invariant_elimination=True,
        )
        # the loop predicate is uniform -> plain CondBranch, no
        # reduce/switch divergence check
        assert instructions_of(function, CondBranch)


class TestBroadcast:
    def test_vote_broadcasts_to_lanes(self):
        source = """
.version 2.3
.target sim
.entry k (.param .u64 out)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<2>;
  .reg .pred %p<4>;
  mov.u32 %r1, %tid.x;
  setp.lt.u32 %p1, %r1, 2;
  vote.any.pred %p2, %p1;
  selp.u32 %r2, 1, 0, %p2;
  ld.param.u64 %rd1, [out];
  st.global.u32 [%rd1], %r2;
  exit;
}
"""
        scalar = translate_kernel(parse(source).kernel("k"))
        function = vectorize(scalar, warp_size=4)
        assert instructions_of(function, Broadcast)


class TestAffineVectorMemory:
    """The §4 future-work optimization: affine analysis + vector
    loads/stores."""

    def _vectorize_vmem(self, scalar):
        return vectorize(
            scalar,
            warp_size=4,
            static_warps=True,
            thread_invariant_elimination=True,
            vector_memory=True,
        )

    def test_affine_strides_on_vecadd(self, vecadd_scalar_ir):
        from repro.transforms import analyze_affine, analyze_uniformity

        uniformity = analyze_uniformity(
            vecadd_scalar_ir, static_warps=True
        )
        strides = analyze_affine(vecadd_scalar_ir, uniformity)
        assert strides["r1"] == 1  # tid.x
        assert strides["r4"] == 1  # global id
        assert strides["rd1"] == 4  # byte offset (gid * 4)
        assert strides["rd3"] == 4  # load address
        assert strides["r2"] == 0  # ntid is stride 0

    def test_contiguous_loads_become_vector_loads(
        self, vecadd_scalar_ir
    ):
        function = self._vectorize_vmem(vecadd_scalar_ir)
        vloads = contiguous(function, Load)
        vstores = contiguous(function, Store)
        # both input streams and the output stream are contiguous
        assert len(vloads) == 2
        assert len(vstores) == 1
        # no replicated global accesses remain
        replicated_global = [
            i for i in instructions_of(function, (Load, Store))
            if i.space.value == "global" and not i.contiguous
        ]
        assert not replicated_global
        # one vector access each, after lane 0 of a base the block did
        # not hold; the loaded vectors are whole registers
        for group in vloads + vstores:
            assert group.lane is None and group.moves(4) == (1, 1)
        assert all(load.pack for load in vloads)

    def test_disabled_without_static_warps(self, vecadd_scalar_ir):
        function = vectorize(
            vecadd_scalar_ir, warp_size=4, vector_memory=True
        )
        assert not contiguous(function, Load)

    def test_non_contiguous_stays_replicated(self):
        # stride 8 (gid * 8) != element size 4 -> no vector load
        source = """
.version 2.3
.target sim
.entry gather (.param .u64 in, .param .u64 out)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<2>;
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd1, %r1, 8;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  mul.wide.u32 %rd4, %r1, 4;
  ld.param.u64 %rd5, [out];
  add.u64 %rd6, %rd5, %rd4;
  st.global.f32 [%rd6], %f1;
  exit;
}
"""
        scalar = translate_kernel(parse(source).kernel("gather"))
        function = self._vectorize_vmem(scalar)
        assert not contiguous(function, Load)
        # the store is still contiguous
        assert contiguous(function, Store)

    def test_end_to_end_correct(self, vecadd_scalar_ir):
        import numpy as np

        from repro import Device, static_tie_config
        from tests.conftest import VECADD_PTX

        device = Device(
            config=static_tie_config(4, vector_memory=True)
        )
        device.register_module(VECADD_PTX)
        rng = np.random.default_rng(11)
        n = 300
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        a_buffer = device.upload(a)
        b_buffer = device.upload(b)
        c_buffer = device.malloc(n * 4)
        device.launch(
            "vecAdd", grid=(4, 1, 1), block=(128, 1, 1),
            args=[a_buffer, b_buffer, c_buffer, n],
        )
        assert np.allclose(c_buffer.read(np.float32, n), a + b)
