"""PTX -> scalar IR translation tests."""

import pytest

from repro.errors import TranslationError
from repro.frontend import translate_kernel
from repro.ir import (
    AtomicRMW,
    BarrierTerm,
    BinaryOp,
    Compare,
    CondBranch,
    ContextRead,
    Convert,
    Exit,
    FusedMultiplyAdd,
    Intrinsic,
    Load,
    Reduce,
    Select,
    Store,
    UnaryOp,
    verify_function,
)
from repro.ptx import parse
from repro.ptx.types import AddressSpace, DataType

HEADER = ".version 2.3\n.target sim\n"


_INITS = (
    "  mov.u32 %r1, 1; mov.u32 %r2, 2; mov.u32 %r3, 3;"
    " mov.u32 %r4, 4;\n"
    "  mov.u64 %rd1, 64;\n"
    "  mov.f32 %f1, 1.0; mov.f32 %f2, 2.0; mov.f32 %f3, 3.0;"
    " mov.f32 %f4, 4.0;\n"
    "  setp.eq.u32 %p1, %r1, %r1;\n"
)


def translate(body, params="", decls="", name="k"):
    source = (
        HEADER
        + f".entry {name} ({params})\n{{\n"
        + "  .reg .u32 %r<10>;\n  .reg .u64 %rd<10>;\n"
        + "  .reg .f32 %f<10>;\n  .reg .pred %p<10>;\n"
        + decls
        + _INITS
        + body
        + "\n  exit;\n}\n"
    )
    function = translate_kernel(parse(source).kernel(name))
    verify_function(function)
    return function


def instructions_of(function, kind):
    return [
        inst for inst in function.instructions()
        if isinstance(inst, kind)
    ]


class TestBasicSelection:
    def test_special_register_becomes_context_read(self):
        function = translate("mov.u32 %r1, %tid.x;")
        reads = instructions_of(function, ContextRead)
        assert reads[0].field_name == "tid.x"

    def test_mad_lo_becomes_mul_add(self):
        function = translate("mad.lo.u32 %r1, %r2, %r3, %r4;")
        ops = [i.op for i in instructions_of(function, BinaryOp)]
        assert ops == ["mul", "add"]

    def test_float_mad_becomes_fma(self):
        function = translate("mad.f32 %f1, %f2, %f3, %f4;")
        assert instructions_of(function, FusedMultiplyAdd)

    def test_mul_wide_converts_operands(self):
        function = translate("mul.wide.u32 %rd1, %r1, 4;")
        converts = instructions_of(function, Convert)
        assert len(converts) == 2
        multiply = instructions_of(function, BinaryOp)[0]
        assert multiply.dtype is DataType.u64

    def test_mul_hi(self):
        function = translate("mul.hi.u32 %r1, %r2, %r3;")
        assert instructions_of(function, BinaryOp)[0].op == "mulhi"

    def test_shr_signedness(self):
        signed = translate("shr.s32 %r1, %r2, 3;")
        unsigned = translate("shr.u32 %r1, %r2, 3;")
        assert instructions_of(signed, BinaryOp)[0].op == "ashr"
        assert instructions_of(unsigned, BinaryOp)[0].op == "lshr"

    def test_setp_becomes_compare(self):
        function = translate("setp.lt.u32 %p1, %r1, %r2;")
        compare = instructions_of(function, Compare)[-1]
        assert compare.op == "lt"

    def test_selp_becomes_select(self):
        function = translate("selp.f32 %f1, %f2, %f3, %p1;")
        assert instructions_of(function, Select)

    def test_set_produces_compare_plus_select(self):
        function = translate("set.gt.u32.f32 %r1, %f1, %f2;")
        assert instructions_of(function, Compare)
        select = instructions_of(function, Select)[-1]
        # integer true value is all-ones
        assert select.a.value == 0xFFFFFFFF

    def test_transcendental_becomes_intrinsic(self):
        function = translate("sqrt.approx.f32 %f1, %f2;")
        assert instructions_of(function, Intrinsic)[0].name == "sqrt"

    def test_vote_becomes_reduce(self):
        function = translate("vote.any.pred %p2, %p1;")
        assert instructions_of(function, Reduce)[0].op == "any"

    def test_membar_is_noop(self):
        with_fence = translate("membar.gl;")
        without = translate("")
        assert (
            with_fence.instruction_count() == without.instruction_count()
        )


class TestMemory:
    def test_param_load_uses_symbol_offset(self):
        function = translate(
            "ld.param.u32 %r1, [n];", params=".param .u32 n"
        )
        load = instructions_of(function, Load)[0]
        assert load.space is AddressSpace.param
        assert load.base.value == 0

    def test_second_param_offset(self):
        function = translate(
            "ld.param.u32 %r1, [n];",
            params=".param .u64 a, .param .u32 n",
        )
        load = instructions_of(function, Load)[0]
        assert load.base.value == 8

    def test_shared_symbol_is_segment_offset(self):
        function = translate(
            "mov.u32 %r1, tile;\n  st.shared.f32 [%r1], %f1;",
            decls="  .shared .f32 tile[16];\n",
        )
        store = instructions_of(function, Store)[0]
        assert store.space is AddressSpace.shared

    def test_vector_load_expands(self):
        function = translate(
            "ld.global.v4.f32 {%f1, %f2, %f3, %f4}, [%rd1];"
        )
        loads = instructions_of(function, Load)
        assert [load.offset for load in loads] == [0, 4, 8, 12]

    def test_vector_store_expands(self):
        function = translate(
            "st.global.v2.f32 [%rd1+16], {%f1, %f2};"
        )
        stores = instructions_of(function, Store)
        assert [store.offset for store in stores] == [16, 20]

    def test_const_resolves_to_global_space(self):
        source = (
            HEADER
            + ".const .f32 lut[2] = { 1.0, 2.0 };\n"
            + ".entry k () {\n  .reg .u64 %rd<4>;\n"
            + "  .reg .f32 %f<2>;\n"
            + "  mov.u64 %rd1, lut;\n"
            + "  ld.const.f32 %f1, [%rd1];\n  exit;\n}"
        )
        kernel = parse(source).kernel("k")
        function = translate_kernel(
            kernel, global_symbols={"lut": 0x1000}
        )
        load = instructions_of(function, Load)[0]
        assert load.space is AddressSpace.global_
        movs = [
            i for i in instructions_of(function, UnaryOp)
            if i.op == "mov"
        ]
        assert movs[0].a.value == 0x1000

    def test_unresolved_module_global_raises(self):
        source = (
            HEADER
            + ".global .u32 counter;\n"
            + ".entry k () {\n  .reg .u64 %rd<2>;\n"
            + "  mov.u64 %rd1, counter;\n  exit;\n}"
        )
        with pytest.raises(TranslationError):
            translate_kernel(parse(source).kernel("k"))

    def test_atom_becomes_atomic_rmw(self):
        function = translate("atom.global.add.u32 %r1, [%rd1], 1;")
        atomic = instructions_of(function, AtomicRMW)[0]
        assert atomic.op == "add"
        assert atomic.dst is not None

    def test_red_has_no_destination(self):
        function = translate("red.global.add.u32 [%rd1], %r1;")
        assert instructions_of(function, AtomicRMW)[0].dst is None


class TestControlFlow:
    def test_unconditional_branch(self):
        function = translate("bra L;\nL:")
        assert "L" in function.blocks

    def test_guarded_branch_becomes_cond_branch(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n  @%p1 bra L;\nL:"
        )
        branches = instructions_of(function, CondBranch)
        assert branches[0].taken == "L"

    def test_negated_guard_inserts_not(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n  @!%p1 bra L;\nL:"
        )
        nots = [
            i for i in instructions_of(function, UnaryOp)
            if i.op == "not"
        ]
        assert nots

    def test_barrier_splits_block(self):
        function = translate("bar.sync 0;")
        barriers = instructions_of(function, BarrierTerm)
        assert len(barriers) == 1
        assert barriers[0].successor in function.blocks

    def test_exit_everywhere(self):
        function = translate("")
        assert instructions_of(function, Exit)

    def test_unreachable_code_kept_in_detached_block(self):
        function = translate("bra L;\n  add.u32 %r1, %r2, %r3;\nL:")
        # the dead add lives in a detached block; IR stays verifiable
        assert any(
            label.startswith("dead") for label in function.blocks
        )


class TestPredicationLowering:
    def test_guarded_arith_becomes_select(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n"
            "  @%p1 add.u32 %r3, %r3, 1;"
        )
        selects = instructions_of(function, Select)
        assert len(selects) == 1
        # select folds back into the original destination
        assert selects[0].dst.name == "r3"

    def test_guarded_store_becomes_diamond(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n"
            "  @%p1 st.global.u32 [%rd1], %r3;"
        )
        assert instructions_of(function, CondBranch)
        assert any(
            label.startswith("pred_then") for label in function.blocks
        )

    def test_guarded_load_becomes_diamond(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n"
            "  @%p1 ld.global.u32 %r3, [%rd1];"
        )
        assert instructions_of(function, CondBranch)

    def test_guarded_exit_becomes_diamond(self):
        function = translate(
            "setp.eq.u32 %p1, %r1, %r2;\n  @%p1 exit;"
        )
        exits = instructions_of(function, Exit)
        assert len(exits) >= 2


class TestKernelShape:
    """Facts about a kernel's control flow, read off its scalar IR."""

    def test_vecadd_has_one_divergence_site(self, vecadd_scalar_ir):
        assert len(instructions_of(vecadd_scalar_ir, CondBranch)) == 1
        assert instructions_of(vecadd_scalar_ir, BarrierTerm) == []

    def test_each_barrier_becomes_a_barrier_terminator(self):
        source = (
            HEADER
            + ".entry k () {\n  bar.sync 0;\n  bar.sync 0;\n  exit;\n}"
        )
        function = translate_kernel(parse(source).kernel("k"))
        assert len(instructions_of(function, BarrierTerm)) == 2

    def test_straight_line_kernel_has_no_divergence_site(self):
        source = HEADER + ".entry k () {\n  exit;\n}"
        function = translate_kernel(parse(source).kernel("k"))
        assert instructions_of(function, CondBranch) == []
        assert len(function.blocks) == 1

    def test_reduce_has_two_barriers_and_three_branches(
        self, reduce_scalar_ir
    ):
        assert len(instructions_of(reduce_scalar_ir, BarrierTerm)) == 2
        assert len(instructions_of(reduce_scalar_ir, CondBranch)) == 3
