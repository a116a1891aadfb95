"""Parser unit tests: declarations, instructions, modifiers, operands."""

import pytest

from repro.errors import PTXSyntaxError
from repro.ptx import (
    AddressOperand,
    AddressSpace,
    AtomicOp,
    CompareOp,
    DataType,
    ImmediateOperand,
    Label,
    LabelOperand,
    MulMode,
    Opcode,
    RegisterOperand,
    SpecialRegisterOperand,
    SymbolOperand,
    VectorOperand,
    VoteMode,
    parse,
)


def parse_kernel_body(body, decls=".reg .u32 %r<10>;", params=""):
    source = f"""
.version 2.3
.target sim
.entry k ({params})
{{
  {decls}
  .reg .u64 %rd<10>;
  .reg .f32 %f<10>;
  .reg .pred %p<10>;
  {body}
  exit;
}}
"""
    return parse(source).kernel("k")


def first_instruction(body, **kw):
    return parse_kernel_body(body, **kw).instructions[0]


class TestModuleStructure:
    def test_version_and_target(self):
        module = parse(".version 2.3\n.target sim\n"
                       ".entry k () { exit; }")
        assert module.version == "2.3"
        assert module.target == "sim"

    def test_multiple_kernels(self):
        module = parse(
            ".version 2.3\n.target sim\n"
            ".entry a () { exit; }\n.entry b () { exit; }"
        )
        assert sorted(module.kernels) == ["a", "b"]

    def test_module_const_with_initializer(self):
        module = parse(
            ".version 2.3\n.target sim\n"
            ".const .f32 lut[3] = { 1.0, 2.0, 3.0 };\n"
            ".entry k () { exit; }"
        )
        variable = module.find_variable("lut")
        assert variable.count == 3
        assert variable.initializer == [1.0, 2.0, 3.0]

    def test_module_global_scalar(self):
        module = parse(
            ".version 2.3\n.target sim\n.global .u32 counter;\n"
            ".entry k () { exit; }"
        )
        assert module.find_variable("counter").space is (
            AddressSpace.global_
        )

    def test_visible_entry_accepted(self):
        module = parse(
            ".version 2.3\n.target sim\n.visible .entry k () { exit; }"
        )
        assert "k" in module.kernels


class TestDeclarations:
    def test_parameter_list(self):
        kernel = parse_kernel_body(
            "", params=".param .u64 a, .param .u32 n"
        )
        assert [p.name for p in kernel.parameters] == ["a", "n"]
        assert kernel.parameters[0].dtype is DataType.u64

    def test_parameter_offsets_aligned(self):
        kernel = parse_kernel_body(
            "", params=".param .u32 n, .param .u64 a"
        )
        # u64 after u32 aligns to 8 bytes
        assert kernel.parameters[1].offset == 8
        assert kernel.param_size == 16

    def test_array_parameter(self):
        kernel = parse_kernel_body("", params=".param .f32 taps[4]")
        assert kernel.parameters[0].count == 4
        assert kernel.param_size == 16

    def test_register_range_declaration(self):
        kernel = parse_kernel_body("")
        assert kernel.register_type("r0") is DataType.u32
        assert kernel.register_type("r9") is DataType.u32

    def test_single_register_declaration(self):
        kernel = parse_kernel_body("", decls=".reg .u32 %counter;")
        assert kernel.register_type("counter") is DataType.u32

    def test_shared_variable(self):
        kernel = parse_kernel_body(
            "", decls=".reg .u32 %r<4>;\n  .shared .f32 tile[64];"
        )
        variable = kernel.find_variable("tile")
        assert variable.space is AddressSpace.shared
        assert kernel.shared_size == 256

    def test_local_variable(self):
        kernel = parse_kernel_body(
            "", decls=".reg .u32 %r<4>;\n  .local .u32 scratch[8];"
        )
        assert kernel.local_size == 32


class TestInstructionSelection:
    def test_simple_add(self):
        inst = first_instruction("add.u32 %r1, %r2, %r3;")
        assert inst.opcode is Opcode.add
        assert inst.dtype is DataType.u32
        assert len(inst.operands) == 3

    def test_guard_positive(self):
        inst = first_instruction(
            "setp.eq.u32 %p1, %r1, %r2; @%p1 add.u32 %r1, %r1, 1;"
        )
        guarded = parse_kernel_body(
            "setp.eq.u32 %p1, %r1, %r2; @%p1 add.u32 %r1, %r1, 1;"
        ).instructions[1]
        assert guarded.guard.name == "p1"
        assert not guarded.guard.negated

    def test_guard_negated(self):
        kernel = parse_kernel_body(
            "setp.eq.u32 %p1, %r1, %r2; @!%p1 bra L;\nL:"
        )
        branch = kernel.instructions[1]
        assert branch.guard.negated

    def test_mad_lo(self):
        inst = first_instruction("mad.lo.u32 %r1, %r2, %r3, %r4;")
        assert inst.mul_mode is MulMode.lo

    def test_mul_wide(self):
        inst = first_instruction("mul.wide.u32 %rd1, %r1, 4;")
        assert inst.mul_mode is MulMode.wide

    def test_setp_compare(self):
        inst = first_instruction("setp.ge.u32 %p1, %r1, %r2;")
        assert inst.compare is CompareOp.ge
        assert inst.dtype is DataType.u32

    def test_cvt_two_types(self):
        inst = first_instruction("cvt.rn.f32.u32 %f1, %r1;")
        assert inst.dtype is DataType.f32
        assert inst.source_type is DataType.u32
        assert inst.rounding == "rn"

    def test_ld_param(self):
        inst = first_instruction(
            "ld.param.u64 %rd1, [a];", params=".param .u64 a"
        )
        assert inst.space is AddressSpace.param
        address = inst.operands[1]
        assert isinstance(address, AddressOperand)
        assert isinstance(address.base, SymbolOperand)

    def test_ld_global_with_offset(self):
        inst = first_instruction("ld.global.f32 %f1, [%rd1+8];")
        assert inst.operands[1].offset == 8

    def test_ld_global_negative_offset(self):
        inst = first_instruction("ld.global.f32 %f1, [%rd1+-4];")
        assert inst.operands[1].offset == -4

    def test_vector_load(self):
        inst = first_instruction(
            "ld.global.v2.f32 {%f1, %f2}, [%rd1];"
        )
        assert inst.vector_width == 2
        assert isinstance(inst.operands[0], VectorOperand)

    def test_atom_modifiers(self):
        inst = first_instruction(
            "atom.global.add.u32 %r1, [%rd1], 1;"
        )
        assert inst.opcode is Opcode.atom
        assert inst.atomic_op is AtomicOp.add
        assert inst.space is AddressSpace.global_

    def test_red_and_alias(self):
        inst = first_instruction("red.global.and.b32 [%rd1], %r1;")
        assert inst.atomic_op is AtomicOp.and_

    def test_vote_mode(self):
        inst = first_instruction("vote.any.pred %p1, %p2;")
        assert inst.vote_mode is VoteMode.any

    def test_bar_sync(self):
        inst = first_instruction("bar.sync 0;")
        assert inst.opcode is Opcode.bar

    def test_special_register_with_dimension(self):
        inst = first_instruction("mov.u32 %r1, %tid.x;")
        operand = inst.operands[1]
        assert isinstance(operand, SpecialRegisterOperand)
        assert (operand.register, operand.dimension) == ("tid", "x")

    def test_special_register_without_dimension(self):
        inst = first_instruction("mov.u32 %r1, %laneid;")
        assert inst.operands[1].register == "laneid"

    def test_branch_target_is_label(self):
        kernel = parse_kernel_body("bra L;\nL:")
        assert isinstance(
            kernel.instructions[0].operands[0], LabelOperand
        )

    def test_immediate_stamped_with_dtype(self):
        inst = first_instruction("add.f32 %f1, %f2, 1.5;")
        immediate = inst.operands[2]
        assert isinstance(immediate, ImmediateOperand)
        assert immediate.dtype is DataType.f32

    def test_source_immediates_take_the_source_type(self):
        # (the destination type used to be stamped on all of them:
        # ``cvt.rni.s32.f32 %r, 2.7`` converted the integer 2)
        cvt = first_instruction("cvt.rni.s32.f32 %r1, 2.7;")
        assert cvt.operands[1].dtype is DataType.f32
        compared = first_instruction("set.gt.u32.f32 %r1, %f1, 1.5;")
        assert compared.operands[2].dtype is DataType.f32
        slct = first_instruction("slct.f32.s32 %f1, 1.5, 2.5, 0;")
        assert [operand.dtype for operand in slct.operands[1:]] == [
            DataType.f32, DataType.f32, DataType.s32,
        ]

    def test_and_or_not_aliases(self):
        kernel = parse_kernel_body(
            "and.b32 %r1, %r2, %r3; or.b32 %r1, %r2, %r3;"
            " not.b32 %r1, %r2;"
        )
        opcodes = [inst.opcode for inst in kernel.instructions[:3]]
        assert opcodes == [Opcode.and_, Opcode.or_, Opcode.not_]

    def test_selp(self):
        inst = first_instruction("selp.f32 %f1, %f2, %f3, %p1;")
        assert inst.opcode is Opcode.selp
        assert isinstance(inst.operands[3], RegisterOperand)

    def test_labels_interleaved(self):
        kernel = parse_kernel_body("bra L;\nL:\n  add.u32 %r1, %r2, %r3;")
        labels = [s for s in kernel.statements if isinstance(s, Label)]
        assert [label.name for label in labels] == ["L"]


class TestParseErrors:
    def test_unknown_opcode(self):
        with pytest.raises(PTXSyntaxError):
            parse_kernel_body("frobnicate.u32 %r1, %r2;")

    def test_undeclared_register(self):
        with pytest.raises(Exception):
            parse_kernel_body("add.u32 %zz1, %r2, %r3;")

    def test_missing_semicolon(self):
        with pytest.raises(PTXSyntaxError):
            parse_kernel_body("add.u32 %r1, %r2, %r3")

    def test_too_many_type_modifiers(self):
        with pytest.raises(PTXSyntaxError):
            parse_kernel_body("add.u32.u32.u32 %r1, %r2, %r3;")

    def test_unsupported_modifier(self):
        with pytest.raises(PTXSyntaxError):
            parse_kernel_body("add.banana %r1, %r2, %r3;")

    def test_duplicate_kernel_rejected(self):
        with pytest.raises(Exception):
            parse(
                ".version 2.3\n.target sim\n"
                ".entry k () { exit; }\n.entry k () { exit; }"
            )


class TestRoundTrip:
    def test_kernel_str_reparses(self, vecadd_module):
        text = str(vecadd_module)
        reparsed = parse(text)
        original = vecadd_module.kernel("vecAdd")
        copy = reparsed.kernel("vecAdd")
        assert len(copy.instructions) == len(original.instructions)
        assert [str(i) for i in copy.instructions] == [
            str(i) for i in original.instructions
        ]

    def test_vecadd_opcode_census(self, vecadd_module):
        kernel = vecadd_module.kernel("vecAdd")
        opcodes = [str(i.opcode) for i in kernel.instructions]
        assert len(opcodes) == 19
        assert opcodes.count("add") == 4
        assert opcodes.count("ld") == 6
        assert opcodes.count("bra") == 1
