"""Parser unit tests: declarations, instructions, modifiers, operands,
literals, source layout, refusals and round trips."""

import enum
import re
import struct
from contextlib import nullcontext
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Device, vectorized_config
from repro.errors import PTXSyntaxError
from repro.ptx import (
    AddressOperand,
    AddressSpace,
    AtomicOp,
    CompareOp,
    DataType,
    ImmediateOperand,
    KernelBuilder,
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
from repro.workloads.registry import all_workloads

from tests.conftest import VECADD_PTX, sequential_only


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


def _plain(value):
    """``value`` as comparable tuples, source lines left out; a float
    kept apart from an equal int (and -0.0 from 0.0) by its repr."""
    if isinstance(value, enum.Enum):
        return value
    if is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _plain(getattr(value, field.name))
            for field in fields(value)
            if field.name != "line"
        )
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return value


def module_shape(module):
    """Everything a parsed module holds but source lines: version,
    target, variables and per kernel its parameters, registers,
    variables and statements."""
    return (
        module.version,
        module.target,
        _plain(module.variables),
        tuple(
            (
                kernel.name,
                _plain(kernel.parameters),
                dict(kernel.registers),
                _plain(kernel.variables),
                _plain(kernel.statements),
            )
            for kernel in module.kernels.values()
        ),
    )


APP_SOURCES = {app.name: app.module_source() for app in all_workloads()}
SOURCES = {
    "vecAdd": VECADD_PTX,
    "initializers": ".version 2.3\n.target sim\n"
    ".const .align 8 .f32 lut[3] = { 1.0, 2.5, -0.0 };\n"
    ".global .s32 seed = -3;\n"
    ".entry k () { .local .u32 t[2] = { 7, 0x8 }; exit; }",
    **APP_SOURCES,
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_kernel_str_reparses(self, name):
        module = parse(SOURCES[name])
        reparsed = parse(str(module))
        assert module_shape(reparsed) == module_shape(module)

    def test_special_float_immediates_round_trip(self):
        # Each prints in its exact hex form, so none re-parses as a
        # symbol ("inf") or as another value (two NaN payloads).
        source = (
            ".version 2.3\n.target sim\n.entry k ()\n{\n"
            "  .reg .f32 %f<8>;\n  .reg .f64 %fd<4>;\n"
            "  mov.f32 %f1, 0f7F800000;\n  mov.f32 %f2, 0fFF800000;\n"
            "  mov.f32 %f3, 0f80000000;\n  mov.f32 %f4, 0f7FC00001;\n"
            "  mov.f32 %f5, 0f7FC00002;\n  add.f32 %f6, %f5, 0.1;\n"
            "  mov.f64 %fd1, 0d8000000000000000;\n"
            "  mov.f64 %fd2, 0dFFF8000000000123;\n  exit;\n}\n"
        )

        def immediates(module):
            return [
                struct.pack(">d", operand.value).hex()
                for instruction in module.kernel("k").instructions
                for operand in instruction.operands
                if isinstance(operand, ImmediateOperand)
            ]

        module = parse(source)
        reparsed = parse(str(module))
        assert str(reparsed) == str(module)
        assert immediates(reparsed) == immediates(module)
        assert len(set(immediates(module))) == 7  # -0.0 twice
        assert "0f7F800000" in str(module) and "0f7FC00002" in str(module)

    def test_vecadd_opcode_census(self, vecadd_module):
        kernel = vecadd_module.kernel("vecAdd")
        opcodes = [str(i.opcode) for i in kernel.instructions]
        assert len(opcodes) == 19
        assert opcodes.count("add") == 4
        assert opcodes.count("ld") == 6
        assert opcodes.count("bra") == 1


#: What a token of printed PTX is, for re-spacing: a register, a
#: directive, a hex float, a number (its sign with it), a name, or one
#: character.
_PIECE = re.compile(
    r"%[\w$]+|\.[A-Za-z_]\w*|0[fF][0-9a-fA-F]{8}|0[dD][0-9a-fA-F]{16}"
    r"|[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
    r"|[A-Za-z_$][\w$]*|\S"
)
_SEPARATORS = (" ", "", "\n", "\t ", " /* a comment */ ", "/**/",
               "  // to the end\n", "\n\n  ")


def respaced(text, rnd):
    """``text`` with random whitespace and comments between its tokens,
    none where two names or numbers would run together."""
    pieces = _PIECE.findall(text)
    out = [pieces[0]]
    for left, right in zip(pieces, pieces[1:]):
        separator = rnd.choice(_SEPARATORS)
        if not separator and re.match(r"[\w$.]", right) and re.search(
            r"[\w$.]$", left
        ):
            separator = " "
        out.append(separator)
        out.append(right)
    return "".join(out)


class TestLayoutIsFree:
    """Whitespace, comments and line breaks between tokens do not
    change what a module means."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(APP_SOURCES)), rnd=st.randoms())
    def test_respaced_apps_parse_alike(self, name, rnd):
        printed = str(parse(APP_SOURCES[name]))
        module = parse(respaced(printed, rnd))
        assert module_shape(module) == module_shape(parse(printed))

    def test_forms_the_token_parser_accepted(self):
        kernel = parse_kernel_body(
            "add.u32%r1,%r2,1;\n"
            "  setp.eq.u32 %p1, %r1, %r2; @ ! %p1 bra L;\n"
            "  add/*x*/.u32 %r3, /* y */ %r1, %r2;\n"
            "L: add.u32 %r4,\n"
            "      %r3,\n"
            "      %r1;\n"
            "  ld.global.f32 %f1, [%rd1+-4];",
            params=".param .u64 out",
        )
        (first, setp, bra, commented, spread, load, _) = (
            kernel.instructions
        )
        assert [str(o) for o in first.operands] == ["%r1", "%r2", "1"]
        assert bra.guard.negated and bra.guard.name == "p1"
        assert (setp.line, bra.line) == (11, 11)
        assert commented.dtype is DataType.u32
        assert kernel.labels[0].line == spread.line == 13
        assert len(spread.operands) == 3
        assert load.operands[1].offset == -4

    def test_statement_line_is_its_opcodes(self):
        kernel = parse_kernel_body("@%p1\n  /* guard above */\n  bra L;\nL:")
        assert kernel.instructions[0].line == 12


class TestLiterals:
    """Every number form of the dialect, read through an operand."""

    @pytest.mark.parametrize(
        "literal, dtype, value",
        [
            ("42", "u32", 42),
            ("-7", "s32", -7),
            ("0x1F", "u32", 31),
            ("42U", "u32", 42),
            ("1.5", "f32", 1.5),
            ("2.5e3", "f32", 2500.0),
            ("3e2", "f32", 300.0),
            (".5", "f32", 0.5),
            ("1.0f", "f32", 1.0),
            ("0f3F800000", "f32", 1.0),
            ("0d3FF0000000000000", "f64", 1.0),
        ],
    )
    def test_number_forms(self, literal, dtype, value):
        inst = first_instruction(
            f"mov.{dtype} %x, {literal};", decls=f".reg .{dtype} %x;"
        )
        immediate = inst.operands[1]
        assert immediate.value == value
        assert type(immediate.value) is type(value)

    @pytest.mark.parametrize(
        "address, offset",
        [
            ("[%rd1+4]", 4),
            ("[%rd1 + 4]", 4),
            ("[%rd1-4]", -4),
            ("[%rd1 - -4]", 4),
            ("[out + 0x8]", 8),
            ("[out-0x10]", -16),
            ("[out+-0x8]", -8),
        ],
    )
    def test_signed_offsets(self, address, offset):
        inst = first_instruction(
            f"ld.param.u64 %rd2, {address};", params=".param .u64 out"
        )
        assert inst.operands[1].offset == offset

    def test_hex_after_a_sign(self):
        # (the sign once took "+0"/"-0" as a decimal and left "x8")
        inst = first_instruction("add.s32 %r1, %r2, -0x10;")
        assert inst.operands[2].value == -16
        loaded = first_instruction(
            "ld.param.u64 %rd1, [out+0x8];", params=".param .u64 out"
        )
        assert loaded.operands[1].offset == 8


class TestSourceLayout:
    def test_line_comment_skipped(self):
        kernel = parse_kernel_body(
            "add.u32 %r1, %r2, %r3; // add.u32 %r1, %r1, %r1;\n"
            "  sub.u32 %r1, %r2, %r3;"
        )
        assert [str(i.opcode) for i in kernel.instructions] == [
            "add", "sub", "exit",
        ]

    def test_block_comment_skipped(self):
        kernel = parse_kernel_body(
            "add.u32 %r1, %r2, %r3; /* x;\n  y; */ sub.u32 %r1, %r2, %r3;"
        )
        assert [str(i.opcode) for i in kernel.instructions] == [
            "add", "sub", "exit",
        ]
        assert kernel.instructions[1].line == 11

    def test_line_numbers_advance(self):
        kernel = parse_kernel_body(
            "add.u32 %r1, %r2, %r3;\n  sub.u32 %r1, %r2, %r3;\n\n"
            "  mul.lo.u32 %r1, %r2, %r3;"
        )
        assert [i.line for i in kernel.instructions] == [10, 11, 13, 14]

    def test_column_tracked(self):
        with pytest.raises(PTXSyntaxError) as excinfo:
            parse(".version 2.3\n  .target 5")
        assert (excinfo.value.line, excinfo.value.column) == (2, 11)

    def test_error_carries_line(self):
        with pytest.raises(PTXSyntaxError) as excinfo:
            parse("ok\nok\n ~")
        assert (excinfo.value.line, excinfo.value.column) == (3, 2)

    def test_empty_source_is_an_empty_module(self):
        assert parse("").kernels == {}


class TestIntegerImmediates:
    """An integer constant is converted to the size of the type it is
    used at, as PTX does: reduced modulo 2**n, two's complement on a
    signed type."""

    @pytest.mark.parametrize(
        "statement, value",
        [
            ("and.b32 %r2, %r1, -1;", 0xFFFFFFFF),
            ("mov.u32 %r1, -1;", 0xFFFFFFFF),
            ("mov.u32 %r1, 4294967296;", 0),
            ("add.s32 %r1, %r2, 0xFFFFFFFF;", -1),
            ("mov.u64 %rd1, 18446744073709551615;", 2**64 - 1),
            ("mov.s64 %rd1, -9223372036854775808;", -(2**63)),
            ("mov.b16 %r1, 0x12345;", 0x2345),
            # the addend of mad.wide is read as the wide type
            ("mad.wide.u32 %rd1, %r1, %r2, 4294967296;", 2**32),
        ],
    )
    def test_value_as_its_type_holds_it(self, statement, value):
        immediate = first_instruction(statement).operands[-1]
        assert immediate.value == value

    @pytest.mark.parametrize(
        "statement",
        [
            "mov.u32 %r1, 1.5;",
            "mov.u32 %r1, 0f3F800000;",
            "mov.u64 %rd1, 18446744073709551616;",
            "mov.s64 %rd1, -9223372036854775809;",
        ],
    )
    def test_refused_where_the_literal_is(self, statement):
        with pytest.raises(PTXSyntaxError) as excinfo:
            parse_kernel_body(statement)
        literal = statement.rindex(" ") + 1
        assert (excinfo.value.line, excinfo.value.column) == (10, 3 + literal)

    def test_builder_immediates_follow_the_rule(self):
        builder = KernelBuilder("k")
        register = builder.mov(DataType.u32, -1)
        assert builder.kernel.instructions[0].operands[1].value == (
            0xFFFFFFFF
        )
        with pytest.raises(ValueError):
            builder.add(DataType.u32, register, 1.5)

    STORES = r"""
.version 2.3
.target sim
.entry imm (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, -1;
  mov.u32 %r3, -1;
  mov.u32 %r4, 4294967296;
  add.s32 %r5, %r1, 0xFFFFFFFF;
  mul.wide.u32 %rd1, %r1, 16;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r2;
  st.global.u32 [%rd3+4], %r3;
  st.global.u32 [%rd3+0x8], %r4;
  st.global.u32 [%rd3+0xC], %r5;
  exit;
}
"""

    @pytest.mark.parametrize("leg", ["default", "sequential", "reference"])
    def test_stored_bytes(self, leg):
        config = vectorized_config(4)
        if leg == "reference":
            config = replace(config, backend="reference")
        device = Device(config=config)
        device.register_module(self.STORES)
        out = device.malloc(64 * 16)
        with sequential_only() if leg == "sequential" else nullcontext():
            device.launch("imm", grid=(1, 1, 1), block=(64, 1, 1),
                          args=[out])
        tid = np.arange(64, dtype=np.uint32)
        stored = out.read(np.uint32, 64 * 4).reshape(64, 4)
        assert (stored[:, 0] == tid).all()
        assert (stored[:, 1] == 0xFFFFFFFF).all()
        assert (stored[:, 2] == 0).all()
        assert (stored[:, 3] == tid - np.uint32(1)).all()


#: Refused sources and where each fault is (line, column).
REFUSALS = {
    "unknown opcode": ("frobnicate.u32 %r1, %r2;", 10, 3),
    "unsupported modifier": ("add.banana %r1, %r2, %r3;", 10, 6),
    "too many type modifiers": ("add.u32.u32.u32 %r1, %r2, %r3;", 10, 14),
    "unexpected character": ("add.u32 %r1, %r2, `;", 10, 21),
    "bad address base": ("ld.global.f32 %f1, [1];", 10, 23),
    "missing operand": ("add.u32 %r1, %r2, ;", 10, 21),
    "missing ']'": ("ld.global.f32 %f1, [%rd1+];", 10, 27),
    "vector not closed": ("ld.global.v2.f32 {%f1, %f2 [%rd1];", 10, 30),
    "float on an integer": ("mov.u32 %r1, 1.5;", 10, 16),
    "missing semicolon": ("add.u32 %r1, %r2, %r3\n  exit", 11, 3),
    "bad register range": (".reg .u32 %q<x>;", 10, 15),
    "bad initializer": (".shared .f32 t[2] = { 1.0, x };", 10, 30),
    "bad register type": (".reg .foo %r;", 10, 8),
    "bad parameter type": ("", 4, 18, {"params": ".param .foo a"}),
    "bad second parameter type": (
        "", 4, 33, {"params": ".param .u32 a, .param .bar b"}
    ),
    "three-wide store": ("st.global.v3.f32 [%rd1], {%f1, %f2, %f3};", 10, 12),
    "one-wide load": ("ld.global.v1.f32 {%f1}, [%rd1];", 10, 12),
    "eight-wide load": (
        "ld.global.v8.f32 {%f1, %f2, %f3, %f4, %f5, %f6, %f7, %f8}, [%rd1];",
        10, 12,
    ),
    "vector add": ("add.v2.f32 %f1, %f2, %f3;", 10, 6),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_refusal_is_located(case):
    body, line, column, *options = REFUSALS[case]
    with pytest.raises(PTXSyntaxError) as excinfo:
        parse_kernel_body(body, **(options[0] if options else {}))
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


@pytest.mark.parametrize(
    "source",
    [
        ".version 2.3\n.target 5",
        ".version 2.3\n}",
        ".version 2.3\nL: exit;",
        ".entry k () exit; }",
        ".entry k (.param .u32 a .param .u32 b) { exit; }",
        ".entry k () { exit; ",
        ".entry k () { exit; } .version",
        ".reg .u32 %r;",
        "ok\nok\n ~",
    ],
)
def test_module_level_refusals_are_located(source):
    with pytest.raises(PTXSyntaxError) as excinfo:
        parse(source)
    assert excinfo.value.line is not None
    assert excinfo.value.column is not None


def test_unexpected_character_is_reported_first():
    # a character no token starts at wins over the undeclared register
    # ahead of it, as it did when the whole source was tokenized first
    with pytest.raises(PTXSyntaxError) as excinfo:
        parse_kernel_body("add.u32 %zz, %r1, %r2;\n  ~")
    assert "unexpected character '~'" in str(excinfo.value)
    assert (excinfo.value.line, excinfo.value.column) == (11, 3)
