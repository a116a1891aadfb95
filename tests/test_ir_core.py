"""IR container tests: values, basic blocks, functions, printer."""

import pytest

from repro.errors import IRVerificationError
from repro.ir import (
    BasicBlock,
    BinaryOp,
    Branch,
    Constant,
    Exit,
    IRFunction,
    UnaryOp,
    VirtualRegister,
    print_function,
    summarize,
    verify_function,
)
from repro.ptx.types import DataType


def reg(name, dtype=DataType.u32, width=1):
    return VirtualRegister(name=name, dtype=dtype, width=width)


def add(dst, a, b):
    return BinaryOp(op="add", dtype=DataType.u32, dst=dst, a=a, b=b)


class TestValues:
    def test_register_identity(self):
        assert reg("a") == reg("a")
        assert reg("a") != reg("a", width=4)

    def test_vector_register_keeps_name_and_type(self):
        wide = reg("a", width=4)
        assert wide.is_vector
        assert not reg("a").is_vector
        assert (wide.name, wide.dtype) == (reg("a").name, reg("a").dtype)

    def test_constant_is_scalar(self):
        constant = Constant(5, DataType.u32)
        assert not constant.is_vector
        assert constant.width == 1

    def test_vector_register_str(self):
        assert "<4 x u32>" in str(reg("a", width=4))


class TestBasicBlock:
    def test_append_orders_instructions(self):
        block = BasicBlock("b")
        first = add(reg("a"), Constant(1, DataType.u32), reg("b"))
        block.append(first)
        block.append(Branch("next"))
        assert block.all_instructions()[0] is first
        assert block.is_terminated

    def test_double_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(Exit())
        with pytest.raises(IRVerificationError):
            block.append(Branch("x"))

    def test_append_after_terminator_rejected(self):
        block = BasicBlock("b")
        block.append(Exit())
        with pytest.raises(IRVerificationError):
            block.append(add(reg("a"), reg("b"), reg("c")))

    def test_successors_from_terminator(self):
        block = BasicBlock("b")
        block.append(Branch("next"))
        assert block.successors() == ["next"]


class TestIRFunction:
    def test_first_block_is_entry(self):
        function = IRFunction("f")
        function.add_block("start")
        function.add_block("other")
        assert function.entry_label == "start"

    def test_duplicate_label_rejected(self):
        function = IRFunction("f")
        function.add_block("a")
        with pytest.raises(IRVerificationError):
            function.add_block("a")

    def test_prepend_block_becomes_entry(self):
        function = IRFunction("f")
        function.add_block("body")
        function.prepend_block("scheduler")
        assert function.entry_label == "scheduler"
        assert [b.label for b in function.ordered_blocks()] == [
            "scheduler",
            "body",
        ]

    def test_fresh_label_avoids_collisions(self):
        function = IRFunction("f")
        function.add_block("exit")
        assert function.fresh_label("exit") != "exit"

    def test_fresh_registers_unique(self):
        function = IRFunction("f")
        a = function.fresh_register(DataType.f32)
        b = function.fresh_register(DataType.f32)
        assert a.name != b.name

    def test_entry_points_are_stable(self):
        function = IRFunction("f")
        function.add_block("a")
        function.add_block("b")
        first = function.add_entry_point("b")
        again = function.add_entry_point("b")
        assert first == again

    def test_registers_collects_defs_and_uses(self):
        function = IRFunction("f")
        block = function.add_block("entry")
        block.append(add(reg("x"), reg("y"), Constant(1, DataType.u32)))
        block.append(Exit())
        names = {r.name for r in function.registers()}
        assert names == {"x", "y"}

    def test_instruction_count(self, vecadd_scalar_ir):
        assert vecadd_scalar_ir.instruction_count() > 10


class TestVerifier:
    def _function_with(self, terminated=True):
        function = IRFunction("f")
        block = function.add_block("entry")
        block.append(
            UnaryOp(
                op="mov",
                dtype=DataType.u32,
                dst=reg("x"),
                a=Constant(0, DataType.u32),
            )
        )
        if terminated:
            block.append(Exit())
        return function

    def test_accepts_valid_function(self, vecadd_scalar_ir):
        verify_function(vecadd_scalar_ir)

    def test_rejects_unterminated_block(self):
        with pytest.raises(IRVerificationError):
            verify_function(self._function_with(terminated=False))

    def test_rejects_unknown_branch_target(self):
        function = IRFunction("f")
        function.add_block("entry").append(Branch("missing"))
        with pytest.raises(IRVerificationError):
            verify_function(function)

    def test_rejects_undefined_register_use(self):
        function = IRFunction("f")
        block = function.add_block("entry")
        block.append(add(reg("x"), reg("ghost"), reg("ghost")))
        block.append(Exit())
        with pytest.raises(IRVerificationError) as excinfo:
            verify_function(function)
        assert "ghost" in str(excinfo.value)

    def test_rejects_inconsistent_width(self):
        function = IRFunction("f", warp_size=4)
        block = function.add_block("entry")
        block.append(
            BinaryOp(
                op="add",
                dtype=DataType.u32,
                dst=reg("x", width=3),  # neither 1 nor 4
                a=Constant(0, DataType.u32),
                b=Constant(0, DataType.u32),
            )
        )
        block.append(Exit())
        with pytest.raises(IRVerificationError):
            verify_function(function)


class TestPrinter:
    def test_print_contains_blocks_and_header(self, vecadd_scalar_ir):
        text = print_function(vecadd_scalar_ir)
        assert "; function vecAdd.scalar" in text
        assert "entry:" in text
        assert "DONE:" in text

    def test_summarize(self, vecadd_scalar_ir):
        line = summarize(vecadd_scalar_ir)
        assert "vecAdd.scalar" in line
        assert "ws=1" in line
