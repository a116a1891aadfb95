"""DCE / CSE / constant-folding / block-merge pass tests."""

import struct

import pytest

from repro.ir import (
    BinaryOp,
    Branch,
    Compare,
    CondBranch,
    Constant,
    ContextRead,
    Exit,
    IRFunction,
    Intrinsic,
    Load,
    Select,
    Store,
    UnaryOp,
    VirtualRegister,
    verify_function,
)
from repro.ptx.types import AddressSpace, DataType
from repro.transforms import (
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    merge_blocks,
    scalar_prepass_pipeline,
    standard_cleanup_pipeline,
)


def reg(name, dtype=DataType.u32):
    return VirtualRegister(name=name, dtype=dtype)


def const(value, dtype=DataType.u32):
    return Constant(value, dtype)


def add(dst, a, b, dtype=DataType.u32):
    return BinaryOp(op="add", dtype=dtype, dst=dst, a=a, b=b)


def single_block(*instructions):
    function = IRFunction("f")
    block = function.add_block("entry")
    for instruction in instructions:
        block.append(instruction)
    if not block.is_terminated:
        block.append(Exit())
    return function


class TestDCE:
    def test_removes_unused_pure_instruction(self):
        function = single_block(add(reg("dead"), const(1), const(2)))
        assert eliminate_dead_code(function) == 1
        assert function.instruction_count() == 1

    def test_keeps_stores(self):
        function = single_block(
            Store(
                dtype=DataType.u32,
                space=AddressSpace.global_,
                base=const(0x100, DataType.u64),
                value=const(1),
            )
        )
        assert eliminate_dead_code(function) == 0

    def test_removes_chains_transitively(self):
        function = single_block(
            add(reg("a"), const(1), const(2)),
            add(reg("b"), reg("a"), const(3)),
        )
        assert eliminate_dead_code(function) == 2

    def test_keeps_values_used_by_terminator(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(
            Compare(
                op="eq", dtype=DataType.u32, dst=reg("p", DataType.pred),
                a=const(1), b=const(1),
            )
        )
        entry.append(
            CondBranch(
                predicate=reg("p", DataType.pred),
                taken="a", fallthrough="b",
            )
        )
        function.add_block("a").append(Exit())
        function.add_block("b").append(Exit())
        assert eliminate_dead_code(function) == 0

    def test_keeps_value_live_across_blocks(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(add(reg("x"), const(1), const(2)))
        entry.append(Branch("next"))
        next_block = function.add_block("next")
        next_block.append(
            Store(
                dtype=DataType.u32,
                space=AddressSpace.global_,
                base=const(0x100, DataType.u64),
                value=reg("x"),
            )
        )
        next_block.append(Exit())
        assert eliminate_dead_code(function) == 0

    def test_redefined_before_use_is_dead(self):
        function = single_block(
            add(reg("x"), const(1), const(2)),  # dead: overwritten
            add(reg("x"), const(3), const(4)),
            Store(
                dtype=DataType.u32,
                space=AddressSpace.global_,
                base=const(0x100, DataType.u64),
                value=reg("x"),
            ),
        )
        assert eliminate_dead_code(function) == 1

    def test_volatile_load_kept(self):
        function = single_block(
            Load(
                dtype=DataType.u32, dst=reg("x"),
                space=AddressSpace.global_,
                base=const(0x100, DataType.u64), volatile=True,
            )
        )
        assert eliminate_dead_code(function) == 0


class TestCSE:
    def _store(self, value):
        return Store(
            dtype=DataType.u32,
            space=AddressSpace.global_,
            base=const(0x100, DataType.u64),
            value=value,
        )

    def test_identical_expression_reused(self):
        function = single_block(
            add(reg("a"), reg("x"), const(1)),
            add(reg("b"), reg("x"), const(1)),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        # provide a definition of x so the verifier is happy
        function.blocks["entry"].instructions.insert(
            0,
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7)),
        )
        assert eliminate_common_subexpressions(function) == 1
        verify_function(function)

    def test_commutative_operands_normalized(self):
        function = single_block(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7)),
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("y"),
                    a=const(9)),
            add(reg("a"), reg("x"), reg("y")),
            add(reg("b"), reg("y"), reg("x")),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        assert eliminate_common_subexpressions(function) == 1

    def test_float_add_and_mul_keep_their_operand_order(self):
        # A float add or mul of two NaNs returns one operand's payload
        # (the first's over arrays, the second's over numpy scalars),
        # so x + NaN and NaN + x are two words; and NaN constants are
        # one value only when their payloads are.
        f32 = DataType.f32

        def nan(payload):
            (value,) = struct.unpack("<f", struct.pack("<I", payload))
            return const(value, f32)

        def merged(second):
            x = reg("x", f32)
            function = single_block(
                self._mov("x", 1.0, f32),
                BinaryOp(op, f32, reg("a", f32), x, nan(0x7FC00002)),
                BinaryOp(op, f32, reg("b", f32), *second),
                self._store(reg("a", f32)),
                self._store(reg("b", f32)),
            )
            return eliminate_common_subexpressions(function)

        for op in ("add", "mul"):
            x = reg("x", f32)
            assert merged((nan(0x7FC00002), x)) == 0, op
            assert merged((x, nan(0x7FC00003))) == 0, op
            assert merged((x, nan(0x7FC00002))) == 1, op

    def test_redefinition_invalidates(self):
        function = single_block(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7)),
            add(reg("a"), reg("x"), const(1)),
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(8)),
            add(reg("b"), reg("x"), const(1)),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        assert eliminate_common_subexpressions(function) == 0

    def test_self_referential_not_recorded(self):
        # acc = acc + 1 twice must NOT collapse (the fma-chain bug).
        function = single_block(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("acc"),
                    a=const(0)),
            add(reg("acc"), reg("acc"), const(1)),
            add(reg("acc"), reg("acc"), const(1)),
            self._store(reg("acc")),
        )
        assert eliminate_common_subexpressions(function) == 0

    def test_context_reads_cse(self):
        function = single_block(
            ContextRead(field_name="tid.x", dtype=DataType.u32,
                        dst=reg("a")),
            ContextRead(field_name="tid.x", dtype=DataType.u32,
                        dst=reg("b")),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        assert eliminate_common_subexpressions(function) == 1

    def test_loads_never_cse(self):
        function = single_block(
            Load(dtype=DataType.u32, dst=reg("a"),
                 space=AddressSpace.global_,
                 base=const(0x100, DataType.u64)),
            Load(dtype=DataType.u32, dst=reg("b"),
                 space=AddressSpace.global_,
                 base=const(0x100, DataType.u64)),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        assert eliminate_common_subexpressions(function) == 0

    def test_dominating_block_expression_reused(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7))
        )
        entry.append(add(reg("a"), reg("x"), const(1)))
        entry.append(Branch("next"))
        next_block = function.add_block("next")
        next_block.append(add(reg("b"), reg("x"), const(1)))
        next_block.append(self._store(reg("a")))
        next_block.append(self._store(reg("b")))
        next_block.append(Exit())
        assert eliminate_common_subexpressions(function) == 1


    # -- what must invalidate an available expression ----------------------

    def _mov(self, name, value, dtype=DataType.u32):
        return UnaryOp(op="mov", dtype=dtype, dst=reg(name, dtype),
                       a=const(value, dtype))

    def test_result_redefinition_invalidates(self):
        # a = x + 1; a = 5; b = x + 1 — `a` no longer holds x + 1.
        function = single_block(
            self._mov("x", 7),
            add(reg("a"), reg("x"), const(1)),
            self._mov("a", 5),
            add(reg("b"), reg("x"), const(1)),
            self._store(reg("a")),
            self._store(reg("b")),
        )
        assert eliminate_common_subexpressions(function) == 0

    def test_self_referential_fma_not_recorded(self):
        from repro.ir import FusedMultiplyAdd

        f32 = DataType.f32

        def step():
            return FusedMultiplyAdd(
                dtype=f32, dst=reg("x", f32), a=reg("x", f32),
                b=reg("m", f32), c=reg("c", f32),
            )

        function = single_block(
            self._mov("x", 1.0, f32), self._mov("m", 2.0, f32),
            self._mov("c", 3.0, f32), step(), step(),
            self._store(reg("x", f32)),
        )
        assert eliminate_common_subexpressions(function) == 0

    def test_rebound_key_dies_with_either_register(self):
        # x + 1 (one add.u32) written to a typed u32, then to b typed
        # s32: one key, two result types, so the second add is kept
        # and the key now names b. Redefining b must kill it (c may
        # not copy a stale b); redefining a kills it as well — it is
        # still listed under the register that first held it — which
        # only costs a copy.
        s32 = DataType.s32

        def compute(name, dtype):
            return add(reg(name, dtype), reg("x"), const(1))

        for redefined in ("b", "a"):
            function = single_block(
                self._mov("x", 7),
                compute("a", DataType.u32),
                compute("b", s32),
                self._mov(redefined, 9, s32 if redefined == "b"
                          else DataType.u32),
                compute("c", s32),
                self._store(reg("a")), self._store(reg("b", s32)),
                self._store(reg("c", s32)),
            )
            assert eliminate_common_subexpressions(function) == 0
            kept = function.blocks["entry"].instructions[4]
            assert kept.op == "add", redefined

    def test_context_read_key_names_its_dtype(self):
        # The key is the instruction's signature, and a ContextRead's
        # dtype is part of it: tid.x read as u32 and as s32 are two
        # expressions, so redefining a leaves the s32 one standing and
        # c is a copy of b.
        s32 = DataType.s32

        def read(name, dtype):
            return ContextRead(field_name="tid.x", dtype=dtype,
                               dst=reg(name, dtype))

        function = single_block(
            read("a", DataType.u32), read("b", s32), self._mov("a", 9),
            read("c", s32),
            self._store(reg("a")), self._store(reg("b", s32)),
            self._store(reg("c", s32)),
        )
        assert eliminate_common_subexpressions(function) == 1
        copy = function.blocks["entry"].instructions[3]
        assert (copy.op, copy.a) == ("mov", reg("b", s32))

    def test_float_min_max_keep_their_operand_order(self):
        # The machine's np.minimum/np.maximum return the second operand
        # on a tie and 0.0 ties with -0.0, so min(x, y) and min(y, x)
        # are different values on floats; on integers a tie is one
        # bit pattern and the two orders are one expression.
        for dtype, merged in ((DataType.f32, 0), (DataType.s32, 1)):
            for op in ("min", "max"):
                function = single_block(
                    self._mov("x", 0, dtype), self._mov("y", 1, dtype),
                    BinaryOp(op=op, dtype=dtype, dst=reg("a", dtype),
                             a=reg("x", dtype), b=reg("y", dtype)),
                    BinaryOp(op=op, dtype=dtype, dst=reg("b", dtype),
                             a=reg("y", dtype), b=reg("x", dtype)),
                    self._store(reg("a", dtype)),
                    self._store(reg("b", dtype)),
                )
                assert (
                    eliminate_common_subexpressions(function) == merged
                ), (op, dtype)

    @pytest.mark.parametrize("twice", ["x", "a"])
    def test_dominating_expression_refused_when_multiply_defined(
        self, twice
    ):
        # An expression from a dominating block is reused only while
        # every register it involves — operand or result — has a
        # single definition in the whole function.
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(self._mov("x", 7))
        entry.append(add(reg("a"), reg("x"), const(1)))
        entry.append(Branch("next"))
        next_block = function.add_block("next")
        next_block.append(add(reg("b"), reg("x"), const(1)))
        next_block.append(self._store(reg("a")))
        next_block.append(self._store(reg("b")))
        next_block.append(Branch("last"))
        last = function.add_block("last")
        last.append(self._mov(twice, 8))
        last.append(Exit())
        assert eliminate_common_subexpressions(function) == 0

    def test_sibling_blocks_do_not_share_expressions(self):
        # Neither arm dominates the other: what one computed is gone
        # from the table when the other is numbered.
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(self._mov("x", 7))
        entry.append(self._mov("p", True, DataType.pred))
        entry.append(CondBranch(predicate=reg("p", DataType.pred),
                                taken="left", fallthrough="right"))
        for label, name in (("left", "a"), ("right", "b")):
            block = function.add_block(label)
            block.append(add(reg(name), reg("x"), const(1)))
            block.append(self._store(reg(name)))
            block.append(Branch("join"))
        join = function.add_block("join")
        join.append(add(reg("c"), reg("x"), const(1)))
        join.append(self._store(reg("c")))
        join.append(Exit())
        assert eliminate_common_subexpressions(function) == 0

    def test_constants_keyed_by_bit_pattern(self):
        # 0.0 == -0.0 and they hash alike; x * 0.0 and x * -0.0 differ.
        f32 = DataType.f32

        def times(name, zero):
            return BinaryOp(op="mul", dtype=f32, dst=reg(name, f32),
                            a=reg("x", f32), b=const(zero, f32))

        function = single_block(
            self._mov("x", 1.0, f32),
            times("a", 0.0), times("b", -0.0), times("c", 0.0),
            self._store(reg("a", f32)), self._store(reg("b", f32)),
            self._store(reg("c", f32)),
        )
        assert eliminate_common_subexpressions(function) == 1
        a, b, c = function.blocks["entry"].instructions[1:4]
        assert (a.op, b.op, c.op) == ("mul", "mul", "mov")
        assert c.a == reg("a", f32)

    def test_a_second_run_finds_nothing(self):
        # Replacements are copies, and a copy is not reused for
        # another: the pass leaves nothing for itself.
        function = single_block(
            self._mov("x", 7),
            add(reg("a"), reg("x"), const(1)),
            add(reg("b"), reg("x"), const(1)),
            add(reg("c"), reg("x"), const(1)),
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("d"), a=reg("x")),
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("e"), a=reg("x")),
            *(self._store(reg(name)) for name in "abcde"),
        )
        assert eliminate_common_subexpressions(function) == 2
        assert eliminate_common_subexpressions(function) == 0

    def test_a_scope_block_inherits_nothing(self):
        # entry -> b1: b1 is dominated by entry, but as a scope (a
        # resume entry point) it starts with no available expression.
        def build():
            function = IRFunction("f")
            entry = function.add_block("entry")
            b1 = function.add_block("b1")
            entry.append(self._mov("x", 7))
            entry.append(add(reg("a"), reg("x"), const(1)))
            entry.append(self._store(reg("a")))
            entry.append(Branch("b1"))
            b1.append(add(reg("b"), reg("x"), const(1)))
            b1.append(add(reg("c"), reg("x"), const(1)))
            b1.append(self._store(reg("b")))
            b1.append(self._store(reg("c")))
            b1.append(Exit())
            return function

        assert eliminate_common_subexpressions(build()) == 2
        scoped = build()
        assert eliminate_common_subexpressions(scoped, {"b1"}) == 1
        assert scoped.blocks["b1"].instructions[1].a == reg("b")

    def test_a_join_behind_scopes_inherits_nothing(self):
        # entry branches to left and right, both jump to join: entry
        # dominates join, but when both arms are scopes (resume entry
        # points) every path to join passes one, and a vectorized
        # kernel reaches join from its scheduler too.
        def build():
            function = IRFunction("f")
            entry = function.add_block("entry")
            entry.append(self._mov("x", 7))
            entry.append(add(reg("a"), reg("x"), const(1)))
            entry.append(self._store(reg("a")))
            entry.append(self._mov("p", True, DataType.pred))
            entry.append(CondBranch(predicate=reg("p", DataType.pred),
                                    taken="left", fallthrough="right"))
            for label in ("left", "right"):
                function.add_block(label).append(Branch("join"))
            join = function.add_block("join")
            join.append(add(reg("b"), reg("x"), const(1)))
            join.append(self._store(reg("b")))
            join.append(Exit())
            return function

        assert eliminate_common_subexpressions(build()) == 1
        scoped = build()
        assert eliminate_common_subexpressions(
            scoped, {"left", "right"}
        ) == 0
        assert scoped.blocks["join"].instructions[0].op == "add"

    def test_lane_and_warp_reads_are_not_keyed(self):
        # Both belong to the warp a thread runs in, which the scheduler
        # re-forms at resume points.
        function = single_block(
            *(ContextRead(field_name=field, dtype=DataType.u32,
                          dst=reg(f"{field}{copy}"))
              for field in ("laneid", "warpid") for copy in "ab"),
            *(self._store(reg(f"{field}{copy}"))
              for field in ("laneid", "warpid") for copy in "ab"),
        )
        assert eliminate_common_subexpressions(function) == 0


class TestConstantFolding:
    def _fold_single(self, instruction):
        function = single_block(instruction)
        folds = fold_constants(function)
        return folds, function.blocks["entry"].instructions[0]

    def test_folds_integer_add(self):
        folds, folded = self._fold_single(
            add(reg("a"), const(2), const(3))
        )
        assert folds == 1
        assert folded.a.value == 5

    def test_wraps_to_type_domain(self):
        folds, folded = self._fold_single(
            add(reg("a"), const(0xFFFFFFFF), const(1))
        )
        assert folded.a.value == 0

    def test_folds_compare(self):
        folds, folded = self._fold_single(
            Compare(op="lt", dtype=DataType.u32,
                    dst=reg("p", DataType.pred),
                    a=const(1), b=const(2))
        )
        assert folds == 1
        assert folded.a.value is True

    def test_folds_select_with_constant_predicate(self):
        folds, folded = self._fold_single(
            Select(dtype=DataType.u32, dst=reg("a"),
                   a=const(10), b=const(20),
                   predicate=Constant(True, DataType.pred))
        )
        assert folds == 1
        assert folded.a.value == 10

    def test_folds_intrinsic(self):
        folds, folded = self._fold_single(
            Intrinsic(name="sqrt", dtype=DataType.f32,
                      dst=reg("a", DataType.f32),
                      args=[const(4.0, DataType.f32)])
        )
        assert folds == 1
        assert folded.a.value == 2.0

    def test_identity_add_zero(self):
        function = single_block(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7)),
            add(reg("a"), reg("x"), const(0)),
        )
        assert fold_constants(function) == 1
        simplified = function.blocks["entry"].instructions[1]
        assert isinstance(simplified, UnaryOp)
        assert simplified.a == reg("x")

    def test_multiply_by_zero(self):
        function = single_block(
            UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                    a=const(7)),
            BinaryOp(op="mul", dtype=DataType.u32, dst=reg("a"),
                     a=reg("x"), b=const(0)),
        )
        assert fold_constants(function) == 1

    def test_division_by_zero_not_folded(self):
        folds, _ = self._fold_single(
            BinaryOp(op="div", dtype=DataType.u32, dst=reg("a"),
                     a=const(5), b=const(0))
        )
        assert folds == 0

    @pytest.mark.parametrize(
        "op, zero, folds",
        [
            # x + 0.0 turns -0.0 into 0.0; the additive identity is -0.0
            # (and 0.0 is what leaves x - 0.0 alone).
            ("add", 0.0, 0), ("add", -0.0, 1),
            ("sub", 0.0, 1), ("sub", -0.0, 0),
        ],
    )
    def test_float_identities_mind_the_sign_of_zero(self, op, zero, folds):
        f32 = DataType.f32
        function = single_block(
            BinaryOp(op=op, dtype=f32, dst=reg("a", f32),
                     a=reg("x", f32), b=const(zero, f32))
        )
        assert fold_constants(function) == folds

    def test_fma_rounds_twice_like_the_machine(self):
        # (1 + 2**-12)**2 - (1 + 2**-11): the product's 2**-24 term is
        # lost when the product is rounded to f32 before the sum.
        from repro.ir import FusedMultiplyAdd

        f32 = DataType.f32
        folds, folded = self._fold_single(
            FusedMultiplyAdd(
                dtype=f32, dst=reg("a", f32), a=const(1 + 2**-12, f32),
                b=const(1 + 2**-12, f32), c=const(-(1 + 2**-11), f32),
            )
        )
        assert folds == 1
        assert folded.a.value == 0.0

    def test_intrinsics_fold_in_the_instruction_type(self):
        import numpy as np

        argument = np.float32(9.351374)
        folds, folded = self._fold_single(
            Intrinsic(name="ex2", dtype=DataType.f32,
                      dst=reg("a", DataType.f32),
                      args=[const(float(argument), DataType.f32)])
        )
        assert folds == 1
        assert folded.a.value == float(np.exp2(argument))

    def test_vector_destinations_untouched(self):
        function = single_block(
            BinaryOp(op="add", dtype=DataType.u32,
                     dst=VirtualRegister("v", DataType.u32, width=4),
                     a=const(1), b=const(2))
        )
        function.warp_size = 4
        assert fold_constants(function) == 0


class TestBlockMerge:
    def test_merges_linear_chain(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(add(reg("a"), const(1), const(2)))
        entry.append(Branch("tail"))
        tail = function.add_block("tail")
        tail.append(add(reg("b"), const(3), const(4)))
        tail.append(Exit())
        assert merge_blocks(function) == 1
        assert "tail" not in function.blocks
        assert len(function.blocks["entry"].instructions) == 2

    def test_does_not_merge_shared_successor(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(
            CondBranch(predicate=Constant(True, DataType.pred),
                       taken="a", fallthrough="b")
        )
        a = function.add_block("a")
        a.append(Branch("join"))
        b = function.add_block("b")
        b.append(Branch("join"))
        function.add_block("join").append(Exit())
        assert merge_blocks(function) == 0

    def test_does_not_merge_entry_point_targets(self):
        function = IRFunction("f")
        entry = function.add_block("entry")
        entry.append(Branch("resume"))
        function.add_block("resume").append(Exit())
        function.add_entry_point("resume")
        assert merge_blocks(function) == 0

    def test_self_loop_not_merged(self):
        function = IRFunction("f")
        function.add_block("entry").append(Branch("entry"))
        assert merge_blocks(function) == 0


    def test_chain_merges_in_execution_order(self):
        # b2 comes first in the layout; the chain entry -> b1 -> b2
        # still ends up in entry, in the order control flows.
        function = IRFunction("f")
        entry = function.add_block("entry")
        b2 = function.add_block("b2")
        b1 = function.add_block("b1")
        entry.append(add(reg("a"), const(1), const(2)))
        entry.append(Branch("b1"))
        b1.append(add(reg("b"), const(3), const(4)))
        b1.append(Branch("b2"))
        b2.append(add(reg("c"), const(5), const(6)))
        b2.append(Exit())
        assert merge_blocks(function) == 2
        assert list(function.blocks) == ["entry"]
        names = [i.dst.name for i in function.blocks["entry"].instructions]
        assert names == ["a", "b", "c"]
        verify_function(function)


class TestPipeline:
    def test_pipeline_runs_and_verifies(self, vecadd_scalar_ir):
        pipeline = standard_cleanup_pipeline()
        pipeline.run(vecadd_scalar_ir)
        # The verifier is the pipeline's last stage, timed like a pass;
        # CSE and DCE are not per-width passes (see the scalar pipeline).
        names = [result.name for result in pipeline.statistics.results]
        assert names == [
            "constant-folding", "block-merge", "unreachable-elim", "verify"
        ]

    def test_pipeline_statistics_accumulate(self, vecadd_scalar_ir):
        pipeline = standard_cleanup_pipeline()
        pipeline.run(vecadd_scalar_ir)
        assert all(r.changes >= 0 for r in pipeline.statistics.results)
        assert len(pipeline.statistics.results) == 4  # 3 passes + verify
        unverified = standard_cleanup_pipeline(verify=False)
        unverified.run(vecadd_scalar_ir)
        assert len(unverified.statistics.results) == 3

    @pytest.mark.parametrize(
        "overrides, names",
        [
            ({}, ["cse", "dce"]),
            ({"optimize": False}, None),
            ({"meld": True}, ["meld", "cse", "dce", "verify"]),
            ({"meld": True, "optimize": False}, ["meld", "verify"]),
        ],
    )
    def test_scalar_pipeline_cleans_once_per_kernel(
        self, vecadd_scalar_ir, overrides, names
    ):
        from repro.machine.descriptor import sandybridge
        from repro.runtime.config import ExecutionConfig

        pipeline = scalar_prepass_pipeline(
            ExecutionConfig(**overrides), sandybridge()
        )
        if names is None:
            assert pipeline is None
            return
        pipeline.run(vecadd_scalar_ir)
        assert [r.name for r in pipeline.statistics.results] == names


class TestPassCensus:
    """What the pipeline finds in the registered applications, pinned:
    a pass that silently stops finding things fails here, not in a
    benchmark months later."""

    def test_registered_apps(self, monkeypatch):
        # CSE (18 replacements in 15 apps) and DCE run once per kernel
        # on the scalar IR; the vectorizer keeps no pack nothing reads,
        # whatever ``optimize`` says. CSE replaces the 10 repeated
        # ``convert.u64.u32 4`` before folding sees them.
        from dataclasses import replace

        # The pipeline as configured here, whatever the CI leg: no
        # melding pre-pass, nothing served from a warm disk tier.
        for name in ("REPRO_MELD", "REPRO_CACHE"):
            monkeypatch.delenv(name, raising=False)

        from repro import Device, vectorized_config
        from repro.workloads.registry import all_workloads

        changes = {}
        instructions = {True: 0, False: 0}
        for registered in all_workloads():
            for optimize in (True, False):
                device = Device(
                    config=replace(vectorized_config(4), optimize=optimize)
                )
                device.register_module(type(registered)().module_source())
                device.warm()
                statistics = device.cache.statistics
                instructions[optimize] += sum(
                    statistics.instruction_counts.values()
                )
                for name, count in statistics.stage_changes.items():
                    changes[name] = changes.get(name, 0) + count
        assert instructions == {False: 26875, True: 26608}
        assert changes == {
            "translate": 0,
            "cse": 18,
            "dce": 0,
            "vectorize": 0,
            "constant-folding": 57,
            "block-merge": 267,
            "unreachable-elim": 0,
            "verify": 0,
        }


class TestNothingLeftToClean:
    """The full CSE and DCE, run once more on every specialization the
    43 apps compile, find nothing: the scalar pipeline left no
    redundancy and no dead code, and vectorization added none."""

    @pytest.mark.parametrize("configuration", ["default", "meld", "static"])
    def test_every_specialization(self, configuration, monkeypatch):
        for name in ("REPRO_MELD", "REPRO_CACHE"):
            monkeypatch.delenv(name, raising=False)

        from repro import Device
        from repro.runtime.config import ExecutionConfig, static_tie_config
        from repro.workloads.registry import all_workloads

        config = {
            "default": ExecutionConfig(),
            "meld": ExecutionConfig(meld=True),
            "static": static_tie_config(4, vector_memory=True),
        }[configuration]
        found = {}
        for registered in all_workloads():
            device = Device(config=config)
            device.register_module(registered.module_source())
            device.warm()
            for key in device.cache.cached_specializations():
                function = device.cache.get(*key).function
                found[registered.name, key] = (
                    eliminate_common_subexpressions(function),
                    eliminate_dead_code(function),
                )
        assert len(found) == 132
        assert {key: n for key, n in found.items() if n != (0, 0)} == {}

    def test_unoptimized_code_has_no_unread_pack(self, monkeypatch):
        # No cleanup runs, and still no pack is dead.
        for name in ("REPRO_MELD", "REPRO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        from repro import Device
        from repro.runtime.config import ExecutionConfig
        from repro.workloads.registry import all_workloads

        removed = 0
        for registered in all_workloads():
            device = Device(config=ExecutionConfig(optimize=False))
            device.register_module(registered.module_source())
            device.warm()
            statistics = device.cache.statistics
            assert set(statistics.stage_changes) == {"translate", "vectorize"}
            for key in device.cache.cached_specializations():
                removed += eliminate_dead_code(device.cache.get(*key).function)
        assert removed == 0


def _straight_line(n):
    """One block: a chain of n adds, every other one also feeding a
    value nothing reads, then a store of the chain's end."""
    instructions = [
        UnaryOp(op="mov", dtype=DataType.u32, dst=reg("r0"), a=const(7))
    ]
    for index in range(1, n):
        instructions.append(
            add(reg(f"r{index}"), reg(f"r{index - 1}"), const(index))
        )
        if index % 2:
            instructions.append(
                add(reg(f"dead{index}"), reg(f"r{index}"), const(1))
            )
    instructions.append(
        Store(dtype=DataType.u32, space=AddressSpace.global_,
              base=const(0x100, DataType.u64), value=reg(f"r{n - 1}"))
    )
    return single_block(*instructions)


def _block_chain(n):
    """n blocks, each computing from its predecessor's value and
    branching to the next."""
    function = IRFunction("f")
    for index in range(n):
        block = function.add_block(f"b{index}")
        source = reg(f"r{index - 1}") if index else const(7)
        block.append(add(reg(f"r{index}"), source, const(index)))
        block.append(Branch(f"b{index + 1}") if index < n - 1 else Exit())
    return function


class TestPassScaling:
    """The cleanup passes are linear in the IR: 8x the input may not
    cost 16x the time (a scan of the available expressions per
    definition, a CFG per merge or a dominator-chain climb per lookup
    costs 64x)."""

    @pytest.mark.parametrize(
        "transform, build",
        [
            (eliminate_common_subexpressions, _straight_line),
            (eliminate_common_subexpressions, _block_chain),
            (eliminate_dead_code, _straight_line),
            (merge_blocks, _block_chain),
        ],
    )
    def test_eight_times_the_input_under_sixteen_times_the_time(
        self, transform, build
    ):
        import gc
        import time

        def best_of_three(n):
            best = float("inf")
            for _ in range(3):
                function = build(n)
                gc.collect()
                gc.disable()  # a collection scans the whole heap
                try:
                    start = time.perf_counter()
                    transform(function)
                    best = min(best, time.perf_counter() - start)
                finally:
                    gc.enable()
            return best

        # Milliseconds on a shared machine: linear code reads 5-14x
        # here, quadratic 50x and up, so one quiet attempt settles it.
        readings = []
        for _ in range(3):
            readings.append((best_of_three(500), best_of_three(4000)))
            small, large = readings[-1]
            if large < 16 * small:
                return
        pytest.fail(f"(500, 4000) seconds, three attempts: {readings}")
