"""CFG, dominance and liveness analysis tests."""

import pytest

from repro.ir import (
    BinaryOp,
    Branch,
    CondBranch,
    Constant,
    ControlFlowGraph,
    DominatorTree,
    Exit,
    IRFunction,
    LivenessInfo,
    UnaryOp,
    VirtualRegister,
    remove_unreachable_blocks,
)
from repro.ptx.types import DataType


def reg(name, dtype=DataType.u32):
    return VirtualRegister(name=name, dtype=dtype)


def mov(dst, value):
    return UnaryOp(
        op="mov", dtype=DataType.u32, dst=dst,
        a=Constant(value, DataType.u32),
    )


def diamond():
    """entry -> (left | right) -> join -> exit"""
    function = IRFunction("diamond")
    entry = function.add_block("entry")
    entry.append(mov(reg("p_src"), 1))
    entry.append(
        CondBranch(
            predicate=VirtualRegister("p", DataType.pred),
            taken="left",
            fallthrough="right",
        )
    )
    left = function.add_block("left")
    left.append(mov(reg("x"), 1))
    left.append(Branch("join"))
    right = function.add_block("right")
    right.append(mov(reg("x"), 2))
    right.append(Branch("join"))
    join = function.add_block("join")
    join.append(
        BinaryOp(
            op="add", dtype=DataType.u32, dst=reg("y"),
            a=reg("x"), b=Constant(1, DataType.u32),
        )
    )
    join.append(Exit())
    return function


def loop():
    """entry -> header <-> body; header -> exit"""
    function = IRFunction("loop")
    entry = function.add_block("entry")
    entry.append(mov(reg("i"), 0))
    entry.append(Branch("header"))
    header = function.add_block("header")
    header.append(
        CondBranch(
            predicate=VirtualRegister("p", DataType.pred),
            taken="body",
            fallthrough="done",
        )
    )
    body = function.add_block("body")
    body.append(
        BinaryOp(
            op="add", dtype=DataType.u32, dst=reg("i"),
            a=reg("i"), b=Constant(1, DataType.u32),
        )
    )
    body.append(Branch("header"))
    function.add_block("done").append(Exit())
    return function


class TestCFG:
    def test_diamond_edges(self):
        cfg = ControlFlowGraph(diamond())
        assert sorted(cfg.successors["entry"]) == ["left", "right"]
        assert sorted(cfg.predecessors["join"]) == ["left", "right"]

    def test_reachability(self):
        function = diamond()
        function.add_block("orphan").append(Exit())
        cfg = ControlFlowGraph(function)
        assert "orphan" not in cfg.reachable()

    def test_reverse_postorder_entry_first(self):
        order = ControlFlowGraph(diamond()).reverse_postorder()
        assert order[0] == "entry"
        assert order.index("join") > order.index("left")
        assert order.index("join") > order.index("right")

    def test_loop_latch_branches_back_to_its_dominator(self):
        # The loop's back edge: body jumps to a block that dominates it.
        function = loop()
        cfg = ControlFlowGraph(function)
        tree = DominatorTree(function)
        back = [
            (source, target)
            for source, targets in cfg.successors.items()
            for target in targets
            if tree.dominates(target, source)
        ]
        assert back == [("body", "header")]

    def test_no_diamond_edge_reaches_a_dominator(self):
        function = diamond()
        cfg = ControlFlowGraph(function)
        tree = DominatorTree(function)
        for source, targets in cfg.successors.items():
            for target in targets:
                assert not tree.dominates(target, source)

    def test_reverse_postorder_visits_extra_entry_points(self):
        function = diamond()
        function.add_block("island").append(Exit())
        function.add_entry_point("island")
        cfg = ControlFlowGraph(function)
        assert "island" not in cfg.reachable()
        # The extra root is walked after the entry's region, so it
        # comes first once the postorder is reversed.
        assert cfg.reverse_postorder() == (
            ["island"] + ControlFlowGraph(diamond()).reverse_postorder()
        )

    def test_remove_unreachable(self):
        function = diamond()
        function.add_block("orphan").append(Exit())
        removed = remove_unreachable_blocks(function)
        assert removed == 1
        assert "orphan" not in function.blocks

    def test_remove_keeps_entry_point_roots(self):
        function = diamond()
        island = function.add_block("island")
        island.append(Exit())
        function.add_entry_point("island")
        assert remove_unreachable_blocks(function) == 0


class TestDominance:
    def test_entry_dominates_all(self):
        tree = DominatorTree(diamond())
        for label in ("left", "right", "join"):
            assert tree.dominates("entry", label)

    def test_branches_do_not_dominate_join(self):
        tree = DominatorTree(diamond())
        assert not tree.dominates("left", "join")
        assert tree.immediate_dominator("join") == "entry"

    def test_loop_header_dominates_body(self):
        tree = DominatorTree(loop())
        assert tree.dominates("header", "body")
        assert tree.immediate_dominator("body") == "header"

    def test_join_is_where_each_arm_stops_dominating(self):
        function = diamond()
        cfg = ControlFlowGraph(function)
        tree = DominatorTree(function)
        for arm in ("left", "right"):
            dominated = [
                label for label in function.blocks
                if tree.dominates(arm, label)
            ]
            assert dominated == [arm]
            edge_targets = {
                target
                for label in dominated
                for target in cfg.successors[label]
                if not tree.dominates(arm, target)
            }
            assert edge_targets == {"join"}

    def test_self_domination(self):
        tree = DominatorTree(diamond())
        assert tree.dominates("join", "join")

    def test_entries_are_dominated_by_nothing_nor_what_they_reach(self):
        # Both arms entered from outside: every path to join can start
        # past entry, so entry no longer dominates join either.
        tree = DominatorTree(diamond(), {"left", "right"})
        for label in ("left", "right", "join"):
            assert tree.immediate_dominator(label) is None
            assert not tree.dominates("entry", label)
        assert tree.dominates("entry", "entry")
        # One arm only: join is still reached around entry.
        tree = DominatorTree(diamond(), {"left"})
        assert tree.immediate_dominator("right") == "entry"
        assert tree.immediate_dominator("join") is None

    def test_entries_keep_a_loop_header_over_its_body(self):
        tree = DominatorTree(loop(), {"header"})
        assert tree.immediate_dominator("header") is None
        assert tree.immediate_dominator("body") == "header"


class TestLiveness:
    def test_value_live_across_diamond(self):
        liveness = LivenessInfo(diamond())
        assert "x" in liveness.live_in["join"]
        assert "x" in liveness.live_out["left"]

    def test_dead_after_last_use(self):
        liveness = LivenessInfo(diamond())
        assert "x" not in liveness.live_out["join"]

    def test_loop_carried_value_live_around_backedge(self):
        liveness = LivenessInfo(loop())
        assert "i" in liveness.live_in["header"]
        assert "i" in liveness.live_out["body"]

    def test_predicate_live_into_branch(self):
        liveness = LivenessInfo(diamond())
        assert "p" in liveness.live_in["entry"]

    def test_live_in_registers_sorted(self, reduce_scalar_ir):
        liveness = LivenessInfo(reduce_scalar_ir)
        for label in reduce_scalar_ir.blocks:
            names = [r.name for r in liveness.live_in_registers(label)]
            assert names == sorted(names)

    def test_live_out_registers_sorted_and_typed(self, reduce_scalar_ir):
        liveness = LivenessInfo(reduce_scalar_ir)
        for label in reduce_scalar_ir.blocks:
            registers = liveness.live_out_registers(label)
            assert [r.name for r in registers] == sorted(
                liveness.live_out[label]
            )
            for register in registers:
                assert liveness.register(register.name) is register

    def test_register_maps_a_name_back_to_its_type(self):
        liveness = LivenessInfo(diamond())
        assert liveness.register("p").dtype is DataType.pred
        assert liveness.register("x").dtype is DataType.u32

    def test_only_the_global_index_crosses_vecadd_boundaries(
        self, vecadd_scalar_ir
    ):
        # The guard-computed global index is the one register that
        # survives the entry block into the guarded body.
        liveness = LivenessInfo(vecadd_scalar_ir)
        (index,) = liveness.live_out["entry"]
        for label in vecadd_scalar_ir.blocks:
            assert liveness.live_in[label] <= {index}
            assert liveness.live_out[label] <= {index}

    def test_reduce_carries_its_loop_state_around_the_back_edge(
        self, reduce_scalar_ir
    ):
        function = reduce_scalar_ir
        cfg = ControlFlowGraph(function)
        tree = DominatorTree(function)
        liveness = LivenessInfo(function)
        ((latch, header),) = [
            (source, target)
            for source, targets in cfg.successors.items()
            for target in targets
            if tree.dominates(target, source)
        ]
        carried = liveness.live_out[latch] & liveness.live_in[header]
        assert len(carried) >= 3
