"""Mid-level IR: the scalar (then vectorized) representation that the
dynamic translation cache specializes and the vector machine executes.
Plays the role LLVM IR plays in the paper (§5.1).
"""

from .basicblock import BasicBlock
from .cfg import ControlFlowGraph, remove_unreachable_blocks
from .dominance import DominatorTree
from .function import IRFunction
from .instructions import (
    VECTORIZABLE,
    AtomicRMW,
    BarrierTerm,
    BinaryOp,
    Branch,
    Broadcast,
    Compare,
    CondBranch,
    ContextRead,
    ContextWrite,
    Convert,
    Exit,
    ExtractElement,
    FusedMultiplyAdd,
    InsertElement,
    Intrinsic,
    IRInstruction,
    Load,
    Reduce,
    ResumeStatus,
    Select,
    Store,
    Switch,
    Terminator,
    UnaryOp,
    VectorLoad,
    VectorStore,
    Yield,
)
from .liveness import LivenessInfo
from .printer import print_function, summarize
from .values import Constant, VirtualRegister, is_constant, is_register
from .verifier import verify_function

__all__ = [
    "AtomicRMW",
    "BarrierTerm",
    "BasicBlock",
    "BinaryOp",
    "Branch",
    "Broadcast",
    "Compare",
    "CondBranch",
    "Constant",
    "ContextRead",
    "ContextWrite",
    "ControlFlowGraph",
    "Convert",
    "DominatorTree",
    "Exit",
    "ExtractElement",
    "FusedMultiplyAdd",
    "InsertElement",
    "Intrinsic",
    "IRFunction",
    "IRInstruction",
    "LivenessInfo",
    "Load",
    "Reduce",
    "ResumeStatus",
    "Select",
    "Store",
    "Switch",
    "Terminator",
    "UnaryOp",
    "VECTORIZABLE",
    "VectorLoad",
    "VectorStore",
    "VirtualRegister",
    "Yield",
    "is_constant",
    "is_register",
    "print_function",
    "remove_unreachable_blocks",
    "summarize",
    "verify_function",
]
