"""The reference interpreter: the oracle differential tests compare
the product backends against.

``ExecutionConfig(backend="reference")`` selects it. It generates
no code: it walks the IR one instruction at a time, looks the
handler up by instruction type, keeps registers in a dictionary keyed
by name, fetches and bit-reinterprets operands on every use, resolves
address spaces on every access and charges every instruction's cost as
it executes. Everything the block emitter and the array backend
specialize ahead of time — registers as locals, pre-converted
constants, statically resolved reinterpretation, folded addresses,
inlined memory access, per-block cost sums, batched walks — is
therefore checked against code that does none of it. What it shares
with them is the opcode semantics (the ``_*_IMPL`` tables of
:mod:`repro.machine.interpreter`), so those are stated once.

It cannot sanitize (checked access is one of the emitter's memory
templates) and never batches; ``load_function`` is inherited — it only
numbers the registers trap snapshots are keyed by.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from ..errors import (
    DeadlineExceeded,
    ExecutionError,
    InstructionLimitExceeded,
)
from ..ir.instructions import (
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
    Load,
    Reduce,
    ResumeStatus,
    Select,
    Store,
    Switch,
    UnaryOp,
    VectorLoad,
    VectorStore,
    Yield,
)
from ..ir.values import VirtualRegister
from ..machine.descriptor import MachineDescription
from ..machine.interpreter import (
    _ATOMIC_IMPL,
    _BINARY_IMPL,
    _COMPARE_IMPL,
    _CONTEXT_COORDINATES,
    _DEADLINE_CHECK_STRIDE,
    _DEFAULT_INSTRUCTION_LIMIT,
    _INTRINSIC_IMPL,
    _REDUCE_IMPL,
    _UNARY_IMPL,
    Interpreter,
    _annotate_fault,
    _convert_impl,
    _WarpState,
)
from ..machine.memory import MemorySystem
from ..ptx.types import AddressSpace


class ReferenceInterpreter(Interpreter):
    """The :class:`~repro.machine.interpreter.Interpreter` contract
    (``load_function`` / ``new_state`` / ``execute``) over unlowered
    IR."""

    def __init__(
        self,
        machine: MachineDescription,
        memory: MemorySystem,
        instruction_limit: int = _DEFAULT_INSTRUCTION_LIMIT,
        sanitizer=None,
    ):
        if sanitizer is not None:
            raise ValueError("backend='reference' cannot sanitize")
        super().__init__(machine, memory, instruction_limit)

    def new_state(self) -> "_ReferenceState":
        return _ReferenceState(self)


class _ReferenceState(_WarpState):
    """A warp state whose registers live in ``registers``, keyed by
    name; the inherited slot file is only filled in when a fault needs
    a snapshot."""

    def reset(self, executable, warp, param_base) -> None:
        super().reset(executable, warp, param_base)
        self.registers: Dict[str, object] = {}

    # -- value plumbing ------------------------------------------------------

    def fetch(self, value):
        if isinstance(value, VirtualRegister):
            current = self.registers.get(value.name)
            if current is None:
                dtype = value.dtype.numpy_dtype
                if value.width > 1:
                    current = np.zeros(value.width, dtype=dtype)
                else:
                    current = dtype.type(0)
                self.registers[value.name] = current
            return current
        return value.dtype.numpy_dtype.type(value.value)

    def fetch_typed(self, value, dtype):
        """Fetch and bit-reinterpret to the instruction's type (PTX
        registers are untyped bit containers; instructions impose the
        interpretation, e.g. ``max.s32`` on a ``.u32`` register)."""
        fetched = self.fetch(value)
        wanted = dtype.numpy_dtype
        current = getattr(fetched, "dtype", None)
        if current is None or current == wanted:
            return fetched
        if dtype.is_predicate or current == np.bool_:
            return fetched
        if current.itemsize == wanted.itemsize:
            return fetched.view(wanted)
        return fetched.astype(wanted)

    def set(self, register: VirtualRegister, value) -> None:
        self.registers[register.name] = value

    def resolve_address(self, inst) -> int:
        address = int(self.fetch(inst.base)) + inst.offset
        space = inst.space
        if space is AddressSpace.global_:
            return address
        if space is AddressSpace.param:
            return self.param_base + address
        if space is AddressSpace.shared:
            return self.contexts[inst.lane].shared_base + address
        if space is AddressSpace.local:
            return self.contexts[inst.lane].local_base + address
        raise ExecutionError(f"unresolvable address space {space}")

    # -- main loop ---------------------------------------------------------

    def _charge(self, instruction) -> None:
        cost = self.executable.cost_table.cost_of(instruction)
        if getattr(instruction, "overhead", False):
            self.stats.yield_cycles += cost.cycles
        else:
            self.stats.kernel_cycles += cost.cycles
        self.stats.flops += cost.flops

    def run(self, continuation=None) -> int:  # (never batches: always None)
        blocks = self.function.blocks
        label = self.function.entry_label
        executed = 0
        stats = self.stats
        deadline = self.deadline
        next_deadline_check = _DEADLINE_CHECK_STRIDE
        position = -1
        try:
            while True:
                block = blocks[label]
                body = block.instructions
                position = -1
                for position, instruction in enumerate(body):
                    _HANDLERS[type(instruction)](self, instruction)
                    self._charge(instruction)
                position = len(body)
                executed += len(body) + 1
                if executed > self.limit:
                    raise InstructionLimitExceeded(
                        f"{self.executable.name}: instruction limit "
                        f"exceeded ({self.limit}); possible infinite loop"
                    )
                if deadline is not None and executed >= next_deadline_check:
                    if time.monotonic() > deadline:
                        raise DeadlineExceeded(
                            f"{self.executable.name}: wall-clock deadline "
                            f"exceeded mid-warp"
                        )
                    next_deadline_check = executed + _DEADLINE_CHECK_STRIDE
                stats.instructions = executed
                terminator = block.terminator
                self._charge(terminator)
                next_label = _TERMINATORS[type(terminator)](
                    self, terminator
                )
                if isinstance(next_label, int):
                    return next_label
                label = next_label
        except ExecutionError as fault:
            _annotate_fault(fault, label, position)
            # Trap snapshots read the slot file.
            slots = self.executable.register_slots
            for name, value in self.registers.items():
                self.regs[slots[name]] = value
            raise

    # -- instruction implementations ---------------------------------------

    def _binary(self, inst: BinaryOp) -> None:
        a = self.fetch_typed(inst.a, inst.dtype)
        b = self.fetch_typed(inst.b, inst.dtype)
        self.set(inst.dst, _BINARY_IMPL[inst.op](a, b, inst.dtype))

    def _unary(self, inst: UnaryOp) -> None:
        impl = _UNARY_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown unary op {inst.op}")
        result = impl(self.fetch_typed(inst.a, inst.dtype), inst.dtype)
        if (
            inst.op == "mov"
            and inst.dst.width > 1
            and not (isinstance(result, np.ndarray) and result.ndim == 1)
        ):
            result = np.full(
                inst.dst.width, result, dtype=inst.dtype.numpy_dtype
            )
        self.set(inst.dst, result)

    def _fma(self, inst: FusedMultiplyAdd) -> None:
        a = self.fetch_typed(inst.a, inst.dtype)
        b = self.fetch_typed(inst.b, inst.dtype)
        c = self.fetch_typed(inst.c, inst.dtype)
        self.set(inst.dst, a * b + c)

    def _compare(self, inst: Compare) -> None:
        a = self.fetch_typed(inst.a, inst.dtype)
        b = self.fetch_typed(inst.b, inst.dtype)
        self.set(inst.dst, _COMPARE_IMPL[inst.op](a, b))

    def _select(self, inst: Select) -> None:
        predicate = self.fetch(inst.predicate)
        a = self.fetch(inst.a)
        b = self.fetch(inst.b)
        numpy_dtype = inst.dtype.numpy_dtype
        if inst.dst.width > 1:
            result = np.where(predicate, a, b).astype(numpy_dtype)
        else:
            result = numpy_dtype.type(a if bool(predicate) else b)
        self.set(inst.dst, result)

    def _convert(self, inst: Convert) -> None:
        source = self.fetch_typed(inst.src, inst.src_type)
        result = _convert_impl(inst)(source)
        self.set(inst.dst, result[()] if result.ndim == 0 else result)

    def _intrinsic(self, inst: Intrinsic) -> None:
        impl = _INTRINSIC_IMPL.get(inst.name)
        if impl is None:
            raise ExecutionError(f"unknown intrinsic {inst.name}")
        result = np.asarray(impl(self.fetch(inst.args[0]))).astype(
            inst.dtype.numpy_dtype
        )
        self.set(inst.dst, result[()] if result.ndim == 0 else result)

    def _load(self, inst: Load) -> None:
        address = self.resolve_address(inst)
        self.set(inst.dst, self.memory.load(inst.dtype, address))

    def _store(self, inst: Store) -> None:
        address = self.resolve_address(inst)
        self.memory.store(inst.dtype, address, self.fetch(inst.value))

    def _vector_load(self, inst: VectorLoad) -> None:
        address = self.resolve_address(inst)
        self.set(
            inst.dst,
            self.memory.read_array(
                address, inst.dtype.numpy_dtype, inst.dst.width
            ),
        )

    def _vector_store(self, inst: VectorStore) -> None:
        address = self.resolve_address(inst)
        numpy_dtype = inst.dtype.numpy_dtype
        array = np.asarray(self.fetch(inst.value), dtype=numpy_dtype)
        if array.ndim == 0:
            array = np.full(self.warp_size, array, dtype=numpy_dtype)
        self.memory.write_array(address, array)

    def _atomic(self, inst: AtomicRMW) -> None:
        impl = _ATOMIC_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown atomic op {inst.op}")
        address = self.resolve_address(inst)
        old = self.memory.load(inst.dtype, address)
        compare = (
            self.fetch(inst.compare) if inst.op == "cas" else None
        )
        new = impl(old, self.fetch(inst.value), compare)
        self.memory.store(inst.dtype, address, new)
        if inst.dst is not None:
            self.set(inst.dst, old)

    def _context_read(self, inst: ContextRead) -> None:
        context = self.contexts[inst.lane]
        field_name = inst.field_name
        if field_name == "laneid":
            value = inst.lane
        elif field_name == "warpid":
            value = self.warp.warp_id
        elif field_name == "clock":
            value = self.stats.kernel_cycles + self.stats.yield_cycles
        elif field_name == "resume_point":
            value = context.resume_point
        elif field_name in _CONTEXT_COORDINATES:
            attribute, axis = _CONTEXT_COORDINATES[field_name]
            value = getattr(context, attribute)[axis]
        else:
            raise ExecutionError(f"unknown context field {field_name}")
        self.set(inst.dst, inst.dtype.numpy_dtype.type(value))

    def _context_write(self, inst: ContextWrite) -> None:
        if inst.field_name != "resume_point":
            raise ExecutionError(
                f"unwritable context field {inst.field_name}"
            )
        self.contexts[inst.lane].resume_point = int(
            self.fetch(inst.value)
        )

    def _insert(self, inst: InsertElement) -> None:
        numpy_dtype = inst.dst.dtype.numpy_dtype
        if inst.src is None:
            vector = np.zeros(inst.dst.width, dtype=numpy_dtype)
        else:
            vector = np.array(self.fetch(inst.src), dtype=numpy_dtype)
            if vector.ndim == 0:
                vector = np.full(
                    inst.dst.width, vector, dtype=numpy_dtype
                )
        vector[inst.index] = self.fetch(inst.scalar)
        self.set(inst.dst, vector)

    def _extract(self, inst: ExtractElement) -> None:
        vector = self.fetch(inst.src)
        if isinstance(vector, np.ndarray) and vector.ndim == 1:
            vector = vector[inst.index]
        self.set(inst.dst, vector)

    def _broadcast(self, inst: Broadcast) -> None:
        self.set(
            inst.dst,
            np.full(
                inst.dst.width,
                self.fetch(inst.src),
                dtype=inst.dst.dtype.numpy_dtype,
            ),
        )

    def _reduce(self, inst: Reduce) -> None:
        impl = _REDUCE_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown reduction {inst.op}")
        result = impl(np.asarray(self.fetch(inst.src)))
        self.set(inst.dst, inst.dst.dtype.numpy_dtype.type(result))

    # -- terminators -------------------------------------------------------

    def _branch(self, inst: Branch):
        return inst.target

    def _cond_branch(self, inst: CondBranch):
        predicate = self.fetch(inst.predicate)
        return inst.taken if bool(predicate) else inst.fallthrough

    def _switch(self, inst: Switch):
        return inst.cases.get(int(self.fetch(inst.value)), inst.default)

    def _yield(self, inst: Yield):
        return inst.status

    def _exit(self, inst: Exit):
        return ResumeStatus.THREAD_EXIT

    def _barrier_term(self, inst: BarrierTerm):
        raise ExecutionError(
            "raw barrier terminator reached the machine; kernels must be "
            "specialized through the vectorizer first"
        )


_HANDLERS = {
    BinaryOp: _ReferenceState._binary,
    UnaryOp: _ReferenceState._unary,
    FusedMultiplyAdd: _ReferenceState._fma,
    Compare: _ReferenceState._compare,
    Select: _ReferenceState._select,
    Convert: _ReferenceState._convert,
    Intrinsic: _ReferenceState._intrinsic,
    Load: _ReferenceState._load,
    Store: _ReferenceState._store,
    VectorLoad: _ReferenceState._vector_load,
    VectorStore: _ReferenceState._vector_store,
    AtomicRMW: _ReferenceState._atomic,
    ContextRead: _ReferenceState._context_read,
    ContextWrite: _ReferenceState._context_write,
    InsertElement: _ReferenceState._insert,
    ExtractElement: _ReferenceState._extract,
    Broadcast: _ReferenceState._broadcast,
    Reduce: _ReferenceState._reduce,
}

_TERMINATORS = {
    Branch: _ReferenceState._branch,
    CondBranch: _ReferenceState._cond_branch,
    Switch: _ReferenceState._switch,
    Yield: _ReferenceState._yield,
    Exit: _ReferenceState._exit,
    BarrierTerm: _ReferenceState._barrier_term,
}
