"""Programmatic construction of PTX dialect kernels.

The :class:`KernelBuilder` offers a thin, typed layer over the raw
instruction objects so workloads can be written in Python instead of
assembly text. Both paths produce identical :class:`~repro.ptx.module.
Kernel` objects and go through the same frontend.

Example::

    b = KernelBuilder("saxpy")
    a_ptr = b.param("a", DataType.u64)
    ...
    tid = b.special(DataType.u32, "tid", "x")
"""

from __future__ import annotations

from typing import Optional

from .instructions import (
    AtomicOp,
    CompareOp,
    Label,
    MulMode,
    Opcode,
    PTXInstruction,
    VoteMode,
)
from .module import Kernel, Parameter, RegisterDeclaration, Variable
from .operands import (
    AddressOperand,
    ImmediateOperand,
    LabelOperand,
    RegisterOperand,
    SpecialRegisterOperand,
    SymbolOperand,
)
from .types import AddressSpace, DataType


class KernelBuilder:
    """Builds a :class:`Kernel` one instruction at a time.

    Register allocation is automatic: :meth:`reg` mints a fresh virtual
    register of the requested type. Emission helpers return the
    destination register so expressions compose naturally.
    """

    def __init__(self, name: str):
        self.kernel = Kernel(name)
        self._counter = 0
        self._guard: Optional[RegisterOperand] = None

    # -- declarations --------------------------------------------------------

    def param(self, name: str, dtype: DataType, count: int = 1) -> str:
        self.kernel.add_parameter(
            Parameter(name=name, dtype=dtype, count=count)
        )
        return name

    def shared(self, name: str, dtype: DataType, count: int = 1) -> str:
        self.kernel.add_variable(
            Variable(
                name=name,
                space=AddressSpace.shared,
                dtype=dtype,
                count=count,
            )
        )
        return name

    def local(self, name: str, dtype: DataType, count: int = 1) -> str:
        self.kernel.add_variable(
            Variable(
                name=name, space=AddressSpace.local, dtype=dtype, count=count
            )
        )
        return name

    def reg(self, dtype: DataType, hint: str = "t") -> RegisterOperand:
        name = f"{hint}{self._counter}"
        self._counter += 1
        self.kernel.declare_registers(
            RegisterDeclaration(prefix=name, dtype=dtype)
        )
        return RegisterOperand(name=name, dtype=dtype)

    # -- emission core -------------------------------------------------------

    def emit(self, instruction: PTXInstruction) -> PTXInstruction:
        if instruction.guard is None and self._guard is not None:
            instruction.guard = self._guard
        self.kernel.append(instruction)
        return instruction

    def label(self, name: str) -> str:
        self.kernel.append(Label(name))
        return name

    def guarded(self, predicate: Optional[RegisterOperand]):
        """Context manager applying a guard to emitted instructions."""
        builder = self

        class _Guard:
            def __enter__(self):
                self._previous = builder._guard
                builder._guard = predicate
                return builder

            def __exit__(self, *exc):
                builder._guard = self._previous
                return False

        return _Guard()

    # -- typed value helpers ---------------------------------------------

    def imm(self, value, dtype: DataType) -> ImmediateOperand:
        return ImmediateOperand(value=value, dtype=dtype)

    def _coerce(self, operand, dtype: DataType):
        if isinstance(operand, (int, float)):
            return ImmediateOperand(value=operand, dtype=dtype)
        return operand

    # -- instruction helpers -----------------------------------------------

    def special(
        self, dtype: DataType, register: str, dimension: str = "x"
    ) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.mov,
                dtype=dtype,
                operands=[
                    dst,
                    SpecialRegisterOperand(
                        register=register, dimension=dimension
                    ),
                ],
            )
        )
        return dst

    def mov(self, dtype: DataType, source) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.mov,
                dtype=dtype,
                operands=[dst, self._coerce(source, dtype)],
            )
        )
        return dst

    def _binary(
        self, opcode: Opcode, dtype: DataType, a, b, mul_mode=None, **kw
    ) -> RegisterOperand:
        result_type = dtype
        if mul_mode is MulMode.wide:
            result_type = _widen(dtype)
        dst = self.reg(result_type)
        self.emit(
            PTXInstruction(
                opcode=opcode,
                dtype=dtype,
                mul_mode=mul_mode,
                operands=[
                    dst,
                    self._coerce(a, dtype),
                    self._coerce(b, dtype),
                ],
                **kw,
            )
        )
        return dst

    def add(self, dtype, a, b):
        return self._binary(Opcode.add, dtype, a, b)

    def sub(self, dtype, a, b):
        return self._binary(Opcode.sub, dtype, a, b)

    def mul(self, dtype, a, b, mode: MulMode = None):
        if mode is None and dtype.is_integer:
            mode = MulMode.lo
        return self._binary(Opcode.mul, dtype, a, b, mul_mode=mode)

    def div(self, dtype, a, b, full=True):
        return self._binary(Opcode.div, dtype, a, b, full=dtype.is_float)

    def rem(self, dtype, a, b):
        return self._binary(Opcode.rem, dtype, a, b)

    def min(self, dtype, a, b):
        return self._binary(Opcode.min, dtype, a, b)

    def max(self, dtype, a, b):
        return self._binary(Opcode.max, dtype, a, b)

    def and_(self, dtype, a, b):
        return self._binary(Opcode.and_, dtype, a, b)

    def or_(self, dtype, a, b):
        return self._binary(Opcode.or_, dtype, a, b)

    def xor(self, dtype, a, b):
        return self._binary(Opcode.xor, dtype, a, b)

    def shl(self, dtype, a, b):
        return self._binary(Opcode.shl, dtype, a, b)

    def shr(self, dtype, a, b):
        return self._binary(Opcode.shr, dtype, a, b)

    def mad(self, dtype, a, b, c, mode: MulMode = None) -> RegisterOperand:
        if mode is None and dtype.is_integer:
            mode = MulMode.lo
        result_type = _widen(dtype) if mode is MulMode.wide else dtype
        dst = self.reg(result_type)
        self.emit(
            PTXInstruction(
                opcode=Opcode.mad,
                dtype=dtype,
                mul_mode=mode,
                operands=[
                    dst,
                    self._coerce(a, dtype),
                    self._coerce(b, dtype),
                    self._coerce(c, result_type),
                ],
            )
        )
        return dst

    def fma(self, dtype, a, b, c) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.fma,
                dtype=dtype,
                rounding="rn",
                operands=[
                    dst,
                    self._coerce(a, dtype),
                    self._coerce(b, dtype),
                    self._coerce(c, dtype),
                ],
            )
        )
        return dst

    def _unary(self, opcode: Opcode, dtype, a, **kw) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=opcode,
                dtype=dtype,
                operands=[dst, self._coerce(a, dtype)],
                **kw,
            )
        )
        return dst

    def neg(self, dtype, a):
        return self._unary(Opcode.neg, dtype, a)

    def abs(self, dtype, a):
        return self._unary(Opcode.abs, dtype, a)

    def not_(self, dtype, a):
        return self._unary(Opcode.not_, dtype, a)

    def sqrt(self, dtype, a):
        return self._unary(Opcode.sqrt, dtype, a, approx=True)

    def rsqrt(self, dtype, a):
        return self._unary(Opcode.rsqrt, dtype, a, approx=True)

    def rcp(self, dtype, a):
        return self._unary(Opcode.rcp, dtype, a, approx=True)

    def sin(self, a):
        return self._unary(Opcode.sin, DataType.f32, a, approx=True)

    def cos(self, a):
        return self._unary(Opcode.cos, DataType.f32, a, approx=True)

    def ex2(self, a):
        return self._unary(Opcode.ex2, DataType.f32, a, approx=True)

    def lg2(self, a):
        return self._unary(Opcode.lg2, DataType.f32, a, approx=True)

    def cvt(
        self,
        dst_type: DataType,
        src_type: DataType,
        source,
        rounding: str = None,
    ) -> RegisterOperand:
        dst = self.reg(dst_type)
        if rounding is None:
            if dst_type.is_float and src_type.is_integer:
                rounding = "rn"
            elif dst_type.is_integer and src_type.is_float:
                rounding = "rzi"
        self.emit(
            PTXInstruction(
                opcode=Opcode.cvt,
                dtype=dst_type,
                source_type=src_type,
                rounding=rounding,
                operands=[dst, self._coerce(source, src_type)],
            )
        )
        return dst

    def setp(self, compare: CompareOp, dtype, a, b) -> RegisterOperand:
        dst = self.reg(DataType.pred)
        self.emit(
            PTXInstruction(
                opcode=Opcode.setp,
                dtype=dtype,
                compare=compare,
                operands=[
                    dst,
                    self._coerce(a, dtype),
                    self._coerce(b, dtype),
                ],
            )
        )
        return dst

    def selp(self, dtype, a, b, predicate) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.selp,
                dtype=dtype,
                operands=[
                    dst,
                    self._coerce(a, dtype),
                    self._coerce(b, dtype),
                    predicate,
                ],
            )
        )
        return dst

    # -- memory ----------------------------------------------------------

    def _address(self, base, offset=0) -> AddressOperand:
        if isinstance(base, str):
            base = SymbolOperand(base)
        return AddressOperand(base=base, offset=offset)

    def load(
        self, space: AddressSpace, dtype: DataType, base, offset: int = 0
    ) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.ld,
                dtype=dtype,
                space=space,
                operands=[dst, self._address(base, offset)],
            )
        )
        return dst

    def load_param(self, dtype: DataType, name: str) -> RegisterOperand:
        return self.load(AddressSpace.param, dtype, name)

    def store(
        self,
        space: AddressSpace,
        dtype: DataType,
        base,
        value,
        offset: int = 0,
    ) -> None:
        self.emit(
            PTXInstruction(
                opcode=Opcode.st,
                dtype=dtype,
                space=space,
                operands=[
                    self._address(base, offset),
                    self._coerce(value, dtype),
                ],
            )
        )

    def atom(
        self,
        space: AddressSpace,
        op: AtomicOp,
        dtype: DataType,
        base,
        value,
        offset: int = 0,
    ) -> RegisterOperand:
        dst = self.reg(dtype)
        self.emit(
            PTXInstruction(
                opcode=Opcode.atom,
                dtype=dtype,
                space=space,
                atomic_op=op,
                operands=[
                    dst,
                    self._address(base, offset),
                    self._coerce(value, dtype),
                ],
            )
        )
        return dst

    # -- control flow ------------------------------------------------------

    def branch(self, target: str, predicate=None) -> None:
        self.emit(
            PTXInstruction(
                opcode=Opcode.bra,
                guard=predicate,
                operands=[LabelOperand(target)],
            )
        )

    def barrier(self) -> None:
        self.emit(
            PTXInstruction(
                opcode=Opcode.bar,
                operands=[ImmediateOperand(value=0, dtype=DataType.u32)],
            )
        )

    def vote(self, mode: VoteMode, predicate) -> RegisterOperand:
        dst = self.reg(
            DataType.b32 if mode is VoteMode.ballot else DataType.pred
        )
        self.emit(
            PTXInstruction(
                opcode=Opcode.vote,
                vote_mode=mode,
                dtype=dst.dtype,
                operands=[dst, predicate],
            )
        )
        return dst

    def exit(self) -> None:
        self.emit(PTXInstruction(opcode=Opcode.exit))


def _widen(dtype: DataType) -> DataType:
    widening = {
        DataType.u8: DataType.u16,
        DataType.s8: DataType.s16,
        DataType.u16: DataType.u32,
        DataType.s16: DataType.s32,
        DataType.u32: DataType.u64,
        DataType.s32: DataType.s64,
    }
    return widening.get(dtype, dtype)
