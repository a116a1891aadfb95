"""Constant folding and trivial algebraic simplification.

Runs after vectorization (where the affine thread-ID rewrite and entry
IDs introduce fresh constants) and before the machine lowering. Only
scalar (width-1) value positions fold; vector registers are never
constants in this IR.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..ir.function import IRFunction
from ..ir.instructions import (
    BinaryOp,
    Compare,
    Convert,
    FusedMultiplyAdd,
    Intrinsic,
    Select,
    UnaryOp,
)
from ..ir.values import Constant, VirtualRegister
from ..machine.interpreter import _SHIFT_RULE, _shifted_as
from ..ptx.types import DataType

_COMPARES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

_INTRINSICS = {
    "sqrt": math.sqrt,
    "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "rcp": lambda x: 1.0 / x,
    "sin": math.sin,
    "cos": math.cos,
    "ex2": lambda x: 2.0 ** x,
    "lg2": lambda x: math.log2(x),
}


def _wrap(value, dtype: DataType):
    """Coerce a Python number into the domain of ``dtype``."""
    if dtype.is_float:
        return float(np.dtype(dtype.numpy_dtype).type(value))
    if dtype.is_predicate:
        return bool(value)
    return _wrap_integer(value, dtype.numpy_dtype)


def _wrap_integer(value, numpy_dtype) -> int:
    info = np.iinfo(numpy_dtype)
    span = info.max - info.min + 1
    return (int(value) - info.min) % span + info.min


def _binary_result(op: str, a, b, dtype: DataType) -> Optional[object]:
    try:
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "mulhi":
            bits = dtype.size * 8
            return (int(a) * int(b)) >> bits
        if op == "div":
            if dtype.is_float:
                return a / b
            if b == 0:
                return None
            return int(abs(a) // abs(b)) * (1 if (a >= 0) == (b >= 0) else -1)
        if op == "rem":
            if b == 0:
                return None
            return int(math.fmod(a, b)) if not dtype.is_float else (
                math.fmod(a, b)
            )
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        if op == "and":
            return (int(a) & int(b)) if not dtype.is_predicate else (
                bool(a) and bool(b)
            )
        if op == "or":
            return (int(a) | int(b)) if not dtype.is_predicate else (
                bool(a) or bool(b)
            )
        if op == "xor":
            return (int(a) ^ int(b)) if not dtype.is_predicate else (
                bool(a) != bool(b)
            )
        if op in _SHIFT_RULE:
            # The shifter clamps the (unsigned) amount, it does not wrap.
            kind, operator, flush = _SHIFT_RULE[op]
            bits = dtype.size * 8
            amount = int(b) % (1 << bits)
            if flush and amount >= bits:
                return 0
            a = _wrap_integer(a, _shifted_as(kind, dtype))
            amount = min(amount, bits - 1)
            return a << amount if operator == "<<" else a >> amount
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return None


def fold_constants(function: IRFunction) -> int:
    """Replace constant computations with ``mov`` of the folded value.
    Returns the number of folds performed."""
    folds = 0
    for block in function.ordered_blocks():
        for index, instruction in enumerate(block.instructions):
            folded = _fold_instruction(instruction)
            if folded is not None:
                block.instructions[index] = folded
                folds += 1
    return folds


def _constant(value) -> Optional[Constant]:
    return value if isinstance(value, Constant) else None


def _fold_instruction(instruction):
    target = instruction.defined()
    if target is None or (
        isinstance(target, VirtualRegister) and target.width > 1
    ):
        # Vector destinations keep their operators; constants there are
        # broadcast by the machine anyway.
        return None
    if isinstance(instruction, BinaryOp):
        a = _constant(instruction.a)
        b = _constant(instruction.b)
        if a is None or b is None:
            return _simplify_binary(instruction)
        result = _binary_result(
            instruction.op, a.value, b.value, instruction.dtype
        )
        if result is None:
            return None
        return _mov(target, _wrap(result, instruction.dtype),
                    instruction.dtype)
    if isinstance(instruction, UnaryOp):
        a = _constant(instruction.a)
        if a is None:
            return None
        op = instruction.op
        dtype = instruction.dtype
        if op == "mov":
            return None
        if op == "neg":
            return _mov(target, _wrap(-a.value, dtype), dtype)
        if op == "abs":
            return _mov(target, _wrap(abs(a.value), dtype), dtype)
        if op == "not":
            if dtype.is_predicate:
                return _mov(target, not a.value, dtype)
            mask = (1 << (dtype.size * 8)) - 1
            return _mov(target, (~int(a.value)) & mask, dtype)
        if op == "cnot":
            return _mov(target, _wrap(0 if a.value else 1, dtype), dtype)
        return None
    if isinstance(instruction, Compare):
        a = _constant(instruction.a)
        b = _constant(instruction.b)
        operator = _COMPARES.get(instruction.op)
        if a is None or b is None or operator is None:
            return None
        return _mov(target, bool(operator(a.value, b.value)), DataType.pred)
    if isinstance(instruction, Select):
        predicate = _constant(instruction.predicate)
        if predicate is None:
            return None
        chosen = instruction.a if predicate.value else instruction.b
        return UnaryOp(op="mov", dtype=instruction.dtype, dst=target,
                       a=chosen)
    if isinstance(instruction, Convert):
        source = _constant(instruction.src)
        if source is None:
            return None
        dtype = instruction.dst_type
        if dtype.is_float:
            return _mov(target, _wrap(float(source.value), dtype), dtype)
        return _mov(target, _wrap(int(source.value), dtype), dtype)
    if isinstance(instruction, FusedMultiplyAdd):
        a = _constant(instruction.a)
        b = _constant(instruction.b)
        c = _constant(instruction.c)
        if a is None or b is None or c is None:
            return None
        result = a.value * b.value + c.value
        return _mov(target, _wrap(result, instruction.dtype),
                    instruction.dtype)
    if isinstance(instruction, Intrinsic):
        if len(instruction.args) != 1:
            return None
        argument = _constant(instruction.args[0])
        operator = _INTRINSICS.get(instruction.name)
        if argument is None or operator is None:
            return None
        try:
            result = operator(float(argument.value))
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
        return _mov(target, _wrap(result, instruction.dtype),
                    instruction.dtype)
    return None


def _simplify_binary(instruction: BinaryOp):
    """x+0, x*1, x*0, x&x ... identities on half-constant operands."""
    a, b = instruction.a, instruction.b
    op = instruction.op
    dtype = instruction.dtype
    target = instruction.dst

    def is_const(value, number) -> bool:
        return isinstance(value, Constant) and value.value == number

    if op == "add":
        if is_const(b, 0):
            return _copy(target, a, dtype)
        if is_const(a, 0):
            return _copy(target, b, dtype)
    elif op == "sub" and is_const(b, 0):
        return _copy(target, a, dtype)
    elif op == "mul":
        if is_const(b, 1):
            return _copy(target, a, dtype)
        if is_const(a, 1):
            return _copy(target, b, dtype)
        if not dtype.is_float and (is_const(a, 0) or is_const(b, 0)):
            return _mov(target, _wrap(0, dtype), dtype)
    elif op in ("shl", "lshr", "ashr") and is_const(b, 0):
        return _copy(target, a, dtype)
    elif op == "div" and is_const(b, 1):
        return _copy(target, a, dtype)
    return None


def _mov(target, value, dtype: DataType) -> UnaryOp:
    return UnaryOp(
        op="mov", dtype=dtype, dst=target, a=Constant(value, dtype)
    )


def _copy(target, value, dtype: DataType) -> UnaryOp:
    return UnaryOp(op="mov", dtype=dtype, dst=target, a=value)
