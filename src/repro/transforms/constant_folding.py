"""Constant folding and trivial algebraic simplification.

Runs after vectorization (where the affine thread-ID rewrite and entry
IDs introduce fresh constants) and before the machine lowering. Only
scalar (width-1) value positions fold; vector registers are never
constants in this IR.

A fold computes *what the machine would*: the operands become the
numpy scalars the lowering makes of them and go through the machine's
own opcode tables (:mod:`repro.machine.interpreter`'s ``_*_IMPL``), so
roundings, saturation, clamped shifts, NaN handling and the
reinterpretation of a constant by the instruction's type are stated
once. Which specialization runs a thread — the folded width-1 one or
an unfolded vector one — depends on the warps the manager happens to
form; the answer must not.
"""

from __future__ import annotations

import math

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
from ..ir.values import Constant
from ..machine.interpreter import (
    _BINARY_IMPL,
    _COMPARE_IMPL,
    _INTRINSIC_IMPL,
    _UNARY_IMPL,
    _convert_impl,
    _machine_constant,
    _typed_constant,
    guest_errstate,
)
from ..ptx.types import DataType


def fold_constants(function: IRFunction) -> int:
    """Replace constant computations with ``mov`` of the folded value.
    Returns the number of folds performed."""
    folds = 0
    with guest_errstate():
        for block in function.ordered_blocks():
            instructions = block.instructions
            for index, instruction in enumerate(instructions):
                fold = _FOLDS.get(instruction.__class__)
                # Vector destinations keep their operators; constants
                # there are broadcast by the machine anyway.
                if fold is None or instruction.dst.width > 1:
                    continue
                try:
                    folded = fold(instruction)
                except (OverflowError, ValueError):
                    continue  # a constant outside its type's domain
                if folded is not None:
                    instructions[index] = folded
                    folds += 1
    return folds


def _constants(*values) -> bool:
    return all(isinstance(value, Constant) for value in values)


def _fold_binary(instruction: BinaryOp):
    a, b, dtype = instruction.a, instruction.b, instruction.dtype
    if not _constants(a, b):
        return _simplify_binary(instruction)
    implementation = _BINARY_IMPL.get(instruction.op)
    if implementation is None:
        return None
    if instruction.op in ("div", "rem") and not (dtype.is_float or b.value):
        return None  # an integer division by zero stays visible
    return _mov(
        instruction.dst,
        implementation(
            _typed_constant(a, dtype), _typed_constant(b, dtype), dtype
        ),
        dtype,
    )


def _fold_unary(instruction: UnaryOp):
    implementation = instruction.op != "mov" and _UNARY_IMPL.get(
        instruction.op
    )
    if not implementation or not _constants(instruction.a):
        return None
    dtype = instruction.dtype
    return _mov(
        instruction.dst,
        implementation(_typed_constant(instruction.a, dtype), dtype),
        dtype,
    )


def _fold_compare(instruction: Compare):
    implementation = _COMPARE_IMPL.get(instruction.op)
    if implementation is None or not _constants(
        instruction.a, instruction.b
    ):
        return None
    dtype = instruction.dtype
    return _mov(
        instruction.dst,
        implementation(
            _typed_constant(instruction.a, dtype),
            _typed_constant(instruction.b, dtype),
        ),
        DataType.pred,
    )


def _fold_select(instruction: Select):
    if not _constants(instruction.predicate):
        return None
    chosen = (
        instruction.a if instruction.predicate.value else instruction.b
    )
    return _copy(instruction.dst, chosen, instruction.dtype)


def _fold_convert(instruction: Convert):
    if not _constants(instruction.src):
        return None
    source = _typed_constant(instruction.src, instruction.src_type)
    return _mov(
        instruction.dst,
        _convert_impl(instruction)(source),
        instruction.dst_type,
    )


def _fold_fma(instruction: FusedMultiplyAdd):
    operands = (instruction.a, instruction.b, instruction.c)
    if not _constants(*operands):
        return None
    dtype = instruction.dtype
    # The machine's fma is a product and a sum, each rounded in the
    # instruction's type.
    a, b, c = (_typed_constant(value, dtype) for value in operands)
    return _mov(instruction.dst, a * b + c, dtype)


def _fold_intrinsic(instruction: Intrinsic):
    implementation = _INTRINSIC_IMPL.get(instruction.name)
    if (
        implementation is None
        or len(instruction.args) != 1
        or not _constants(*instruction.args)
    ):
        return None
    dtype = instruction.dtype
    result = implementation(_machine_constant(instruction.args[0]))
    return _mov(
        instruction.dst,
        np.asarray(result).astype(dtype.numpy_dtype),
        dtype,
    )


_FOLDS = {
    BinaryOp: _fold_binary,
    UnaryOp: _fold_unary,
    Compare: _fold_compare,
    Select: _fold_select,
    Convert: _fold_convert,
    FusedMultiplyAdd: _fold_fma,
    Intrinsic: _fold_intrinsic,
}


def _is(value, number) -> bool:
    """``value`` is the constant ``number`` — to the sign of a zero."""
    return (
        isinstance(value, Constant)
        and value.value == number
        and math.copysign(1, value.value) == math.copysign(1, number)
    )


def _simplify_binary(instruction: BinaryOp):
    """x+0, x*1, x*0, x>>0 ... identities on half-constant operands —
    only those that hold for every ``x``: in floating point ``x + 0.0``
    turns ``-0.0`` into ``0.0`` (the additive identity is ``-0.0``) and
    ``x * 0`` is not 0 for a NaN or an infinity."""
    a, b = instruction.a, instruction.b
    op = instruction.op
    dtype = instruction.dtype
    target = instruction.dst
    if op == "add":
        zero = -0.0 if dtype.is_float else 0
        if _is(b, zero):
            return _copy(target, a, dtype)
        if _is(a, zero):
            return _copy(target, b, dtype)
    elif op == "sub" and _is(b, 0.0 if dtype.is_float else 0):
        return _copy(target, a, dtype)
    elif op == "mul":
        if _is(b, 1):
            return _copy(target, a, dtype)
        if _is(a, 1):
            return _copy(target, b, dtype)
        if not dtype.is_float and (_is(a, 0) or _is(b, 0)):
            return _mov(target, 0, dtype)
    elif op in ("shl", "lshr", "ashr") and _is(b, 0):
        return _copy(target, a, dtype)
    elif op == "div" and _is(b, 1):
        return _copy(target, a, dtype)
    return None


def _mov(target, value, dtype: DataType) -> UnaryOp:
    """``mov`` of a machine value: a numpy scalar (or 0-d array) of
    ``dtype``'s type, held as the Python number that converts back to
    exactly it."""
    return _copy(target, Constant(np.asarray(value).item(), dtype), dtype)


def _copy(target, value, dtype: DataType) -> UnaryOp:
    return UnaryOp(op="mov", dtype=dtype, dst=target, a=value)
