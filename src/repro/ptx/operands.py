"""Operand kinds of the PTX dialect.

Operands appear as sources/destinations of :class:`repro.ptx.instructions.
PTXInstruction`. They are plain immutable value objects; the parser and
the :class:`~repro.ptx.builder.KernelBuilder` both construct them.
"""

from __future__ import annotations

import struct
from contextlib import suppress
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

from .types import DataType


@dataclass(frozen=True)
class RegisterOperand:
    """A virtual register reference, e.g. ``%r4`` or ``%p1``.

    ``negated`` is only meaningful for predicate guards (``@!%p1``).
    """

    name: str
    dtype: DataType
    negated: bool = False

    def __str__(self):
        prefix = "!" if self.negated else ""
        return f"{prefix}%{self.name}"


@dataclass(frozen=True)
class ImmediateOperand:
    """A literal constant, e.g. ``0f3F800000`` parsed to a Python number.

    On an integer type (``.uN``/``.sN``/``.bN``) the value is what PTX
    converts an integer constant to at its use: reduced modulo 2**N, two's
    complement on ``.sN`` (``-1`` on ``.u32`` is 0xFFFFFFFF). Anything else
    there, or an integer outside the 64-bit range, raises ValueError.
    """

    value: object  # int or float
    dtype: DataType

    def __post_init__(self):
        dtype, value = self.dtype, self.value
        if dtype is None or not dtype.is_integer:
            return
        if not isinstance(value, Integral) or not -2**63 <= value < 2**64:
            raise ValueError(f"{value!r} is not an integer of at most 64 bits")
        bits = 8 * dtype.size
        value = int(value) & (1 << bits) - 1
        if dtype.is_signed and value >> bits - 1:
            value -= 1 << bits
        object.__setattr__(self, "value", value)

    def __str__(self):
        """The literal that parses back to the same bits: a float in
        PTX's hex form at its type (``0f%08X`` for an f32 value f32
        holds exactly, else ``0d%016X``), so ``inf``, ``-0.0`` and
        every NaN payload print apart."""
        value = self.value
        if not isinstance(value, float):
            return repr(value)
        exact = struct.pack(">d", value)
        with suppress(OverflowError):  # finite, beyond f32's range
            single = struct.pack(">f", value)
            if self.dtype is not DataType.f64 and exact == struct.pack(
                ">d", *struct.unpack(">f", single)
            ):
                return f"0f{single.hex().upper()}"
        return f"0d{exact.hex().upper()}"


@dataclass(frozen=True)
class SpecialRegisterOperand:
    """A PTX special register such as ``%tid.x`` or ``%nctaid.y``."""

    register: str  # tid | ntid | ctaid | nctaid | laneid | warpid
    dimension: Optional[str] = None  # x | y | z or None

    VALID = ("tid", "ntid", "ctaid", "nctaid", "laneid", "warpid", "clock")

    def __str__(self):
        if self.dimension:
            return f"%{self.register}.{self.dimension}"
        return f"%{self.register}"


@dataclass(frozen=True)
class SymbolOperand:
    """A reference to a named symbol: a kernel parameter or a module /
    kernel scoped ``.shared``/``.const``/``.local`` variable."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class AddressOperand:
    """A memory address expression ``[base (+ offset)]``.

    ``base`` is a register or symbol; ``offset`` is a byte displacement.
    """

    base: object  # RegisterOperand | SymbolOperand
    offset: int = 0

    def __str__(self):
        if self.offset:
            return f"[{self.base}+{self.offset}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class LabelOperand:
    """A branch target label."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class VectorOperand:
    """A brace-enclosed operand tuple used by vector loads/stores,
    e.g. ``{%f1, %f2}`` for ``ld.global.v2.f32``."""

    elements: Tuple[RegisterOperand, ...]

    def __str__(self):
        inner = ", ".join(str(element) for element in self.elements)
        return "{" + inner + "}"


Operand = object  # Union of the dataclasses above; kept loose for speed.
