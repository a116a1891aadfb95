"""Values of the mid-level IR.

The IR is register-based (not SSA): virtual registers may be redefined,
and a standard liveness analysis recovers live ranges where the
vectorizer's entry/exit handlers need them. After vectorization a
register carries a ``width`` — the number of logical threads (lanes) it
holds, mirroring LLVM's ``<ws x ty>`` vector types in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ptx.types import DataType


@dataclass(frozen=True)
class VirtualRegister:
    """A typed virtual register. ``width == 1`` is scalar; ``width > 1``
    is a vector register produced by the vectorization transform."""

    name: str
    dtype: DataType
    width: int = 1

    def __str__(self):
        if self.width > 1:
            return f"%{self.name}:<{self.width} x {self.dtype.value}>"
        return f"%{self.name}:{self.dtype.value}"

    @property
    def is_vector(self) -> bool:
        return self.width > 1


@dataclass(frozen=True)
class Constant:
    """A typed literal. Scalar only; vector positions broadcast it."""

    value: object
    dtype: DataType

    def __str__(self):
        return f"{self.value}:{self.dtype.value}"

    @property
    def is_vector(self) -> bool:
        return False

    width = 1


def is_register(value) -> bool:
    return isinstance(value, VirtualRegister)


def is_constant(value) -> bool:
    return isinstance(value, Constant)
