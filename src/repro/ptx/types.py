"""Scalar data types of the PTX dialect.

PTX types are suffixes on opcodes (``add.f32``, ``ld.global.u64``). Each
type knows its byte width, signedness and the numpy dtype used by the
simulated machine to hold values of that type.
"""

from __future__ import annotations

import enum

import numpy as np


#: suffix -> (size in bytes, machine scalar type). Predicates occupy one
#: byte in local storage.
_LAYOUT = {
    "u8": (1, np.uint8),
    "s8": (1, np.int8),
    "u16": (2, np.uint16),
    "s16": (2, np.int16),
    "u32": (4, np.uint32),
    "s32": (4, np.int32),
    "u64": (8, np.uint64),
    "s64": (8, np.int64),
    "f32": (4, np.float32),
    "f64": (8, np.float64),
    "b8": (1, np.uint8),
    "b16": (2, np.uint16),
    "b32": (4, np.uint32),
    "b64": (8, np.uint64),
    "pred": (1, np.bool_),
}


class DataType(enum.Enum):
    """A PTX scalar type (the ``.xNN`` opcode suffix).

    Members carry their layout and classification as plain attributes,
    set once when the enum is built — ``size`` (bytes), ``numpy_dtype``
    (the dtype the machine holds registers of this type in) and the
    ``is_*`` flags are read on every simulated memory access, where a
    property doing an enum-keyed dict lookup per call showed up in
    profiles. ``suffix`` is ``value`` without the enum's property call
    (and hashes as a string, where a member hashes through Python):
    what the compile passes key their tables by.
    """

    u8 = "u8"
    s8 = "s8"
    u16 = "u16"
    s16 = "s16"
    u32 = "u32"
    s32 = "s32"
    u64 = "u64"
    s64 = "s64"
    f32 = "f32"
    f64 = "f64"
    b8 = "b8"
    b16 = "b16"
    b32 = "b32"
    b64 = "b64"
    pred = "pred"

    def __init__(self, suffix: str):
        size, scalar = _LAYOUT[suffix]
        self.suffix: str = suffix
        self.size: int = size
        self.numpy_dtype: np.dtype = np.dtype(scalar)
        self.is_float: bool = suffix[0] == "f"
        self.is_signed: bool = suffix[0] == "s"
        self.is_unsigned: bool = suffix[0] == "u"
        self.is_untyped_bits: bool = suffix[0] == "b"
        self.is_predicate: bool = suffix == "pred"
        self.is_integer: bool = suffix[0] in "sub"

    def __str__(self):
        return f".{self.value}"

    @classmethod
    def parse(cls, text: str) -> "DataType":
        """Parse a suffix with or without the leading dot."""
        return cls(text.lstrip("."))


class AddressSpace(enum.Enum):
    """PTX state spaces reachable by ``ld``/``st``/``atom``."""

    global_ = "global"
    shared = "shared"
    local = "local"
    param = "param"
    const = "const"
    generic = "generic"

    def __str__(self):
        return f".{self.value}"

    @classmethod
    def parse(cls, text: str) -> "AddressSpace":
        text = text.lstrip(".")
        if text == "global":
            return cls.global_
        return cls(text)
