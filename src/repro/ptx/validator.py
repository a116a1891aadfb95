"""Structural validation of parsed PTX kernels.

The validator runs at module-registration time (mirroring the eager
"parses and analyzes kernels" step of §3) and rejects kernels the
frontend could not translate: undefined labels, fall-off-the-end bodies,
operand arity mismatches, etc.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import PTXValidationError
from .instructions import Label, Opcode, PTXInstruction
from .module import Kernel, Module
from .operands import (
    AddressOperand,
    LabelOperand,
    RegisterOperand,
    SymbolOperand,
)

#: Expected operand counts (destination included) per opcode; ``None``
#: means variable arity handled specially.
_ARITY: Dict[Opcode, object] = {
    Opcode.mov: 2,
    Opcode.ld: 2,
    Opcode.st: 2,
    Opcode.cvt: 2,
    Opcode.cvta: 2,
    Opcode.add: 3,
    Opcode.sub: 3,
    Opcode.mul: 3,
    Opcode.div: 3,
    Opcode.rem: 3,
    Opcode.min: 3,
    Opcode.max: 3,
    Opcode.and_: 3,
    Opcode.or_: 3,
    Opcode.xor: 3,
    Opcode.shl: 3,
    Opcode.shr: 3,
    Opcode.abs: 2,
    Opcode.neg: 2,
    Opcode.not_: 2,
    Opcode.cnot: 2,
    Opcode.mad: 4,
    Opcode.fma: 4,
    Opcode.setp: 3,
    Opcode.set: 3,
    Opcode.selp: 4,
    Opcode.slct: 4,
    Opcode.rcp: 2,
    Opcode.sqrt: 2,
    Opcode.rsqrt: 2,
    Opcode.sin: 2,
    Opcode.cos: 2,
    Opcode.lg2: 2,
    Opcode.ex2: 2,
    Opcode.bra: 1,
    Opcode.exit: 0,
    Opcode.ret: 0,
    Opcode.bar: None,
    Opcode.membar: 0,
    Opcode.atom: None,
    Opcode.red: 2,
    Opcode.vote: 2,
}


def validate_module(module: Module) -> None:
    for kernel in module.kernels.values():
        validate_kernel(kernel)


def validate_kernel(kernel: Kernel) -> None:
    _check_labels(kernel)
    _check_termination(kernel)
    for statement in kernel.statements:
        if isinstance(statement, PTXInstruction):
            _check_instruction(kernel, statement)


def _check_labels(kernel: Kernel) -> None:
    defined = set()
    for statement in kernel.statements:
        if isinstance(statement, Label):
            if statement.name in defined:
                raise PTXValidationError(
                    f"kernel {kernel.name}: duplicate label "
                    f"{statement.name!r}"
                )
            defined.add(statement.name)
    for statement in kernel.statements:
        if (
            isinstance(statement, PTXInstruction)
            and statement.opcode is Opcode.bra
        ):
            target = statement.operands[0]
            if (
                not isinstance(target, LabelOperand)
                or target.name not in defined
            ):
                raise PTXValidationError(
                    f"kernel {kernel.name}: branch to undefined label "
                    f"{target}"
                )


def _check_termination(kernel: Kernel) -> None:
    instructions: List[PTXInstruction] = kernel.instructions
    if not instructions:
        raise PTXValidationError(f"kernel {kernel.name}: empty body")
    last = kernel.statements[-1]
    if isinstance(last, Label):
        raise PTXValidationError(
            f"kernel {kernel.name}: body ends with a label"
        )
    if not (
        last.opcode in (Opcode.exit, Opcode.ret)
        or (last.opcode is Opcode.bra and last.guard is None)
    ):
        raise PTXValidationError(
            f"kernel {kernel.name}: control falls off the end "
            f"(last instruction {last})"
        )


def _check_instruction(kernel: Kernel, inst: PTXInstruction) -> None:
    expected = _ARITY.get(inst.opcode)
    if expected is not None and len(inst.operands) != expected:
        raise PTXValidationError(
            f"kernel {kernel.name}: {inst.opcode} expects {expected} "
            f"operands, found {len(inst.operands)} in {inst}"
        )
    if inst.opcode is Opcode.atom and len(inst.operands) not in (3, 4):
        raise PTXValidationError(
            f"kernel {kernel.name}: atom expects 3 or 4 operands in {inst}"
        )
    if inst.opcode in (Opcode.ld, Opcode.st, Opcode.atom, Opcode.red):
        if inst.space is None:
            raise PTXValidationError(
                f"kernel {kernel.name}: memory instruction without "
                f"address space: {inst}"
            )
        address_index = 1 if inst.opcode in (Opcode.ld, Opcode.atom) else 0
        address = inst.operands[address_index]
        if not isinstance(address, AddressOperand):
            raise PTXValidationError(
                f"kernel {kernel.name}: operand {address_index} of {inst} "
                f"must be an address"
            )
        if isinstance(address.base, SymbolOperand):
            _check_symbol(kernel, address.base.name, inst)
    if inst.opcode is Opcode.setp:
        destination = inst.operands[0]
        if (
            not isinstance(destination, RegisterOperand)
            or not destination.dtype.is_predicate
        ):
            raise PTXValidationError(
                f"kernel {kernel.name}: setp destination must be a "
                f"predicate register: {inst}"
            )
    if inst.saturate and not (
        inst.opcode is Opcode.cvt
        and inst.source_type is not None
        and inst.source_type.is_float
        and not (inst.dtype.is_float or inst.dtype.is_predicate)
    ):
        # cvt from float to integer saturates already; nothing else
        # implements .sat, so it is refused rather than ignored.
        raise PTXValidationError(
            f"kernel {kernel.name}: .sat is supported only on cvt from "
            f"float to integer, at line {inst.line}: {inst}"
        )
    if inst.guard is not None and not inst.guard.dtype.is_predicate:
        raise PTXValidationError(
            f"kernel {kernel.name}: guard %{inst.guard.name} is not a "
            f"predicate"
        )
    for operand in inst.operands:
        if isinstance(operand, SymbolOperand):
            _check_symbol(kernel, operand.name, inst)


def _check_symbol(kernel: Kernel, name: str, inst: PTXInstruction) -> None:
    if (
        kernel.find_parameter(name) is None
        and kernel.find_variable(name) is None
    ):
        raise PTXValidationError(
            f"kernel {kernel.name}: reference to undeclared symbol "
            f"{name!r} in {inst}"
        )
