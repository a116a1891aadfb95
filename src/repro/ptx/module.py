"""PTX module and kernel containers.

A :class:`Module` is the unit of registration with the runtime (mirrors
``cudaModuleLoad``): it owns global variable declarations and kernels.
A :class:`Kernel` is a flat statement list (labels + instructions) plus
parameter and register declarations; the frontend turns it into a CFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import PTXValidationError
from .instructions import Label, PTXInstruction
from .types import AddressSpace, DataType


@dataclass
class Parameter:
    """A kernel ``.param`` declaration, laid out in declaration order in
    the parameter segment."""

    name: str
    dtype: DataType
    #: Array element count; 1 for scalars. Arrays are passed by value.
    count: int = 1
    #: Byte offset in the parameter segment, assigned by the kernel.
    offset: int = 0

    @property
    def size(self) -> int:
        return self.dtype.size * self.count


@dataclass
class Variable:
    """A module- or kernel-scoped state-space variable declaration,
    e.g. ``.shared .f32 tile[256];`` or ``.const .u32 lut[64];``."""

    name: str
    space: AddressSpace
    dtype: DataType
    count: int = 1
    #: Byte offset within the owning segment, assigned during layout.
    offset: int = 0
    #: Optional initializer for .const / .global variables.
    initializer: Optional[List[object]] = None
    align: int = 0

    @property
    def size(self) -> int:
        return self.dtype.size * self.count

    @property
    def alignment(self) -> int:
        return self.align if self.align else self.dtype.size

    def __str__(self):
        align = f" .align {self.align}" if self.align else ""
        count = f"[{self.count}]" if self.count > 1 else ""
        text = f"{self.space}{align} {self.dtype} {self.name}{count}"
        if self.initializer is not None:
            values = ", ".join(repr(value) for value in self.initializer)
            text += f" = {{ {values} }}"
        return text + ";"


@dataclass
class RegisterDeclaration:
    """A ``.reg`` declaration, either a single name or a ranged family
    (``.reg .u32 %r<10>;`` declares r0..r9)."""

    prefix: str
    dtype: DataType
    count: Optional[int] = None  # None = single register named `prefix`

    def names(self) -> List[str]:
        if self.count is None:
            return [self.prefix]
        return [f"{self.prefix}{i}" for i in range(self.count)]


def _align_up(value: int, alignment: int) -> int:
    remainder = value % alignment
    if remainder:
        return value + alignment - remainder
    return value


class Kernel:
    """A PTX ``.entry`` function."""

    def __init__(self, name: str):
        self.name = name
        self.parameters: List[Parameter] = []
        self.registers: Dict[str, DataType] = {}
        #: Kernel-scoped .shared/.local variables.
        self.variables: List[Variable] = []
        #: Flat body: Label and PTXInstruction objects in program order.
        self.statements: List[object] = []
        self.module: Optional["Module"] = None

    # -- declaration helpers -------------------------------------------------

    def add_parameter(self, parameter: Parameter) -> Parameter:
        if any(p.name == parameter.name for p in self.parameters):
            raise PTXValidationError(
                f"duplicate parameter {parameter.name!r} in kernel {self.name}"
            )
        self.parameters.append(parameter)
        self._layout_parameters()
        return parameter

    def declare_registers(self, declaration: RegisterDeclaration) -> None:
        for name in declaration.names():
            if name in self.registers:
                raise PTXValidationError(
                    f"duplicate register %{name} in kernel {self.name}"
                )
            self.registers[name] = declaration.dtype

    def add_variable(self, variable: Variable) -> Variable:
        if any(v.name == variable.name for v in self.variables):
            raise PTXValidationError(
                f"duplicate variable {variable.name!r} in kernel {self.name}"
            )
        self.variables.append(variable)
        return variable

    # -- layout --------------------------------------------------------------

    def _layout_parameters(self) -> None:
        offset = 0
        for parameter in self.parameters:
            offset = _align_up(offset, parameter.dtype.size)
            parameter.offset = offset
            offset += parameter.size

    @property
    def param_size(self) -> int:
        if not self.parameters:
            return 0
        last = self.parameters[-1]
        return last.offset + last.size

    def layout_segment(self, space: AddressSpace) -> int:
        """Assign offsets to this kernel's variables in ``space`` (plus,
        for shared/const, the module's) and return the segment size."""
        offset = 0
        variables = []
        if self.module is not None:
            variables.extend(
                v for v in self.module.variables if v.space is space
            )
        variables.extend(v for v in self.variables if v.space is space)
        for variable in variables:
            offset = _align_up(offset, variable.alignment)
            variable.offset = offset
            offset += variable.size
        return offset

    @property
    def shared_size(self) -> int:
        return self.layout_segment(AddressSpace.shared)

    @property
    def local_size(self) -> int:
        return self.layout_segment(AddressSpace.local)

    # -- lookup --------------------------------------------------------------

    def find_parameter(self, name: str) -> Optional[Parameter]:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        return None

    def find_variable(self, name: str) -> Optional[Variable]:
        for variable in self.variables:
            if variable.name == name:
                return variable
        if self.module is not None:
            return self.module.find_variable(name)
        return None

    def register_type(self, name: str) -> DataType:
        try:
            return self.registers[name]
        except KeyError:
            raise PTXValidationError(
                f"undeclared register %{name} in kernel {self.name}"
            ) from None

    # -- body ----------------------------------------------------------------

    def append(self, statement) -> None:
        self.statements.append(statement)

    @property
    def instructions(self) -> List[PTXInstruction]:
        return [s for s in self.statements if isinstance(s, PTXInstruction)]

    @property
    def labels(self) -> List[Label]:
        return [s for s in self.statements if isinstance(s, Label)]

    def __str__(self):
        lines = [f".entry {self.name} ("]
        lines.append(
            ", ".join(
                f".param {p.dtype} {p.name}"
                + (f"[{p.count}]" if p.count > 1 else "")
                for p in self.parameters
            )
        )
        lines.append(")")
        lines.append("{")
        by_type: Dict[DataType, List[str]] = {}
        for name, dtype in self.registers.items():
            by_type.setdefault(dtype, []).append(name)
        for dtype, names in by_type.items():
            rendered = ", ".join(f"%{name}" for name in names)
            lines.append(f"  .reg {dtype} {rendered};")
        for variable in self.variables:
            lines.append(f"  {variable}")
        for statement in self.statements:
            if isinstance(statement, Label):
                lines.append(f"{statement}")
            else:
                lines.append(f"  {statement}")
        lines.append("}")
        return "\n".join(lines)


class Module:
    """A PTX module: version header, global declarations, kernels."""

    def __init__(self, name: str = "module", version: str = "2.3"):
        self.name = name
        self.version = version
        self.target = "sim"
        self.kernels: Dict[str, Kernel] = {}
        #: Module-scoped .global/.const/.shared variables.
        self.variables: List[Variable] = []

    def add_kernel(self, kernel: Kernel) -> Kernel:
        if kernel.name in self.kernels:
            raise PTXValidationError(
                f"duplicate kernel {kernel.name!r} in module {self.name}"
            )
        kernel.module = self
        self.kernels[kernel.name] = kernel
        return kernel

    def add_variable(self, variable: Variable) -> Variable:
        if any(v.name == variable.name for v in self.variables):
            raise PTXValidationError(
                f"duplicate module variable {variable.name!r}"
            )
        self.variables.append(variable)
        return variable

    def find_variable(self, name: str) -> Optional[Variable]:
        for variable in self.variables:
            if variable.name == name:
                return variable
        return None

    def kernel(self, name: str) -> Kernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise PTXValidationError(
                f"no kernel {name!r} in module {self.name}; "
                f"have {sorted(self.kernels)}"
            ) from None

    def __str__(self):
        lines = [f".version {self.version}", f".target {self.target}", ""]
        lines.extend(str(variable) for variable in self.variables)
        for kernel in self.kernels.values():
            lines.append("")
            lines.append(str(kernel))
        return "\n".join(lines)
