"""Recursive-descent parser for the PTX dialect.

Grammar sketch::

    module      := header? global_decl* kernel+
    header      := ".version" FLOAT | ".target" IDENT
    global_decl := space_decl
    space_decl  := SPACE align? TYPE name ("[" INT "]")? ("=" init)? ";"
    kernel      := ".entry" IDENT "(" params ")" "{" body "}"
    params      := (".param" TYPE IDENT ("[" INT "]")?) % ","
    body        := (reg_decl | space_decl | label | instruction)*
    reg_decl    := ".reg" TYPE REG ("<" INT ">")? ";"
    instruction := guard? OPCODE modifiers operands ";"

Opcode modifier chains (``ld.global.v2.f32``) are interpreted by a small
classifier that assigns each dotted token to the address space,
comparison, rounding, vector width or type slots of the instruction.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PTXSyntaxError
from .instructions import (
    AtomicOp,
    CompareOp,
    Label,
    MulMode,
    Opcode,
    PTXInstruction,
    VoteMode,
)
from .lexer import TokenKind, TokenStream, tokenize
from .module import (
    Kernel,
    Module,
    Parameter,
    RegisterDeclaration,
    Variable,
)
from .operands import (
    AddressOperand,
    ImmediateOperand,
    LabelOperand,
    RegisterOperand,
    SpecialRegisterOperand,
    SymbolOperand,
    VectorOperand,
)
from .types import AddressSpace, DataType

_SPACES = {"global", "shared", "local", "param", "const", "generic"}
_TYPES = {t.value for t in DataType}
_COMPARES = {c.value for c in CompareOp}
_ROUNDINGS = {
    "rn", "rz", "rm", "rp", "rni", "rzi", "rmi", "rpi", "ftz", "sat",
}
_ATOMIC_OPS = {a.value if a.value else str(a) for a in AtomicOp} | {
    "and",
    "or",
}
_VOTE_MODES = {v.value for v in VoteMode}
_OPCODE_ALIASES = {"and": Opcode.and_, "or": Opcode.or_, "not": Opcode.not_}
_SPECIAL_REGISTERS = set(SpecialRegisterOperand.VALID)
_DIMENSIONS = {"x", "y", "z"}


class Parser:
    """Parses one module from source text."""

    def __init__(self, source: str, name: str = "module"):
        self.stream = TokenStream(tokenize(source))
        self.module = Module(name=name)
        self.kernel: Optional[Kernel] = None

    # -- top level -----------------------------------------------------------

    def parse_module(self) -> Module:
        stream = self.stream
        while not stream.at(TokenKind.EOF):
            if stream.at(TokenKind.DIRECTIVE, ".version"):
                stream.advance()
                token = stream.advance()
                self.module.version = token.text
            elif stream.at(TokenKind.DIRECTIVE, ".target"):
                stream.advance()
                self.module.target = stream.expect(TokenKind.IDENT).text
            elif stream.at(TokenKind.DIRECTIVE, ".entry") or stream.at(
                TokenKind.DIRECTIVE, ".visible"
            ):
                if stream.at(TokenKind.DIRECTIVE, ".visible"):
                    stream.advance()
                self._parse_kernel()
            elif stream.at(TokenKind.DIRECTIVE):
                directive = stream.current.value
                if directive in _SPACES:
                    self.module.add_variable(self._parse_variable())
                else:
                    raise PTXSyntaxError(
                        f"unexpected directive .{directive}",
                        stream.current.line,
                        stream.current.column,
                    )
            else:
                token = stream.current
                raise PTXSyntaxError(
                    f"unexpected token {token.text!r}",
                    token.line,
                    token.column,
                )
        return self.module

    # -- declarations --------------------------------------------------------

    def _parse_variable(self) -> Variable:
        stream = self.stream
        space_token = stream.expect(TokenKind.DIRECTIVE)
        space = AddressSpace.parse(space_token.value)
        align = 0
        if stream.at(TokenKind.DIRECTIVE, ".align"):
            stream.advance()
            align = stream.expect(TokenKind.INTEGER).value
        dtype_token = stream.expect(TokenKind.DIRECTIVE)
        if dtype_token.value not in _TYPES:
            raise PTXSyntaxError(
                f"expected type, found .{dtype_token.value}",
                dtype_token.line,
                dtype_token.column,
            )
        dtype = DataType.parse(dtype_token.value)
        name = stream.expect(TokenKind.IDENT).text
        count = 1
        if stream.accept(TokenKind.PUNCT, "["):
            count = stream.expect(TokenKind.INTEGER).value
            stream.expect(TokenKind.PUNCT, "]")
        initializer = None
        if stream.accept(TokenKind.PUNCT, "="):
            initializer = self._parse_initializer()
        stream.expect(TokenKind.PUNCT, ";")
        return Variable(
            name=name,
            space=space,
            dtype=dtype,
            count=count,
            initializer=initializer,
            align=align,
        )

    def _parse_initializer(self) -> List[object]:
        stream = self.stream
        values: List[object] = []
        if stream.accept(TokenKind.PUNCT, "{"):
            while not stream.accept(TokenKind.PUNCT, "}"):
                token = stream.advance()
                if token.kind not in (TokenKind.INTEGER, TokenKind.FLOAT):
                    raise PTXSyntaxError(
                        f"bad initializer element {token.text!r}",
                        token.line,
                        token.column,
                    )
                values.append(token.value)
                stream.accept(TokenKind.PUNCT, ",")
        else:
            token = stream.advance()
            if token.kind not in (TokenKind.INTEGER, TokenKind.FLOAT):
                raise PTXSyntaxError(
                    f"bad initializer {token.text!r}",
                    token.line,
                    token.column,
                )
            values.append(token.value)
        return values

    def _parse_kernel(self) -> None:
        stream = self.stream
        stream.expect(TokenKind.DIRECTIVE, ".entry")
        name = stream.expect(TokenKind.IDENT).text
        kernel = Kernel(name)
        stream.expect(TokenKind.PUNCT, "(")
        while not stream.at(TokenKind.PUNCT, ")"):
            stream.expect(TokenKind.DIRECTIVE, ".param")
            dtype_token = stream.expect(TokenKind.DIRECTIVE)
            dtype = DataType.parse(dtype_token.value)
            param_name = stream.expect(TokenKind.IDENT).text
            count = 1
            if stream.accept(TokenKind.PUNCT, "["):
                count = stream.expect(TokenKind.INTEGER).value
                stream.expect(TokenKind.PUNCT, "]")
            kernel.add_parameter(
                Parameter(name=param_name, dtype=dtype, count=count)
            )
            if not stream.accept(TokenKind.PUNCT, ","):
                break
        stream.expect(TokenKind.PUNCT, ")")
        stream.expect(TokenKind.PUNCT, "{")
        self.kernel = kernel
        while not stream.at(TokenKind.PUNCT, "}"):
            self._parse_body_statement()
        stream.expect(TokenKind.PUNCT, "}")
        self.module.add_kernel(kernel)
        self.kernel = None

    def _parse_body_statement(self) -> None:
        stream = self.stream
        if stream.at(TokenKind.DIRECTIVE, ".reg"):
            self._parse_register_declaration()
        elif (
            stream.at(TokenKind.DIRECTIVE)
            and stream.current.value in _SPACES
        ):
            self.kernel.add_variable(self._parse_variable())
        elif stream.at(TokenKind.IDENT) and stream.peek().text == ":":
            token = stream.advance()
            stream.advance()  # ':'
            self.kernel.append(Label(token.text, line=token.line))
        else:
            self.kernel.append(self._parse_instruction())

    def _parse_register_declaration(self) -> None:
        stream = self.stream
        stream.expect(TokenKind.DIRECTIVE, ".reg")
        dtype_token = stream.expect(TokenKind.DIRECTIVE)
        dtype = DataType.parse(dtype_token.value)
        while True:
            register = stream.expect(TokenKind.REGISTER)
            count = None
            if stream.accept(TokenKind.PUNCT, "<"):
                count = stream.expect(TokenKind.INTEGER).value
                stream.expect(TokenKind.PUNCT, ">")
            self.kernel.declare_registers(
                RegisterDeclaration(
                    prefix=register.value, dtype=dtype, count=count
                )
            )
            if not stream.accept(TokenKind.PUNCT, ","):
                break
        stream.expect(TokenKind.PUNCT, ";")

    # -- instructions ----------------------------------------------------

    def _parse_instruction(self) -> PTXInstruction:
        stream = self.stream
        guard = None
        if stream.accept(TokenKind.PUNCT, "@"):
            negated = bool(stream.accept(TokenKind.PUNCT, "!"))
            register = stream.expect(TokenKind.REGISTER)
            guard = RegisterOperand(
                name=register.value,
                dtype=self.kernel.register_type(register.value),
                negated=negated,
            )
        opcode_token = stream.expect(TokenKind.IDENT)
        opcode = self._lookup_opcode(opcode_token)
        instruction = PTXInstruction(
            opcode=opcode, guard=guard, line=opcode_token.line
        )
        self._parse_modifiers(instruction)
        if not stream.at(TokenKind.PUNCT, ";"):
            while True:
                instruction.operands.append(self._parse_operand(instruction))
                if not stream.accept(TokenKind.PUNCT, ","):
                    break
        stream.expect(TokenKind.PUNCT, ";")
        self._infer_operand_dtypes(instruction)
        return instruction

    def _lookup_opcode(self, token) -> Opcode:
        if token.text in _OPCODE_ALIASES:
            return _OPCODE_ALIASES[token.text]
        try:
            return Opcode(token.text)
        except ValueError:
            raise PTXSyntaxError(
                f"unknown opcode {token.text!r}", token.line, token.column
            ) from None

    def _parse_modifiers(self, instruction: PTXInstruction) -> None:
        stream = self.stream
        modifiers: List[str] = []
        while stream.at(TokenKind.DIRECTIVE):
            modifiers.append(stream.advance().value)
        opcode = instruction.opcode
        for modifier in modifiers:
            if modifier == "sync" and opcode in (Opcode.bar, Opcode.vote):
                continue
            if modifier in ("gl", "cta", "sys") and opcode is Opcode.membar:
                continue
            if modifier in _SPACES and instruction.space is None:
                instruction.space = AddressSpace.parse(modifier)
            elif (
                opcode in (Opcode.atom, Opcode.red)
                and instruction.atomic_op is None
                and modifier in _ATOMIC_OPS
            ):
                instruction.atomic_op = (
                    AtomicOp.and_
                    if modifier == "and"
                    else AtomicOp.or_
                    if modifier == "or"
                    else AtomicOp(modifier)
                )
            elif (
                opcode is Opcode.vote
                and instruction.vote_mode is None
                and modifier in _VOTE_MODES
            ):
                instruction.vote_mode = VoteMode(modifier)
            elif (
                opcode in (Opcode.setp, Opcode.set, Opcode.slct)
                and instruction.compare is None
                and modifier in _COMPARES
            ):
                instruction.compare = CompareOp(modifier)
            elif (
                opcode in (Opcode.mul, Opcode.mad)
                and instruction.mul_mode is None
                and modifier in ("lo", "hi", "wide")
            ):
                instruction.mul_mode = MulMode(modifier)
            elif modifier in _ROUNDINGS:
                instruction.rounding = modifier
            elif modifier == "approx":
                instruction.approx = True
            elif modifier == "full":
                instruction.full = True
            elif modifier == "uni" and opcode is Opcode.bra:
                continue
            elif modifier == "to" and opcode is Opcode.cvta:
                continue
            elif len(modifier) >= 2 and modifier[0] == "v" and (
                modifier[1:].isdigit()
            ):
                instruction.vector_width = int(modifier[1:])
            elif modifier in _TYPES:
                if instruction.dtype is None:
                    instruction.dtype = DataType.parse(modifier)
                elif instruction.source_type is None:
                    instruction.source_type = DataType.parse(modifier)
                else:
                    raise PTXSyntaxError(
                        f"too many type modifiers on {opcode}",
                        instruction.line,
                    )
            else:
                raise PTXSyntaxError(
                    f"unsupported modifier .{modifier} on {opcode}",
                    instruction.line,
                )

    # -- operands ----------------------------------------------------------

    def _parse_operand(self, instruction: PTXInstruction):
        stream = self.stream
        token = stream.current
        if token.kind is TokenKind.PUNCT and token.text == "[":
            return self._parse_address()
        if token.kind is TokenKind.PUNCT and token.text == "{":
            return self._parse_vector_operand()
        if token.kind is TokenKind.PUNCT and token.text == "!":
            stream.advance()
            register = stream.expect(TokenKind.REGISTER)
            return RegisterOperand(
                name=register.value,
                dtype=self.kernel.register_type(register.value),
                negated=True,
            )
        if token.kind is TokenKind.REGISTER:
            return self._parse_register_like()
        if token.kind is TokenKind.INTEGER:
            stream.advance()
            return ImmediateOperand(value=token.value, dtype=None)
        if token.kind is TokenKind.FLOAT:
            stream.advance()
            return ImmediateOperand(value=token.value, dtype=None)
        if token.kind is TokenKind.IDENT:
            stream.advance()
            if instruction.opcode is Opcode.bra:
                return LabelOperand(token.text)
            return SymbolOperand(token.text)
        raise PTXSyntaxError(
            f"unexpected operand {token.text!r}", token.line, token.column
        )

    def _parse_register_like(self):
        stream = self.stream
        token = stream.expect(TokenKind.REGISTER)
        name = token.value
        if name in _SPECIAL_REGISTERS:
            dimension = None
            if (
                stream.at(TokenKind.DIRECTIVE)
                and stream.current.value in _DIMENSIONS
            ):
                dimension = stream.advance().value
            return SpecialRegisterOperand(register=name, dimension=dimension)
        return RegisterOperand(
            name=name, dtype=self.kernel.register_type(name)
        )

    def _parse_vector_operand(self) -> VectorOperand:
        stream = self.stream
        stream.expect(TokenKind.PUNCT, "{")
        elements = []
        while not stream.at(TokenKind.PUNCT, "}"):
            register = stream.expect(TokenKind.REGISTER)
            elements.append(
                RegisterOperand(
                    name=register.value,
                    dtype=self.kernel.register_type(register.value),
                )
            )
            if not stream.accept(TokenKind.PUNCT, ","):
                break
        stream.expect(TokenKind.PUNCT, "}")
        return VectorOperand(elements=tuple(elements))

    def _parse_address(self) -> AddressOperand:
        stream = self.stream
        stream.expect(TokenKind.PUNCT, "[")
        token = stream.current
        if token.kind is TokenKind.REGISTER:
            base = self._parse_register_like()
        elif token.kind is TokenKind.IDENT:
            stream.advance()
            base = SymbolOperand(token.text)
        else:
            raise PTXSyntaxError(
                f"bad address base {token.text!r}", token.line, token.column
            )
        offset = 0
        if stream.accept(TokenKind.PUNCT, "+"):
            offset = stream.expect(TokenKind.INTEGER).value
        elif stream.accept(TokenKind.PUNCT, "-"):
            offset = -stream.expect(TokenKind.INTEGER).value
        elif stream.at(TokenKind.INTEGER):
            # The lexer may fold a sign into the integer: [%rd1+4].
            offset = stream.advance().value
        stream.expect(TokenKind.PUNCT, "]")
        return AddressOperand(base=base, offset=offset)

    def _infer_operand_dtypes(self, instruction: PTXInstruction) -> None:
        """Stamp untyped immediates with the type the instruction reads
        them as: its source type where it names one (``cvt``'s source,
        ``set``'s compared pair, ``slct``'s selector — its two data
        operands are of the instruction type), else its type."""
        dtype = instruction.dtype
        if dtype is None:
            return
        source = instruction.source_type or dtype
        slct = instruction.opcode is Opcode.slct
        operands = instruction.operands
        for index, operand in enumerate(operands):
            if isinstance(operand, ImmediateOperand) and operand.dtype is None:
                operands[index] = ImmediateOperand(
                    value=operand.value,
                    dtype=dtype if slct and index < 3 else source,
                )


def parse(source: str, name: str = "module") -> Module:
    """Parse PTX dialect source text into a :class:`Module`."""
    return Parser(source, name=name).parse_module()
