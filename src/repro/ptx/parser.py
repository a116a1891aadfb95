"""Statement parser for the PTX dialect.

Grammar sketch::

    module      := (".version" NUMBER | ".target" IDENT | var | kernel)*
    var         := SPACE (".align" INT)? TYPE IDENT ("[" INT "]")?
                   ("=" init)? ";"
    kernel      := ".visible"? ".entry" IDENT "(" (param % ",") ")"
                   "{" (reg | var | IDENT ":" | instruction)* "}"
    param       := ".param" TYPE IDENT ("[" INT "]")?
    reg         := ".reg" TYPE (REG ("<" INT ">")?) % "," ";"
    instruction := ("@" "!"? REG)? OPCODE ("." MODIFIER)* operands? ";"

The source is read a statement at a time. One pattern (``_ITEM``) finds
each item: a label, a kernel's ``}``, a kernel header up to its ``{``,
a ``.version`` or ``.target``, or a statement up to its ``;`` (brace
groups of vector operands and initializers inside it); a second
(``_INSTRUCTION``) splits an instruction into guard, opcode, modifier
chain and operand text. A modifier chain is classified once per
:func:`parse` call and an operand decoded once per kernel: operands
are frozen values, so instructions share them.

A statement is decoded in source order, so a malformed one is refused
at its first fault (an undeclared register ahead of the syntax error
behind it), and a character no token starts at ahead of anything else.
Every :class:`PTXSyntaxError` carries a line and a column.
"""

from __future__ import annotations

import re
import struct

from ..errors import PTXSyntaxError, ReproError
from .instructions import (
    AtomicOp,
    CompareOp,
    Label,
    MulMode,
    Opcode,
    PTXInstruction,
    VoteMode,
)
from .builder import _widen
from .module import Kernel, Module, Parameter, RegisterDeclaration, Variable
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
_ROUNDINGS = {"rn", "rz", "rm", "rp", "rni", "rzi", "rmi", "rpi"}
_ATOMIC_OPS = {a.value for a in AtomicOp}
_VOTE_MODES = {v.value for v in VoteMode}
_OPCODES = {opcode.value: opcode for opcode in Opcode}
_SPECIAL_REGISTERS = set(SpecialRegisterOperand.VALID)
_DIMENSIONS = {"x", "y", "z"}

# -- patterns ----------------------------------------------------------------

# A comment is taken whole too: a line comment to the end of its line,
# a block comment to the first "*/".
_COMMENT = r"//[^\n]*(?![^\n])|/\*(?:[^*]|\*(?!/))*\*/"
# Each repetition below is unrolled (``a*(?:b a*)*`` with ``b`` never
# starting an ``a``), so a failed match backtracks in linear time.
_GAP = rf"\s*(?:(?:{_COMMENT})\s*)*"
# A name is taken whole, as a token would be: ``@%p1L:`` guards with
# ``%p1L``, not ``%p1`` and a label.
_NAME = r"[A-Za-z_][\w$]*(?![\w$])"  # a register, after its "%": no "."
_IDENT = r"[A-Za-z_$][\w$]*(?![\w$])"
_INT = r"[-+]?(?:0[xX][0-9a-fA-F]+|\d+)[Uu]?"
_NUMBER = (
    r"(?P<hexfloat>0[fF][0-9a-fA-F]{8}|0[dD][0-9a-fA-F]{16})"
    r"|(?P<float>[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fF]?"
    r"|[-+]?\d+[eE][-+]?\d+)"
    rf"|(?P<int>{_INT})"
)
_BODY = rf"[^;{{}}/]*(?:(?:{_COMMENT}|\{{[^{{}};]*\}})[^;{{}}/]*)*"


def _compile(pattern: str) -> re.Pattern:
    return re.compile(pattern, re.ASCII | re.DOTALL)


_ITEM = _compile(
    rf"{_GAP}(?:"
    rf"(?P<label>(?P<label_name>{_IDENT}){_GAP}:)"
    r"|(?P<close>\})"
    rf"|(?P<entry>(?P<header>(?:\.visible\b{_GAP})?\.entry\b"
    rf"[^;{{}}/]*(?:(?:{_COMMENT})[^;{{}}/]*)*)\{{)"
    rf"|(?P<version>\.version\b{_GAP}"
    rf"(?P<version_text>{_NUMBER}|{_IDENT})?)"
    rf"|(?P<target>\.target\b{_GAP}(?P<target_text>{_IDENT})?)"
    rf"|(?P<statement>(?P<text>[^;{{}}/\s]{_BODY});)"
    r"|(?P<end>\Z))"
)
_SKIP = _compile(_GAP)
_INSTRUCTION = _compile(
    rf"(?:@\s*(!?)\s*(?:%({_NAME}))?\s*)?({_IDENT})?"
    r"((?:\s*\.[A-Za-z_]\w*)*)\s*(.*)"
)
_DIRECTIVE = _compile(r"\s*\.([A-Za-z_]\w*)")
_REGISTER = _compile(rf"%({_NAME})")
_NEGATED = _compile(rf"!\s*%({_NAME})")
_SYMBOL = _compile(_IDENT)
_LITERAL = _compile(_NUMBER)
_ADDRESS = _compile(rf"\[\s*(?:(?=%)|({_IDENT}))")
_OFFSET = _compile(rf"\s*(?:(?:([-+])\s*)?({_INT}))?\s*\]")
_ELEMENT = _compile(rf"\s*%({_NAME})\s*(,?)")
_BRACE_CLOSE = _compile(r"\s*\}")
_DECLARED = _compile(rf"\s*%({_NAME})(?:\s*<\s*({_INT})\s*>)?\s*(,?)")
_VARIABLE = _compile(
    rf"\.(?P<space>[A-Za-z_]\w*)\s*(?:\.align\b\s*(?P<align>{_INT})\s*)?"
    rf"\.(?P<type>[A-Za-z_]\w*)\s*(?P<name>{_IDENT})\s*"
    rf"(?:\[\s*(?P<count>{_INT})\s*\]\s*)?"
    r"(?:=\s*(?:\{(?P<elements>[^}]*)\}|(?P<value>[^\s{}]+))\s*)?"
)
_ELEMENT_VALUE = _compile(rf"\s*(?:{_NUMBER})\s*,?")
_ENTRY = _compile(rf"(?:\.visible\b\s*)?\.entry\b\s*(?:({_IDENT})\s*(\()?)?")
_PARAM = _compile(
    rf"\s*\.param\b\s*\.([A-Za-z_]\w*)"
    rf"(?:\s*({_IDENT})\s*(?:\[\s*({_INT})\s*\]\s*)?(,?))?"
)
_PAREN_CLOSE = _compile(r"\s*\)\s*")
_BLANK = _compile(_COMMENT)
#: The dialect's tokens in the order they are tried, each taken whole
#: (a lookahead does not backtrack): the first offset this does not
#: reach is a character no token starts at.
_VOCABULARY = _compile(
    rf"(?:(?=(\s+|{_COMMENT}|{_NUMBER}|\.[A-Za-z_]\w*|%{_NAME}|{_IDENT}"
    r"|[{}()\[\],;:@!<>=+\-*]))\1)*"
)


class _Refusal(Exception):
    """A fault at ``offset`` in the text being decoded; the caller that
    knows where that text starts turns it into a PTXSyntaxError."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def _expected(what: str, text: str, offset: int) -> _Refusal:
    """A refusal at the first non-space at or after ``offset``."""
    rest = text[offset:]
    found = repr(rest.split(None, 1)[0][:16]) if rest.strip() else "the end"
    offset += len(rest) - len(rest.lstrip())
    return _Refusal(f"expected {what}, found {found}", offset)


def _type(match: re.Match) -> DataType:
    """The type ``match``'s first group names, refused where it stands."""
    if match.group(1) not in _TYPES:
        raise _expected("a type", match.string, match.start(1) - 1)
    return DataType(match.group(1))


def _integer(text: str) -> int:
    text = text.rstrip("uU")
    return int(text, 16) if "x" in text or "X" in text else int(text)


def _number(match: re.Match):
    kind = match.lastgroup
    text = match.group(kind)
    if kind == "int":
        return _integer(text)
    if kind == "float":
        return float(text.rstrip("fF"))
    layout = ">f" if text[1] in "fF" else ">d"
    return struct.unpack(layout, bytes.fromhex(text[2:]))[0]


def _located(source: str, message: str, offset: int) -> PTXSyntaxError:
    line_start = source.rfind("\n", 0, offset) + 1
    return PTXSyntaxError(
        message, source.count("\n", 0, offset) + 1, offset - line_start + 1
    )


def _blank(text: str) -> str:
    """``text`` with its comments turned to spaces, newlines kept, so
    offsets and line counts still hold."""
    return _BLANK.sub(
        lambda comment: re.sub(r"[^\n]", " ", comment.group()), text
    )


def _split(text: str) -> list:
    """Operand texts: ``text`` split at commas outside braces."""
    pieces = text.split(",")
    if "{" in text:
        joined = []
        for piece in pieces:
            if joined and joined[-1].count("{") > joined[-1].count("}"):
                joined[-1] += "," + piece
            else:
                joined.append(piece)
        pieces = joined
    return pieces


def _typed(immediate, dtype, text: str, index: int, start: int):
    """``immediate`` as a ``dtype`` operand; it is operand ``index`` of
    the operand ``text`` at ``start``."""
    try:
        return ImmediateOperand(immediate.value, dtype)
    except ValueError as refusal:
        pieces = _split(text)[:index + 1]
        start += len(",".join(pieces)) - len(pieces[-1].lstrip())
        raise _Refusal(str(refusal), start) from None


#: Modifiers that fill a slot, tried in order: (opcodes or None for all,
#: slot, names, value of a name); a slot takes its first modifier.
_SLOTS = (
    (None, "space", _SPACES, AddressSpace.parse),
    ((Opcode.atom, Opcode.red), "atomic_op", _ATOMIC_OPS, AtomicOp),
    ((Opcode.vote,), "vote_mode", _VOTE_MODES, VoteMode),
    ((Opcode.setp, Opcode.set, Opcode.slct), "compare", _COMPARES,
     CompareOp),
    ((Opcode.mul, Opcode.mad), "mul_mode", {"lo", "hi", "wide"}, MulMode),
)
_FLAGS = {"sat": "saturate", "ftz": "ftz", "approx": "approx", "full": "full"}
#: Modifiers read and dropped.
_IGNORED = {
    ("sync", Opcode.bar), ("sync", Opcode.vote), ("gl", Opcode.membar),
    ("cta", Opcode.membar), ("sys", Opcode.membar), ("uni", Opcode.bra),
    ("to", Opcode.cvta),
}


def _shape(name: str, chain: str) -> tuple:
    """What opcode ``name`` and its modifier chain (``.global.v2.f32``)
    make of an instruction: its fields, each dotted name assigned to the
    address space, comparison, rounding, vector width or type slots;
    then the types its immediates take and whether it is bra."""
    opcode = _OPCODES.get(name)
    if opcode is None:
        raise _Refusal(f"unknown opcode {name!r}", 0)
    fields = {"opcode": opcode}
    for match in _DIRECTIVE.finditer(chain):
        modifier = match.group(1)
        offset = len(name) + match.start(1) - 1
        if (modifier, opcode) in _IGNORED:
            continue
        for opcodes, slot, names, value in _SLOTS:
            if (
                modifier in names and slot not in fields
                and (opcodes is None or opcode in opcodes)
            ):
                fields[slot] = value(modifier)
                break
        else:
            if modifier in _ROUNDINGS:
                fields["rounding"] = modifier
            elif modifier in _FLAGS:
                fields[_FLAGS[modifier]] = True
            elif modifier[0] == "v" and modifier[1:].isdigit():
                if modifier not in ("v2", "v4") or opcode not in (
                    Opcode.ld, Opcode.st
                ):
                    raise _Refusal(
                        f"unsupported vector width .{modifier} on {opcode} "
                        "(ld and st take .v2 and .v4)", offset
                    )
                fields["vector_width"] = int(modifier[1:])
            elif modifier not in _TYPES:
                raise _Refusal(
                    f"unsupported modifier .{modifier} on {opcode}", offset
                )
            elif "source_type" in fields:
                raise _Refusal(f"too many type modifiers on {opcode}", offset)
            else:
                slot = "source_type" if "dtype" in fields else "dtype"
                fields[slot] = DataType(modifier)
    # The type an immediate operand is read as: the source type (cvt's
    # source, set's compared pair, slct's selector; the instruction type
    # where there is none), but slct's data operands are of the
    # instruction type and mad.wide's addend of the wide one.
    dtype = fields.get("dtype")
    source = fields.get("source_type") or dtype
    types = [dtype] * 3 + [source] if opcode is Opcode.slct else [source] * 4
    if opcode is Opcode.mad and fields.get("mul_mode") is MulMode.wide:
        types[3] = _widen(dtype)
    return fields, dtype and tuple(types), opcode is Opcode.bra


class _Parser:
    """Parses one module from source text."""

    def __init__(self, source: str, name: str):
        self.source = source
        self.module = Module(name=name)
        self.kernel = None
        #: (opcode, modifier chain) -> (fields, immediate types, bra),
        #: for this parse call.
        self.shapes = {}
        #: Operand text -> operand, for the kernel being parsed.
        self.operands = {}

    # -- items ---------------------------------------------------------------

    def parse_module(self) -> Module:
        source = self.source
        module = self.module
        line = 1
        position = counted = start = 0
        try:
            for match in _ITEM.finditer(source):
                if match.start() != position:
                    break
                position = match.end()
                kind = match.lastgroup
                start = match.start(kind)
                line += source.count("\n", counted, start)
                counted = start
                if kind == "statement":
                    text = match.group("text")
                    if "/" in text:
                        text = _blank(text)
                    self.statement(text, line)
                elif kind == "end":
                    if self.kernel is not None:
                        raise _expected("'}'", "", 0)
                    return module
                elif (self.kernel is None) is (kind in ("label", "close")):
                    where = "outside" if self.kernel is None else "in"
                    raise _Refusal(f"{kind} {where} a kernel", 0)
                elif kind == "label":
                    self.kernel.append(Label(match.group("label_name"), line))
                elif kind == "close":
                    module.add_kernel(self.kernel)
                    self.kernel = None
                elif kind == "entry":
                    header = _blank(match.group("header"))
                    self.kernel = self.kernel_header(header)
                    self.operands = {}
                else:  # .version or .target
                    value = match.group(kind + "_text")
                    if value is None:
                        raise _expected(kind, source[start:], len(match[kind]))
                    setattr(module, kind, value)
            # No item starts here: decode up to the next ";" so that the
            # first fault in it is the one reported.
            start = _SKIP.match(source, position).end()
            text = _blank(source[start:].split(";", 1)[0])
            self.statement(text, line + source.count("\n", counted, start))
            raise _expected("';'", text, len(text))
        except _Refusal as refusal:
            raise _located(source, str(refusal), start + refusal.offset)

    def statement(self, text: str, line: int) -> None:
        kernel = self.kernel
        if kernel is not None and text[:1] != ".":
            kernel.append(self.instruction(text, line))
            return
        directive = _DIRECTIVE.match(text)
        space = directive.group(1) if directive else None
        if kernel is not None and space == "reg":
            self.declare_registers(text, directive.end())
        elif space in _SPACES:
            variable = self.variable(text)
            (kernel or self.module).add_variable(variable)
        elif kernel is None and space in ("visible", "entry"):
            self.kernel_header(text)
            raise _expected("'{'", text, len(text))
        else:
            raise _expected("a statement", text, 0)

    # -- declarations --------------------------------------------------------

    def kernel_header(self, text: str) -> Kernel:
        match = _ENTRY.match(text)
        if match.group(2) is None:
            what = "'('" if match.group(1) else "kernel name"
            raise _expected(what, text, match.end())
        kernel = Kernel(match.group(1))
        position = match.end()
        while not _PAREN_CLOSE.match(text, position):
            match = _PARAM.match(text, position)
            if match is None:
                raise _expected(".param and a type", text, position)
            dtype = _type(match)
            if match.group(2) is None:
                raise _expected("parameter name", text, match.end())
            count = match.group(3)
            kernel.add_parameter(Parameter(
                name=match.group(2), dtype=dtype,
                count=_integer(count) if count else 1,
            ))
            position = match.end()
            if not match.group(4):
                break
        match = _PAREN_CLOSE.match(text, position)
        if match is None:
            raise _expected("')'", text, position)
        if match.end() != len(text):
            raise _expected("'{'", text, match.end())
        return kernel

    def declare_registers(self, text: str, position: int) -> None:
        match = _DIRECTIVE.match(text, position)
        if match is None:
            raise _expected("type", text, position)
        dtype = _type(match)
        while True:
            position = match.end()
            match = _DECLARED.match(text, position)
            if match is None:
                raise _expected("register", text, position)
            count = match.group(2)
            self.kernel.declare_registers(RegisterDeclaration(
                prefix=match.group(1), dtype=dtype,
                count=_integer(count) if count else None,
            ))
            if not match.group(3):
                break
        if text[match.end():].strip():
            raise _expected("';'", text, match.end())

    def variable(self, text: str) -> Variable:
        match = _VARIABLE.fullmatch(text.rstrip())
        if match is None or match.group("type") not in _TYPES:
            raise _Refusal(f"malformed declaration {text.strip()!r}", 0)
        elements, value = match.group("elements", "value")
        initializer = None
        if elements is not None:
            initializer, position = [], 0
            while elements[position:].strip():
                number = _ELEMENT_VALUE.match(elements, position)
                if number is None:
                    raise _expected(
                        "initializer element", text,
                        match.start("elements") + position,
                    )
                initializer.append(_number(number))
                position = number.end()
        elif value is not None:
            number = _LITERAL.fullmatch(value)
            if number is None:
                raise _expected("initializer", text, match.start("value"))
            initializer = [_number(number)]
        align, count = match.group("align", "count")
        return Variable(
            name=match.group("name"),
            space=AddressSpace.parse(match.group("space")),
            dtype=DataType(match.group("type")),
            count=_integer(count) if count else 1,
            initializer=initializer,
            align=_integer(align) if align else 0,
        )

    # -- instructions --------------------------------------------------------

    def instruction(self, text: str, line: int) -> PTXInstruction:
        match = _INSTRUCTION.match(text)
        negated, guard_name, opcode, chain, operand_text = match.groups()
        guard = None
        if negated is not None:  # "@"
            if guard_name is None:
                raise _expected("register", text, match.end(1))
            guard = self.register(guard_name, bool(negated))
            line += text.count("\n", 0, match.start(4))
        if opcode is None:
            raise _expected("opcode", text, match.start(4))
        shape = self.shapes.get((opcode, chain))
        if shape is None:
            try:
                shape = self.shapes[opcode, chain] = _shape(opcode, chain)
            except _Refusal as refusal:
                refusal.offset += match.start(3)
                raise
        fields, types, bra = shape
        operands = []
        if operand_text:
            operands = self.operand_list(operand_text, match.start(5))
            for index, operand in enumerate(operands if types else ()):
                if operand.__class__ is ImmediateOperand:
                    operands[index] = _typed(
                        operand, types[min(index, 3)], operand_text, index,
                        match.start(5),
                    )
            if bra:
                operands = [
                    LabelOperand(operand.name)
                    if operand.__class__ is SymbolOperand else operand
                    for operand in operands
                ]
        return PTXInstruction(
            operands=operands, guard=guard, line=line, **fields
        )

    # -- operands ------------------------------------------------------------

    def operand_list(self, text: str, start: int) -> list:
        memo = self.operands
        pieces = _split(text)
        try:
            return [memo[piece] for piece in pieces]
        except KeyError:
            pass
        operands = []
        for piece in pieces:
            operand = memo.get(piece)
            if operand is None:
                try:
                    operand = memo[piece] = self.operand(piece)
                except _Refusal as refusal:
                    refusal.offset += start
                    raise
            operands.append(operand)
            start += len(piece) + 1
        return operands

    def operand(self, text: str):
        position = len(text) - len(text.lstrip())
        text = text.rstrip()
        first = text[position:position + 1]
        if first == "%":
            operand, end = self.register_like(text, position)
        elif first == "[":
            operand, end = self.address(text, position)
        elif first == "{":
            operand, end = self.vector(text, position)
        elif first == "!":
            match = _NEGATED.match(text, position)
            if match is None:
                raise _expected("register", text, position + 1)
            operand, end = self.register(match.group(1), True), match.end()
        else:
            match = _SYMBOL.match(text, position)
            if match is not None:
                operand = SymbolOperand(match.group())
            else:
                match = _LITERAL.match(text, position)
                if match is None:
                    raise _expected("operand", text, position)
                operand = ImmediateOperand(_number(match), None)
            end = match.end()
        if end != len(text):
            raise _expected("',' or ';'", text, end)
        return operand

    def register(self, name: str, negated: bool = False) -> RegisterOperand:
        return RegisterOperand(name, self.kernel.register_type(name), negated)

    def register_like(self, text: str, position: int):
        match = _REGISTER.match(text, position)
        if match is None:
            raise _expected("register", text, position)
        name = match.group(1)
        if name not in _SPECIAL_REGISTERS:
            return self.register(name), match.end()
        dimension = _DIRECTIVE.match(text, match.end())
        if dimension is None or dimension.group(1) not in _DIMENSIONS:
            return SpecialRegisterOperand(name), match.end()
        return SpecialRegisterOperand(name, dimension[1]), dimension.end()

    def address(self, text: str, position: int):
        match = _ADDRESS.match(text, position)
        if match is None:
            raise _expected("address base", text, position + 1)
        if match.group(1) is None:
            base, end = self.register_like(text, match.end())
        else:
            base, end = SymbolOperand(match.group(1)), match.end()
        match = _OFFSET.match(text, end)
        if match is None:
            raise _expected("']'", text, end)
        sign, offset = match.groups()
        offset = _integer(offset) if offset else 0
        return (
            AddressOperand(base, -offset if sign == "-" else offset),
            match.end(),
        )

    def vector(self, text: str, position: int):
        elements = []
        position += 1
        close = _BRACE_CLOSE.match(text, position)
        while close is None:
            match = _ELEMENT.match(text, position)
            if match is None:
                raise _expected("register", text, position)
            elements.append(self.register(match.group(1)))
            position = match.end()
            close = _BRACE_CLOSE.match(text, position)
            if close is None and not match.group(2):
                raise _expected("'}'", text, position)
        return VectorOperand(tuple(elements)), close.end()


def parse(source: str, name: str = "module") -> Module:
    """Parse PTX dialect source text into a :class:`Module`."""
    try:
        return _Parser(source, name).parse_module()
    except (ReproError, ValueError):
        end = _VOCABULARY.match(source).end()
        if end == len(source):
            raise
        message = f"unexpected character {source[end]!r}"
    raise _located(source, message, end)
