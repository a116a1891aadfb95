"""Tokenizer for the PTX dialect.

Produces a flat token stream. Dotted opcode modifiers (``add.f32``) are
tokenized as an identifier followed by directive tokens so the parser can
interpret modifier chains uniformly.
"""

from __future__ import annotations

import enum
import re
import struct
from operator import itemgetter
from typing import List, NamedTuple

from ..errors import PTXSyntaxError


class TokenKind(enum.Enum):
    DIRECTIVE = "directive"  # .foo
    IDENT = "ident"
    REGISTER = "register"  # %foo
    INTEGER = "integer"
    FLOAT = "float"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: object
    line: int
    column: int

    def __repr__(self):
        return f"Token({self.kind.value}, {self.text!r}, line={self.line})"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<hexfloat>0[fF][0-9a-fA-F]{8}|0[dD][0-9a-fA-F]{16})
  | (?P<float>[-+]?(\d+\.\d*|\.\d+)([eE][-+]?\d+)?[fF]?
              |[-+]?\d+[eE][-+]?\d+)
  | (?P<hex>0[xX][0-9a-fA-F]+[Uu]?)
  | (?P<int>[-+]?\d+[Uu]?)
  | (?P<directive>\.[A-Za-z_][A-Za-z0-9_]*)
  | (?P<register>%[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<punct>[{}()\[\],;:@!<>=+\-*])
    """,
    re.VERBOSE | re.DOTALL,
)


def _decode_hex_float(text: str) -> float:
    (value,) = struct.unpack(
        ">f" if text[1] in "fF" else ">d", bytes.fromhex(text[2:])
    )
    return float(value)


_tail = itemgetter(slice(1, None))  # a name without its "." or "%"

#: Pattern group -> (token kind, text -> value).
_DECODE = {
    "directive": (TokenKind.DIRECTIVE, _tail),
    "register": (TokenKind.REGISTER, _tail),
    "ident": (TokenKind.IDENT, str),
    "hexfloat": (TokenKind.FLOAT, _decode_hex_float),
    "float": (TokenKind.FLOAT, lambda text: float(text.rstrip("fF"))),
    "hex": (TokenKind.INTEGER, lambda text: int(text.rstrip("uU"), 16)),
    "int": (TokenKind.INTEGER, lambda text: int(text.rstrip("uU"))),
    "punct": (TokenKind.PUNCT, str),
}


def tokenize(source: str) -> List[Token]:
    """Tokenize PTX dialect source, raising :class:`PTXSyntaxError`
    with line/column information on unexpected characters."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    for match in _TOKEN_RE.finditer(source):
        start = match.start()
        if start != position:
            break  # the pattern skipped something it cannot match
        position = match.end()
        text = match.group()
        decode = _DECODE.get(match.lastgroup)
        if decode is None:  # whitespace or a comment
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
            continue
        kind, value_of = decode
        token = (kind, text, value_of(text), line, start - line_start + 1)
        tokens.append(tuple.__new__(Token, token))  # Token(*token), direct
    if position != len(source):
        raise PTXSyntaxError(
            f"unexpected character {source[position]!r}",
            line,
            position - line_start + 1,
        )
    tokens.append(Token(TokenKind.EOF, "", None, line, 0))
    return tokens


class TokenStream:
    """Cursor over a token list with one-token lookahead helpers.
    ``current`` is the token under the cursor."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0
        self.current = tokens[0]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self._index += 1
            self.current = self._tokens[self._index]
        return token

    def at(self, kind: TokenKind, text: str = None) -> bool:
        token = self.current
        return token.kind is kind and (text is None or token.text == text)

    def accept(self, kind: TokenKind, text: str = None):
        token = self.current
        if token.kind is kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: TokenKind, text: str = None) -> Token:
        token = self.current
        if token.kind is not kind or (
            text is not None and token.text != text
        ):
            expected = text if text is not None else kind.value
            raise PTXSyntaxError(
                f"expected {expected!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()
