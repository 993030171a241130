"""Token definitions for the jsl language.

jsl is the JavaScript subset used throughout this reproduction.  It covers
the constructs the paper's workloads rely on: dynamic objects with
property addition, prototype-based inheritance via ``new`` and
``Function.prototype``, first-class functions and closures, and the usual
expression/statement forms.
"""

from __future__ import annotations

import enum
from types import SimpleNamespace
from typing import NamedTuple

from repro.lang.errors import SourcePosition


class TokenKind(enum.Enum):
    """Every lexical category recognised by the scanner.

    Kinds hash by identity, as they compare: ``Enum.__hash__`` is a
    Python-level call, and the parser keys its operator tables by kind.
    """

    __hash__ = object.__hash__

    # Literals and identifiers.
    NUMBER = "number"
    STRING = "string"
    IDENT = "identifier"

    # Keywords.
    VAR = "var"
    LET = "let"
    CONST = "const"
    FUNCTION = "function"
    RETURN = "return"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    DO = "do"
    FOR = "for"
    BREAK = "break"
    CONTINUE = "continue"
    NEW = "new"
    DELETE = "delete"
    TYPEOF = "typeof"
    IN = "in"
    INSTANCEOF = "instanceof"
    THIS = "this"
    NULL = "null"
    UNDEFINED = "undefined"
    TRUE = "true"
    FALSE = "false"
    THROW = "throw"
    TRY = "try"
    CATCH = "catch"
    FINALLY = "finally"
    SWITCH = "switch"
    CASE = "case"
    DEFAULT = "default"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMICOLON = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    QUESTION = "?"

    # Operators.
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    EQ = "=="
    NEQ = "!="
    STRICT_EQ = "==="
    STRICT_NEQ = "!=="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"
    BIT_AND = "&"
    BIT_OR = "|"
    BIT_XOR = "^"
    BIT_NOT = "~"
    SHL = "<<"
    SHR = ">>"
    USHR = ">>>"

    EOF = "eof"


#: The members of :class:`TokenKind` as plain attributes (``TokenKinds.IDENT
#: is TokenKind.IDENT``), for the lexer and parser: on CPython 3.11 a
#: lookup on the enum class itself runs the enum metaclass's attribute
#: hook, ~10x a plain attribute read (docs/INTERNALS.md §8).
TokenKinds = SimpleNamespace(**TokenKind.__members__)

#: Reserved words mapped to their token kinds.
KEYWORDS: dict[str, TokenKind] = {
    "var": TokenKind.VAR,
    "let": TokenKind.LET,
    "const": TokenKind.CONST,
    "function": TokenKind.FUNCTION,
    "return": TokenKind.RETURN,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "do": TokenKind.DO,
    "for": TokenKind.FOR,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
    "new": TokenKind.NEW,
    "delete": TokenKind.DELETE,
    "typeof": TokenKind.TYPEOF,
    "in": TokenKind.IN,
    "instanceof": TokenKind.INSTANCEOF,
    "this": TokenKind.THIS,
    "null": TokenKind.NULL,
    "undefined": TokenKind.UNDEFINED,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "throw": TokenKind.THROW,
    "try": TokenKind.TRY,
    "catch": TokenKind.CATCH,
    "finally": TokenKind.FINALLY,
    "switch": TokenKind.SWITCH,
    "case": TokenKind.CASE,
    "default": TokenKind.DEFAULT,
}


class Token(NamedTuple):
    """A single lexical token with its source position.

    ``value`` is the decoded payload for literals (the numeric value for
    NUMBER, the unescaped text for STRING) and the spelling for identifiers;
    for fixed-spelling tokens it is the spelling itself.
    """

    kind: TokenKind
    value: object
    position: SourcePosition

    def __str__(self) -> str:
        return f"{self.kind.name}({self.value!r})@{self.position}"
