"""Regex scanner for jsl source code.

One compiled master pattern splits the source into (trivia, token)
pairs in a single call; a loop then classifies each token and gives it
a :class:`~repro.lang.errors.SourcePosition` (the stable identity of
every object access site).  Line and column come from the offsets at
which lines start; columns count code points, ``\\r`` and ``\\t``
included.  Numeric literals use ASCII digits only, and none starts with
``0`` followed by a digit; identifiers start with a ``str.isalpha``
letter, ``_`` or ``$`` and continue with ``str.isalnum`` characters,
``_`` or ``$``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from string import ascii_letters, digits

from repro.lang.errors import JSLSyntaxError, SourcePosition
from repro.lang.tokens import KEYWORDS, Token, TokenKind, TokenKinds

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "\n": "",  # line continuation
}

#: Punctuators and operators are the kinds spelled by their own value.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}
#: Every token whose kind follows from its text alone.
_FIXED = {**KEYWORDS, **_OPERATORS}
#: The kind of any other token, by its first character ("" is the end).
_LEADING = {
    **dict.fromkeys(ascii_letters + "_$", TokenKinds.IDENT),
    **dict.fromkeys(digits + ".", TokenKinds.NUMBER),
    '"': TokenKinds.STRING,
    "'": TokenKinds.STRING,
    "": TokenKinds.EOF,
}


def _string_body(quote: str) -> str:
    """Characters of a string literal up to its closing ``quote``: no raw
    newline, and a backslash escapes any one character."""
    return rf"[^{quote}\\\n]*(?:\\[\s\S][^{quote}\\\n]*)*"


_TRIVIA = r"[ \t\r\n]*(?:(?://[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)[ \t\r\n]*)*"
_NAME = r"(?:[^\W\d]|\$)[\w$]*"
_NUMBER = (
    r"0[xX][0-9a-fA-F]*"
    # A trailing dot belongs to the number unless a name follows (`1.x`).
    r"|(?:[0-9]+(?:\.[0-9]+|\.(?![^\W\d]|\$))?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?"
)
_STRING = "|".join(quote + _string_body(quote) + quote for quote in "\"'")
_OPERATOR = "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
#: (trivia, token) at every offset.  The token alternatives, in order: a
#: name, a number, a whole string literal, the start of an unterminated
#: block comment, an operator (longest first), any other character, and
#: the empty token at the end of the input.  Malformed numbers, a lone
#: quote and ``/*`` are matched so the loop can report them.
_MASTER = re.compile(rf"({_TRIVIA})({_NAME}|{_NUMBER}|{_STRING}|/\*|{_OPERATOR}|[\s\S]|)")
_STRING_PREFIX = {quote: re.compile(_string_body(quote)) for quote in "\"'"}
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def tokenize(source: str, filename: str = "<script>") -> list[Token]:
    """Scan the whole of ``source`` and return its tokens, ending with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    # Offsets at which lines 2, 3, ... start, then one past the end.
    line_starts = list(accumulate(len(text) + 1 for text in source.split("\n")))
    line, line_start, next_line_start = 1, 0, line_starts[0]
    offset = 0
    for trivia, text in _MASTER.findall(source):
        start = offset + len(trivia)
        offset = start + len(text)
        while start >= next_line_start:
            line_start = next_line_start
            next_line_start = line_starts[line]
            line += 1
        position = SourcePosition(filename, line, start - line_start + 1)
        kind = _FIXED.get(text)
        if kind is not None:
            append(Token(kind, text, position))
            continue
        kind = _LEADING.get(text[:1])
        if kind is TokenKinds.IDENT:
            append(Token(kind, text, position))
        elif kind is TokenKinds.NUMBER:
            append(Token(kind, _number(text, position), position))
        elif kind is TokenKinds.STRING:
            append(Token(kind, _string(source, start, text, position), position))
        elif kind is TokenKinds.EOF:
            append(Token(kind, None, position))
            return tokens
        elif text[0].isalpha():
            append(Token(TokenKinds.IDENT, text, position))
        elif text == "/*":
            raise JSLSyntaxError("unterminated block comment", position)
        else:
            raise JSLSyntaxError(f"unexpected character {text[0]!r}", position)
    raise AssertionError("the master pattern always ends with the empty token")


def _number(text: str, position: SourcePosition) -> float:
    if text[1:2] in ("x", "X"):
        if len(text) == 2:
            raise JSLSyntaxError("malformed hex literal", position)
        try:
            return float(int(text, 16))
        except OverflowError:  # past the double range: Infinity, as in JS
            return float("inf")
    if text[0] == "0" and text[1:2].isdigit():
        # Legacy octal (``012``) and leading-zero decimals (``08``) are
        # syntax errors in strict-mode JS.
        raise JSLSyntaxError("numeric literal with a leading zero", position)
    try:
        return float(text)
    except ValueError:  # an exponent marker without digits
        raise JSLSyntaxError("malformed exponent", position) from None


def _string(source: str, start: int, text: str, position: SourcePosition) -> str:
    """The value of the string literal ``text``.  A lone quote opens an
    unterminated one: its escapes are still decoded first, so a bad
    escape is reported ahead of the missing quote, as a left-to-right
    scan would."""
    if len(text) == 1:
        body = _STRING_PREFIX[text].match(source, start + 1).group()
        _unescape(body, position)
        raise JSLSyntaxError("unterminated string literal", position)
    body = text[1:-1]
    return _unescape(body, position) if "\\" in body else body


def _unescape(body: str, position: SourcePosition) -> str:
    parts: list[str] = []
    index = 0
    while True:
        slash = body.find("\\", index)
        if slash < 0:
            parts.append(body[index:])
            return "".join(parts)
        parts.append(body[index:slash])
        escape = body[slash + 1 : slash + 2]
        index = slash + 2
        if escape == "u":
            code = _hex(body, index, 4, "malformed unicode escape", position)
            index += 4
            # A high surrogate escape followed by a low one is one astral
            # code point, as in JS; any other \u after it stands alone.
            if 0xD800 <= code <= 0xDBFF and body.startswith("\\u", index):
                low = _hex(body, index + 2, 4, "malformed unicode escape", position)
                if 0xDC00 <= low <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    index += 6
            parts.append(chr(code))
        elif escape == "x":
            parts.append(chr(_hex(body, index, 2, "malformed hex escape", position)))
            index += 2
        else:
            parts.append(_ESCAPES.get(escape, escape))


def _hex(body: str, index: int, count: int, message: str, position: SourcePosition) -> int:
    digits = body[index : index + count]
    if len(digits) != count or _HEX_DIGITS.fullmatch(digits) is None:
        raise JSLSyntaxError(message, position)
    return int(digits, 16)
