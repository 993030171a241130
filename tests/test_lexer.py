"""Unit tests for the jsl lexer."""

import re

import pytest

from repro.lang.errors import JSLSyntaxError
from repro.lang.lexer import _NAME, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [token.kind for token in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [token.value for token in tokenize(source)][:-1]


class TestNumbers:
    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == 42.0

    def test_decimal(self):
        assert tokenize("3.25")[0].value == 3.25

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_trailing_dot(self):
        assert tokenize("7.")[0].value == 7.0

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0

    def test_negative_exponent(self):
        assert tokenize("25e-2")[0].value == 0.25

    def test_signed_exponent(self):
        assert tokenize("2E+2")[0].value == 200.0

    def test_hex(self):
        assert tokenize("0xFF")[0].value == 255.0

    def test_hex_lowercase(self):
        assert tokenize("0xdeadBEEF")[0].value == float(0xDEADBEEF)

    def test_hex_past_the_double_range_is_infinity(self):
        assert tokenize("0x" + "f" * 300)[0].value == float("inf")

    def test_malformed_hex_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("0x")

    def test_malformed_exponent_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("1e+")


class TestStrings:
    def test_double_quoted(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_single_quoted(self):
        assert tokenize("'world'")[0].value == "world"

    def test_escapes(self):
        assert tokenize(r'"a\nb\tc"')[0].value == "a\nb\tc"

    def test_quote_escape(self):
        assert tokenize(r'"say \"hi\""')[0].value == 'say "hi"'

    def test_unicode_escape(self):
        assert tokenize(r'"A"')[0].value == "A"

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_unknown_escape_passthrough(self):
        assert tokenize(r'"\q"')[0].value == "q"

    def test_unterminated_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize('"a\nb"')

    def test_bad_unicode_escape_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize(r'"\u00g1"')


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        token = tokenize("fooBar_3$")[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "fooBar_3$"

    def test_dollar_identifier(self):
        assert tokenize("$")[0].kind is TokenKind.IDENT

    @pytest.mark.parametrize(
        "word,kind",
        [
            ("var", TokenKind.VAR),
            ("function", TokenKind.FUNCTION),
            ("return", TokenKind.RETURN),
            ("new", TokenKind.NEW),
            ("typeof", TokenKind.TYPEOF),
            ("instanceof", TokenKind.INSTANCEOF),
            ("null", TokenKind.NULL),
            ("undefined", TokenKind.UNDEFINED),
            ("true", TokenKind.TRUE),
            ("false", TokenKind.FALSE),
            ("switch", TokenKind.SWITCH),
            ("finally", TokenKind.FINALLY),
        ],
    )
    def test_keywords(self, word, kind):
        assert tokenize(word)[0].kind is kind

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("variable")[0].kind is TokenKind.IDENT


class TestOperators:
    def test_maximal_munch_shift(self):
        assert kinds("a >>> b") == [TokenKind.IDENT, TokenKind.USHR, TokenKind.IDENT]

    def test_strict_equality(self):
        assert kinds("a === b")[1] is TokenKind.STRICT_EQ

    def test_strict_inequality(self):
        assert kinds("a !== b")[1] is TokenKind.STRICT_NEQ

    def test_increment_vs_plus(self):
        assert kinds("a ++ + b") == [
            TokenKind.IDENT,
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS,
            TokenKind.IDENT,
        ]

    def test_compound_assignment(self):
        assert kinds("a += 1")[1] is TokenKind.PLUS_ASSIGN

    def test_logical_operators(self):
        assert kinds("a && b || !c") == [
            TokenKind.IDENT,
            TokenKind.AND,
            TokenKind.IDENT,
            TokenKind.OR,
            TokenKind.NOT,
            TokenKind.IDENT,
        ]

    def test_unexpected_character_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("a # b")


class TestTriviaAndPositions:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSLSyntaxError):
            tokenize("a /* never closed")

    def test_positions_track_lines_and_columns(self):
        tokens = tokenize("a\n  bb\n    c")
        assert (tokens[0].position.line, tokens[0].position.column) == (1, 1)
        assert (tokens[1].position.line, tokens[1].position.column) == (2, 3)
        assert (tokens[2].position.line, tokens[2].position.column) == (3, 5)

    def test_position_filename(self):
        token = tokenize("x", filename="lib.jsl")[0]
        assert token.position.filename == "lib.jsl"
        assert str(token.position) == "lib.jsl:1:1"

    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_eof_is_idempotent(self):
        tokens = tokenize("  \n\t ")
        assert tokens[-1].kind is TokenKind.EOF


class TestAsciiDigits:
    """Numeric literals take ASCII digits only: any other Unicode digit is
    an unexpected character, where node throws a SyntaxError.  Names keep
    their own rule (``str.isalpha`` to start, ``str.isalnum`` to go on),
    so ``x²`` stays a name although node rejects it."""

    @pytest.mark.parametrize(
        "source, column",
        [
            ("console.log(1 + ²);", 17),
            ("var a = ١; console.log(a);", 9),
            ("var b = 1١;", 10),
            ("var c = 1.²;", 11),
            ("var d = .١;", 10),
        ],
    )
    def test_non_ascii_digit_is_an_unexpected_character(self, source, column):
        with pytest.raises(JSLSyntaxError) as info:
            tokenize(source)
        assert info.value.message == f"unexpected character {source[column - 1]!r}"
        assert info.value.position.column == column

    @pytest.mark.parametrize("name", ["x²", "é", "naïve", "a١", "π", "_٣", "$é"])
    def test_unicode_names_keep_the_identifier_rule(self, name):
        assert [(t.kind, t.value) for t in tokenize(name)][:-1] == [
            (TokenKind.IDENT, name)
        ]

    def test_name_pattern_continues_exactly_on_isalnum(self):
        # The lexer's name pattern relies on `\w` being `str.isalnum()`
        # or `_` for every code point.
        name = re.compile(_NAME)
        wrong = [
            hex(code)
            for code in range(0x80, 0x110000)
            if (name.fullmatch("a" + chr(code)) is not None)
            != chr(code).isalnum()
        ]
        assert wrong == []

    def test_run_cli_exits_with_the_parse_error_code(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_PARSE, main

        for index, source in enumerate(["console.log(1 + ²);", "var a = ١; console.log(a);"]):
            script = tmp_path / f"digits{index}.jsl"
            script.write_text(source, encoding="utf-8")
            assert main([str(script)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("unexpected character") == 2


#: Numeric literals with a leading zero before a digit: legacy octal
#: (``012``) and leading-zero decimals (``08``), both syntax errors in
#: strict-mode JS, node's mode in tests/test_node_oracle.py.
LEADING_ZERO_LITERALS = ["012", "08", "00", "09.5", "08e1", "0123e1", "00.5"]


class TestLeadingZero:
    @pytest.mark.parametrize("literal", LEADING_ZERO_LITERALS)
    def test_leading_zero_before_a_digit_raises(self, literal):
        with pytest.raises(JSLSyntaxError) as info:
            tokenize(f"console.log(1, {literal});")
        assert info.value.message == "numeric literal with a leading zero"
        assert info.value.position.column == 16

    @pytest.mark.parametrize(
        "literal, value",
        [("0", 0.0), ("0.5", 0.5), ("0e1", 0.0), ("0x1F", 31.0), (".5", 0.5),
         ("0.", 0.0), ("10", 10.0), ("1e05", 1e5), ("100.05", 100.05)],
    )
    def test_other_zeros_are_numbers(self, literal, value):
        assert values(literal) == [value]

    def test_numeric_strings_keep_leading_zeros(self):
        from tests.helpers import console_of

        assert console_of('console.log(Number("012"), "08" * 1);') == ["12 8"]

    def test_run_cli_exits_with_the_parse_error_code(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_PARSE, main

        script = tmp_path / "octal.jsl"
        script.write_text("console.log(012, 08);\n", encoding="utf-8")
        assert main([str(script)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "octal.jsl:1:13: numeric literal with a leading zero" in captured.err
