"""Focused edge-case tests across sparse corners of the system."""

import pytest

from repro.bytecode.compiler import compile_source
from repro.bytecode.opcodes import Op
from repro.bytecode.optimizer import optimize_code
from repro.core.engine import Engine
from repro.lang.errors import JSLSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.runtime.values import number_to_string

from tests.helpers import console_of, eval_jsl, run_jsl


class TestLexerCorners:
    def test_number_then_member_access(self):
        # `1.` keeps the dot for member access when followed by an identifier.
        tokens = tokenize("1.x")
        assert [t.kind for t in tokens[:3]] == [
            TokenKind.NUMBER,
            TokenKind.DOT,
            TokenKind.IDENT,
        ]

    def test_lone_zero(self):
        assert tokenize("0")[0].value == 0.0

    def test_number_at_eof_with_exponent_marker_absent(self):
        assert tokenize("12")[0].value == 12.0

    def test_surrogate_pair_combines(self):
        token = tokenize('"\\ud800\\udc00"')[0]
        assert token.value == "\U00010000"

    def test_lone_high_surrogate_kept(self):
        token = tokenize('"\\ud800x"')[0]
        assert token.value == "\ud800x"

    def test_line_continuation_in_string(self):
        assert tokenize('"a\\\nb"')[0].value == "ab"


#: Number literals and the text node prints for them.
_NUMBER_STRINGS = [
    ("1e-7", "1e-7"),
    ("0.000001", "0.000001"),
    ("0.00001", "0.00001"),
    ("1.5e-7", "1.5e-7"),
    ("-1e-7", "-1e-7"),
    ("123456789012345680000", "123456789012345680000"),
    ("1152921504606846976", "1152921504606847000"),
    ("1e21", "1e+21"),
    ("1e300", "1e+300"),
    ("5e-324", "5e-324"),
    ("0.30000000000000004", "0.30000000000000004"),
]


def number_sources(literal: str) -> "tuple[str, str]":
    """The programs that print ``literal``: as a value, and as the key it
    names."""
    return (
        f"console.log({literal});",
        f"var o = {{}}; o[{literal}] = 1; for (var k in o) console.log(k);",
    )


class TestNumberFormatting:
    def test_huge_integral_numbers_keep_repr(self):
        # From 1e21 on, JS switches to exponent form.
        assert number_to_string(1e22) == "1e+22"

    def test_negative_zero(self):
        assert number_to_string(-0.0) == "0"

    def test_string_number_roundtrip_in_guest(self):
        assert console_of("console.log(0.1 + 0.2 === 0.3, 0.5 + 0.25);") == [
            "false 0.75"
        ]

    @pytest.mark.parametrize("literal, expected", _NUMBER_STRINGS)
    def test_console_log_prints_like_node(self, literal, expected):
        assert console_of(number_sources(literal)[0]) == [expected]

    @pytest.mark.parametrize("literal, expected", _NUMBER_STRINGS)
    def test_number_keyed_property_name(self, literal, expected):
        assert console_of(number_sources(literal)[1]) == [expected]


#: ``/`` and ``%`` corners with the results node prints.  ``{0}``, ``{1}``
#: are the operands: variables for the VM, literals for the constant folder.
_DIVISION_CASES = [
    ("{0} / {1}", ("1", "-0"), "-Infinity"),
    ("{0} / {1}", ("-1", "-0"), "Infinity"),
    ("{0} / {1}", ("0", "-0"), "NaN"),
    ("{0} / {1}", ("(0 / 0)", "0"), "NaN"),
    ("1 / ({0} / {1})", ("-1", "(1 / 0)"), "-Infinity"),
    ("{0} % {1}", ("(1 / 0)", "2"), "NaN"),
    ("{0} % {1}", ("5", "(1 / 0)"), "5"),
    ("{0} % {1}", ("1e17", "3"), "1"),
    ("1 / ({0} % {1})", ("-1", "1"), "-Infinity"),
    ("1 / ({0} % {1})", ("-0", "5"), "-Infinity"),
    ("{0} % {1}", ("-5", "3"), "-2"),
    ("{0} % {1}", ("5.5", "-2"), "1.5"),
    ("{0} % {1}", ("7", "-0"), "NaN"),
    ("{0} % {1}", ("(0 / 0)", "2"), "NaN"),
    ("{0} % {1}", ("5", "(0 / 0)"), "NaN"),
]


def division_sources(template: str, operands: "tuple[str, ...]") -> "tuple[str, str]":
    """The programs that print one division case: operands in variables,
    and operands as literals."""
    names = [f"v{i}" for i in range(len(operands))]
    declarations = "".join(f"var {n} = {o}; " for n, o in zip(names, operands))
    return (
        f"{declarations}console.log({template.format(*names)});",
        f"console.log({template.format(*operands)});",
    )


class TestDivisionAndRemainder:
    @pytest.mark.parametrize("template, operands, expected", _DIVISION_CASES)
    def test_operands_in_variables(self, template, operands, expected):
        source = division_sources(template, operands)[0]
        assert console_of(source) == [expected]

    @pytest.mark.parametrize("template, operands, expected", _DIVISION_CASES)
    def test_literal_operands_fold(self, template, operands, expected):
        source = division_sources(template, operands)[1]
        code = compile_source(source, "fold.jsl")
        optimize_code(code)
        assert Op.BINARY not in [op for op, _, _ in code.instructions]
        assert Engine(seed=1).run(source).console_output == [expected]


#: Keyed access with keys at the edge of "element index", and what node
#: prints for each.  A key is an element index only if it is an integral
#: number in [0, 2**31) or the canonical ASCII decimal string of one.
_KEYED_KEY_CASES = {
    "non_finite_keys": (
        """
        var s = "abc";
        console.log(s[0 / 0], s[1 / 0], s[-1 / 0]);
        var o = {};
        o[1 / 0] = 1;
        o[0 / 0] = 2;
        o[-1 / 0] = 3;
        console.log(o["Infinity"], o[1 / 0], o["NaN"], o[0 / 0], o["-Infinity"], o[-1 / 0]);
        console.log([1, 2][1 / 0], [1, 2][0 / 0], [1, 2][-1 / 0]);
        var caught = "no";
        try { o[1 / 0] = 4; } catch (e) { caught = "yes"; }
        console.log(caught, o["Infinity"]);
        """,
        [
            "undefined undefined undefined",
            "1 1 2 2 3 3",
            "undefined undefined undefined",
            "no 4",
        ],
    ),
    "non_ascii_digit_keys": (
        """
        var o = {};
        o["²"] = 1;
        console.log(o["²"], delete o["²"], o["²"]);
        var a = [];
        a["١"] = 7;
        console.log(a.length, a[1], a["١"]);
        console.log(a.hasOwnProperty("١"), a.hasOwnProperty("²"), "²" in a, "١" in a, "01" in [5, 6]);
        var lit = {"١": 7, "²": 8, "05": 9, "5": 10};
        console.log(lit[1], lit["١"], lit["²"], lit[5], lit["05"]);
        """,
        [
            "1 true undefined",
            "0 undefined 7",
            "true false false true false",
            "undefined 7 8 10 9",
        ],
    ),
    "string_keys_past_the_index_bound": (
        """
        var b = {};
        b["2147483648"] = 1;
        b[2147483647] = 2;
        console.log(b[2147483648], b["2147483648"], b["2147483647"], b[2147483647]);
        """,
        ["1 1 2 2"],
    ),
    "string_receiver_numeric_string_keys": (
        """
        var s = "abc";
        console.log(s["1"], s["01"], s["3"], s["length"]);
        console.log(s[1], s[-0], s["-0"], s[1.5], s["0"], s[" 1"]);
        """,
        ["b undefined undefined 3", "b a undefined undefined a undefined"],
    ),
    "primitive_receivers": (
        """
        var n = 5;
        console.log(n[0], n["toFixed"] === n.toFixed, true["x"], n["1"]);
        var caught = [];
        try { var u; u[0]; } catch (e) { caught.push(e.message); }
        try { var z = null; z["k"] = 1; } catch (e) { caught.push(e.message); }
        console.log(caught.join(" | "));
        """,
        [
            "undefined true undefined undefined",
            "Cannot read properties of undefined (reading '0') | "
            "Cannot set properties of null (setting 'k')",
        ],
    ),
}


class TestKeyedKeys:
    @pytest.mark.parametrize("case", sorted(_KEYED_KEY_CASES))
    def test_prints_like_node(self, case):
        source, expected = _KEYED_KEY_CASES[case]
        assert console_of(source) == expected


#: Array ``length`` writes, each with the lines node prints.  A named
#: store must set the virtual length (not define a shadowed own
#: property), and every path converts the value the same way: a value
#: that is not a uint32 is a catchable RangeError and changes nothing.
_ARRAY_LENGTH_CASES = {
    "named_store_truncates": (
        """
        var a = [1, 2, 3];
        a.length = 0;
        a.push(9);
        console.log(a.length, a[0], a.join("-"));
        """,
        ["1 9 9"],
    ),
    "named_store_grows": (
        "var a = [1, 2, 3]; a.length = 5; console.log(a.length);",
        ["5"],
    ),
    "named_store_site_installs_no_handler": (
        """
        var out = [];
        for (var i = 0; i < 4; i++) { var a = [1, 2, 3, 4]; a.length = i; out.push(a.length); }
        console.log(out.join(","));
        """,
        ["0,1,2,3"],
    ),
    "invalid_lengths_throw": (
        """
        function attempt(set) {
            var a = [1, 2, 3];
            try { set(a); console.log("no error", a.length); }
            catch (e) { console.log(e.name, e.message, a.length); }
        }
        attempt(function (a) { a.length = -1; });
        attempt(function (a) { a["length"] = -1; });
        attempt(function (a) { a["length"] = 1.5; });
        attempt(function (a) { a["length"] = 1 / 0; });
        attempt(function (a) { a["length"] = "2"; });
        """,
        [
            "RangeError Invalid array length 3",
            "RangeError Invalid array length 3",
            "RangeError Invalid array length 3",
            "RangeError Invalid array length 3",
            "no error 2",
        ],
    ),
    "array_constructor_lengths": (
        """
        var made = [];
        try { new Array(-1); } catch (e) { made.push(e.name); }
        try { Array(2.5); } catch (e) { made.push(e.name); }
        try { new Array(1 / 0); } catch (e) { made.push(e.name); }
        console.log(made.join(" "));
        console.log(new Array(3).length, Array(0).length, new Array(2, 3).length);
        """,
        ["RangeError RangeError RangeError", "3 0 2"],
    ),
}


class TestArrayLength:
    @pytest.mark.parametrize("case", sorted(_ARRAY_LENGTH_CASES))
    def test_prints_like_node(self, case):
        source, expected = _ARRAY_LENGTH_CASES[case]
        assert console_of(source) == expected


#: ``in`` and ``hasOwnProperty`` on element keys, with what node prints.
#: Both ask one own-element test: an array's dense part, then the sparse
#: elements; ``in`` asks it at each object of the prototype chain.
_OWN_ELEMENT_CASES = {
    "object_literal_elements": (
        'var o = {1: "a"}; console.log(1 in o, "1" in o, 2 in o, o.hasOwnProperty(1));',
        ["true true false true"],
    ),
    "stored_element": (
        "var o = {}; o[7] = 1; console.log(7 in o, o.hasOwnProperty(\"7\"));",
        ["true true"],
    ),
    "inherited_element": (
        """
        function F() {}
        F.prototype[3] = 1;
        var f = new F();
        console.log(3 in f, f.hasOwnProperty(3), 4 in f);
        """,
        ["true false false"],
    ),
    "sparse_array_element": (
        """
        var b = [1, 2];
        b[40] = 5;
        console.log(40 in b, 39 in b, b.hasOwnProperty(40), 1 in b, b.hasOwnProperty(1));
        """,
        ["true false true true true"],
    ),
}


class TestOwnElements:
    @pytest.mark.parametrize("case", sorted(_OWN_ELEMENT_CASES))
    def test_prints_like_node(self, case):
        source, expected = _OWN_ELEMENT_CASES[case]
        assert console_of(source) == expected


#: String-to-number conversions, with what node prints: ``Number`` and
#: the arithmetic operators take the whole string (trimmed of JS white
#: space) as a StrDecimalLiteral or an unsigned 0x/0o/0b integer,
#: ``parseFloat`` the longest StrDecimalLiteral prefix, and ``parseInt``
#: the ASCII digits of a radix that ToInt32 makes 0 (10) or 2-36.
_STRING_TO_NUMBER_CASES = [
    ('Number("1_000")', "NaN"),
    ('Number("١٢")', "NaN"),
    ('Number("INFINITY")', "NaN"),
    ('"3" - "inf"', "NaN"),
    ('Number("-0x10")', "NaN"),
    (r'Number("\ufeff5")', "5"),
    ('Number("0b11")', "3"),
    ('Number("0o17")', "15"),
    ('parseFloat("١")', "NaN"),
    ('parseFloat("Infinityx")', "Infinity"),
    ('parseFloat("1e")', "1"),
    ('parseInt("0x1_0")', "1"),
    ('parseInt("5", 0 / 0)', "5"),
    ('parseInt("5", 1 / 0)', "5"),
    ('parseInt("10", 37)', "NaN"),
    ('Number("012")', "12"),
]

#: ``String.prototype.trim`` strips StrWhiteSpaceChar: U+FEFF and the
#: other JS white space and line terminators, but not U+001C-U+001F or
#: U+0085, which Python's ``str.strip()`` also strips.
_TRIM_CASES = [
    (r'"\ufeffa".trim().length', "1"),
    (r'"\x1ca".trim().length', "2"),
    (r'"\u0085a".trim().length', "2"),
    (r'"\u3000\t a \u2028\xa0".trim()', "a"),
]


#: Builtins that take an integer argument (ToIntegerOrInfinity), with
#: NaN and infinite arguments, and ``Math`` functions at their
#: non-finite and overflowing corners, with what node prints.  Strings print as
#: lengths or char codes and errors as ``e.name``, so every line is
#: printable.
_NUMERIC_ARGUMENT_CASES = [
    ('"abc".charAt(1 / 0).length', "0"),
    ('"abc".charAt(0 / 0)', "a"),
    ('"abc".charCodeAt(0 / 0)', "97"),
    ("String.fromCharCode(1 / 0).charCodeAt(0)", "0"),
    ("String.fromCharCode(-1).charCodeAt(0)", "65535"),
    ("String.fromCharCode(65601)", "A"),
    ('"ab".substring(1 / 0).length', "0"),
    ('"abc".slice(-1 / 0)', "abc"),
    ('"ab".indexOf("b", 1 / 0)', "-1"),
    ('"ab".indexOf("a", -1)', "0"),
    ('"ab".indexOf("", 5)', "2"),
    ("[1, 2, 3].slice(1 / 0).length", "0"),
    ("(1.5).toFixed(1 / 0)", "RangeError"),
    ("(1.5).toFixed(-1)", "RangeError"),
    ("(0 / 0).toFixed(2)", "NaN"),
    ("(1e21).toFixed(2)", "1e+21"),
    ('"a".repeat(1 / 0)', "RangeError"),
    ('"a".repeat(-1)', "RangeError"),
    ('"abc".repeat(0 / 0).length', "0"),
    ('"a".padStart(1 / 0)', "RangeError"),
    ('"a".padEnd(-1 / 0)', "a"),
    ("Math.round(1 / 0)", "Infinity"),
    ("Math.floor(1 / 0)", "Infinity"),
    ("Math.ceil(1 / 0)", "Infinity"),
    ("Math.floor(0 / 0)", "NaN"),
    ("Math.trunc(-1 / 0)", "-Infinity"),
    ("Math.pow(-8, 1 / 3)", "NaN"),
    ("Math.pow(0, -1)", "Infinity"),
    ("Math.pow(-0, -3)", "-Infinity"),
    ("Math.pow(10, 400)", "Infinity"),
    ("Math.pow(-10, 401)", "-Infinity"),
    ("Math.pow(1, 1 / 0)", "NaN"),
    ("Math.exp(1000)", "Infinity"),
    ("Math.sin(1 / 0)", "NaN"),
    ("Math.cos(-1 / 0)", "NaN"),
]


#: Builtins whose result Python's own functions get wrong: ``max`` and
#: ``min`` keep an operand a NaN compares false against, ``round`` rounds
#: ties to even, ``floor(x + 0.5)`` rounds 0.49999999999999994 up, and
#: ``rjust``/``ljust`` fill with one character.  Signed zeros print
#: through ``1 / x``: node's ``console.log`` prints ``-0``.
_BUILTIN_RESULT_CASES = [
    ("Math.max(1, 0 / 0)", "NaN"),
    ("Math.min(1, 0 / 0)", "NaN"),
    ("Math.min(0 / 0, 1)", "NaN"),
    ('Math.max(1, "x")', "NaN"),
    ("Math.max(1, 3, 2)", "3"),
    ("Math.max()", "-Infinity"),
    ("Math.min()", "Infinity"),
    ("1 / Math.min(0, -0)", "-Infinity"),
    ("1 / Math.max(-0, 0)", "Infinity"),
    ("Math.round(0.49999999999999994)", "0"),
    ("Math.round(2.5)", "3"),
    ("Math.round(-2.5)", "-2"),
    ("Math.round(-2.6)", "-3"),
    ("Math.round(4503599627370497)", "4503599627370497"),
    ("1 / Math.round(-0.2)", "-Infinity"),
    ("(2.5).toFixed(0)", "3"),
    ("(0.5).toFixed(0)", "1"),
    ("(-2.5).toFixed(0)", "-3"),
    ("(0.125).toFixed(2)", "0.13"),
    ("(-0).toFixed(2)", "0.00"),
    ("(1.005).toFixed(2)", "1.00"),
    ("(-0.0001).toFixed(2)", "-0.00"),
    ("(0.000001).toFixed(7)", "0.0000010"),
    ("(123.456).toFixed(10)", "123.4560000000"),
    ('"5".padStart(4, "ab")', "aba5"),
    ('"5".padEnd(4, "ab")', "5aba"),
    ('"x".padStart(3, "")', "x"),
    ('"ab".padStart(7, "xyz")', "xyzxyab"),
    ('"abc".padEnd(2, "z")', "abc"),
    ('"[" + "a".padEnd(3) + "]"', "[a  ]"),
]


#: Builtins at their position, limit and radix arguments, with what node
#: prints: ``indexOf``/``lastIndexOf`` start at ``fromIndex`` (counted
#: from the end when negative; an explicit undefined is 0 for
#: ``lastIndexOf``), ``split`` keeps ToUint32(limit) parts, and
#: ``toString`` writes the radix's digits (a fraction up to the double's
#: precision).  The string searches read an absent search string, and
#: ``replace`` an absent replacement, as ``"undefined"``;
#: ``startsWith``/``includes`` start at ``position`` and ``endsWith``
#: ends at ``endPosition``, clamped to the string.  Printed like
#: ``_NUMERIC_ARGUMENT_CASES``.
_POSITION_ARGUMENT_CASES = [
    ("[1, 2, 1].indexOf(1, 1)", "2"),
    ("[1, 2, 1].indexOf(1, -1)", "2"),
    ("[1, 2, 1].indexOf(1, -5)", "0"),
    ("[1, 2, 1].indexOf(1, -1 / 0)", "0"),
    ("[1, 2, 3].indexOf(2, 1 / 0)", "-1"),
    ("[1, 2, 1].lastIndexOf(1, 1)", "0"),
    ("[1, 2, 1].lastIndexOf(1, -2)", "0"),
    ("[1, 2, 1].lastIndexOf(1, -5)", "-1"),
    ("[1, 2, 1].lastIndexOf(1, 1 / 0)", "2"),
    ("[1, 2, 1].lastIndexOf(1, undefined)", "0"),
    ("[1, 2, 1].lastIndexOf(1)", "2"),
    ("[1, 2, 3].lastIndexOf(2, -1 / 0)", "-1"),
    ('"abcabc".lastIndexOf("b", 3)', "1"),
    ('"abcabc".lastIndexOf("b", -5)', "-1"),
    ('"abcabc".lastIndexOf("b", 1 / 0)', "4"),
    ('"abcabc".lastIndexOf("b", 0 / 0)', "4"),
    ('"abcabc".lastIndexOf("bc", 4)', "4"),
    ('"abcabc".lastIndexOf("", 2)', "2"),
    ('"undefined".indexOf()', "0"),
    ('"xundefined".lastIndexOf()', "1"),
    ('"undefined".includes()', "true"),
    ('"undefinedx".startsWith()', "true"),
    ('"xundefined".endsWith()', "true"),
    ('"a".replace("a")', "undefined"),
    ('"abc".startsWith("b", 1)', "true"),
    ('"abc".startsWith("a", -1)', "true"),
    ('"abc".startsWith("c", 1 / 0)', "false"),
    ('"abc".endsWith("b", 2)', "true"),
    ('"abc".endsWith("c", 99)', "true"),
    ('"abc".endsWith("a", 0 / 0)', "false"),
    ('"abc".endsWith("c", undefined)', "true"),
    ('"abc".includes("a", 1)', "false"),
    ('"abc".includes("c", 1 / 0)', "false"),
    ('"abc".includes("a", -5)', "true"),
    ('"a,b,c".split(",", 2).join("|")', "a|b"),
    ('"a,b,c".split(",", 0).length', "0"),
    ('"abc".split("", 2).length', "2"),
    ('"a,b".split(",", 1 / 0).length', "0"),
    ('"a,b,c".split(",", 4294967298).length', "2"),
    ('"a,b,c".split(",", -1).length', "3"),
    ('"a,b,c".split(",", undefined).length', "3"),
    ('"abc".split(undefined, 0).length', "0"),
    ("(255).toString(16)", "ff"),
    ("(255).toString(2)", "11111111"),
    ("(-255).toString(36)", "-73"),
    ("(255).toString(16.9)", "ff"),
    ("(255).toString(undefined)", "255"),
    ("(255).toString(1)", "RangeError"),
    ("(255).toString(37)", "RangeError"),
    ("(255).toString(0 / 0)", "RangeError"),
    ("(0 / 0).toString(2)", "NaN"),
    ("(1 / 0).toString(16)", "Infinity"),
    ("(-1 / 0).toString(36)", "-Infinity"),
    ("(-0).toString(2)", "0"),
    ("(0.5).toString(2)", "0.1"),
    ("(-0.75).toString(2)", "-0.11"),
    ("(0.1).toString(3)", "0.0022002200220022002200220022002201"),
    ("(3.141592653589793).toString(16)", "3.243f6a8885a3"),
    ("(1e21).toString(7)", "5135235413265003022600000"),
]


def numeric_argument_source(expression: str) -> str:
    return f"try {{ console.log({expression}); }} catch (e) {{ console.log(e.name); }}"


class TestNumericArguments:
    @pytest.mark.parametrize("expression, expected", _NUMERIC_ARGUMENT_CASES)
    def test_prints_like_node(self, expression, expected):
        assert console_of(numeric_argument_source(expression)) == [expected]

    def test_runtime_truncates_numbers_in_one_place(self):
        """Every integer argument goes through ``to_integer_or_infinity``:
        a bare ``int(to_number(...))`` raises on NaN and the infinities."""
        from pathlib import Path

        runtime = Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
        offenders = [
            path.name
            for path in sorted(runtime.rglob("*.py"))
            if "int(to_number(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestPositionArguments:
    @pytest.mark.parametrize("expression, expected", _POSITION_ARGUMENT_CASES)
    def test_prints_like_node(self, expression, expected):
        assert console_of(numeric_argument_source(expression)) == [expected]


class TestBuiltinResults:
    @pytest.mark.parametrize("expression, expected", _BUILTIN_RESULT_CASES)
    def test_prints_like_node(self, expression, expected):
        assert console_of(f"console.log({expression});") == [expected]


class TestStringToNumber:
    @pytest.mark.parametrize("expression, expected", _STRING_TO_NUMBER_CASES)
    def test_prints_like_node(self, expression, expected):
        assert console_of(f"console.log({expression});") == [expected]


class TestTrim:
    @pytest.mark.parametrize("expression, expected", _TRIM_CASES)
    def test_prints_like_node(self, expression, expected):
        assert console_of(f"console.log({expression});") == [expected]


class TestGuestSemanticsCorners:
    def test_empty_function_call_expression_statement(self):
        assert run_jsl("(function () {})();").console == []

    def test_object_with_numeric_literal_keys(self):
        assert console_of("var o = {1: 'one', 2: 'two'}; console.log(o[1], o['2']);") == [
            "one two"
        ]

    def test_chained_new(self):
        src = """
        function Wrapper(v) { this.v = v; }
        Wrapper.prototype.unwrap = function () { return this.v; };
        console.log(new Wrapper(new Wrapper(7).unwrap()).unwrap());
        """
        assert console_of(src) == ["7"]

    def test_array_of_functions_invoked_by_index(self):
        src = """
        var ops = [
          function (a, b) { return a + b; },
          function (a, b) { return a * b; }
        ];
        console.log(ops[0](2, 3), ops[1](2, 3));
        """
        assert console_of(src) == ["5 6"]

    def test_deeply_nested_object_literals(self):
        src = "var o = {a:{b:{c:{d:{e: 5}}}}}; console.log(o.a.b.c.d.e);"
        assert console_of(src) == ["5"]

    def test_for_in_mutation_during_iteration_is_safe(self):
        # The iterator snapshots keys; additions during iteration are not
        # visited (documented behaviour; JS leaves this implementation-defined).
        src = """
        var o = {a: 1, b: 2};
        var visited = [];
        for (var k in o) { visited.push(k); o["new_" + k] = 0; }
        console.log(visited.join(","));
        """
        assert console_of(src) == ["a,b"]

    def test_function_expression_name_visible_inside_only(self):
        src = """
        var f = function named() { return typeof named; };
        console.log(f(), typeof named);
        """
        out = console_of(src)
        # The inner binding of a named function expression is not implemented
        # as a self-reference in jsl; both resolve via normal scoping.
        assert out[0].endswith("undefined")

    def test_sparse_array_join_skips_holes(self):
        assert console_of("var a = []; a[2] = 'x'; console.log(a.join('-'));") == [
            "--x"
        ]

    def test_string_comparison_is_lexicographic(self):
        assert eval_jsl("'apple' < 'banana'") is True
        assert eval_jsl("'Z' < 'a'") is True  # uppercase sorts first

    def test_instanceof_after_prototype_swap(self):
        src = """
        function C() {}
        var before = new C();
        C.prototype = {};
        console.log(before instanceof C, new C() instanceof C);
        """
        assert console_of(src) == ["false true"]

    def test_megamorphic_store_site_remains_correct(self):
        src = """
        function setV(o, v) { o.v = v; }
        var shapes = [
          {}, {a: 0}, {b: 0}, {c: 0}, {d: 0}, {e: 0}
        ];
        for (var i = 0; i < shapes.length; i++) { setV(shapes[i], i); }
        var total = 0;
        for (var j = 0; j < shapes.length; j++) { total += shapes[j].v; }
        console.log(total);
        """
        assert console_of(src) == ["15"]

    def test_exception_in_native_callback_propagates(self):
        src = """
        var msg = "";
        try {
          [1, 2, 3].forEach(function (v) { if (v === 2) throw "stop@" + v; });
        } catch (e) { msg = e; }
        console.log(msg);
        """
        assert console_of(src) == ["stop@2"]


class TestEngineCorners:
    def test_empty_script(self, engine):
        profile = engine.run("", name="empty")
        assert profile.console_output == []
        assert profile.counters.ic_accesses == 0

    def test_comment_only_script(self, engine):
        profile = engine.run("// nothing here\n/* at all */", name="c")
        assert profile.console_output == []

    def test_record_of_empty_script_is_harmless(self, engine):
        engine.run("", name="empty")
        record = engine.extract_icrecord()
        profile = engine.run("var o = {a: 1}; console.log(o.a);", name="real", icrecord=record)
        assert profile.console_output == ["1"]

    def test_same_script_twice_in_one_workload(self, engine):
        scripts = [("a.jsl", "counterG = (typeof counterG === 'number' ? counterG : 0) + 1;")] * 2
        profile = engine.run(
            scripts + [("b.jsl", "console.log(counterG);")], name="twice"
        )
        assert profile.console_output == ["2"]

    def test_parse_error_position_reported(self, engine):
        with pytest.raises(JSLSyntaxError) as exc_info:
            engine.run([("bad.jsl", "var x = 1;\nvar = ;")], name="bad")
        assert exc_info.value.position.line == 2

    def test_unicode_identifiers_not_supported_but_strings_are(self, engine):
        profile = engine.run('console.log("héllo wörld \\u00e9");', name="u")
        assert profile.console_output == ["héllo wörld é"]


class TestHarnessReportingCorners:
    def test_render_table_handles_ints_floats_strings(self):
        from repro.harness.reporting import render_table

        text = render_table(
            "T",
            [("A", "a"), ("B", "b"), ("C", "c")],
            [{"a": 1, "b": 2.5, "c": "x"}],
        )
        assert "2.50" in text and "x" in text

    def test_render_bars_empty_rows(self):
        from repro.harness.reporting import render_bars

        text = render_bars("B", [], value_key="v")
        assert text.startswith("B")

    def test_memory_overhead_zero_heap(self):
        from repro.ric.icrecord import ICRecord
        from repro.stats.memory import MemoryOverhead

        overhead = MemoryOverhead(icrecord_bytes=10, heap_bytes=0)
        assert overhead.overhead_fraction == 0.0
        del ICRecord


class TestReceiverBinding:
    def test_keyed_method_call_binds_receiver(self):
        src = """
        var obj = {
          tag: "target",
          m: function () { return this.tag; }
        };
        var key = "m";
        console.log(obj[key]());
        """
        assert console_of(src) == ["target"]

    def test_chained_method_calls_rebind_each_step(self):
        src = """
        function Builder() { this.parts = []; }
        Builder.prototype.add = function (p) { this.parts.push(p); return this; };
        Builder.prototype.build = function () { return this.parts.join("-"); };
        console.log(new Builder().add("a").add("b").add("c").build());
        """
        assert console_of(src) == ["a-b-c"]

    def test_call_result_is_not_bound(self):
        src = """
        var holder = {
          name: "holder",
          getFn: function () { return function () { return typeof this; }; }
        };
        console.log(holder.getFn()());
        """
        assert console_of(src) == ["undefined"]

    def test_this_in_nested_function_is_undefined(self):
        src = """
        var o = {
          v: 1,
          outer: function () {
            var self = this;
            function inner() { return [typeof this, self.v]; }
            return inner();
          }
        };
        var r = o.outer();
        console.log(r[0], r[1]);
        """
        assert console_of(src) == ["undefined 1"]
