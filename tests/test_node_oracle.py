"""node re-derives the checked-in node expectations.

Every node-expectation table in ``tests/test_edge_cases.py`` holds the
lines node prints for its programs, so tier-1 needs no node.  This file
runs the same programs through ``node`` and asserts that it still prints
those lines.  Each program runs under ``"use strict"``, with a
``console.log`` that joins ``String(x)`` of its arguments with spaces,
which is how jsl's ``console.log`` formats.  It also checks that node
rejects the inputs the lexer rejects as non-ASCII digits or leading-zero
literals, and the one name jsl accepts where node does not
(``docs/JSL_LANGUAGE.md``).

The whole file skips when ``node`` is not on PATH::

    PYTHONPATH=src python -m pytest tests/test_node_oracle.py
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from tests.test_edge_cases import (
    _ARRAY_LENGTH_CASES,
    _BUILTIN_RESULT_CASES,
    _DIVISION_CASES,
    _KEYED_KEY_CASES,
    _NUMBER_STRINGS,
    _NUMERIC_ARGUMENT_CASES,
    _OWN_ELEMENT_CASES,
    _POSITION_ARGUMENT_CASES,
    _STRING_TO_NUMBER_CASES,
    _TRIM_CASES,
    division_sources,
    number_sources,
    numeric_argument_source,
)
from tests.test_lexer import LEADING_ZERO_LITERALS

NODE = shutil.which("node")
pytestmark = pytest.mark.skipif(NODE is None, reason="node is not on PATH")

PRELUDE = (
    '"use strict";\n'
    "console.log = function () {\n"
    '  process.stdout.write(Array.prototype.map.call(arguments, String).join(" ") + "\\n");\n'
    "};\n"
)


def node(source: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [NODE, "-"],
        input=PRELUDE + source,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )


def node_lines(source: str) -> list[str]:
    result = node(source)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def _cases() -> list:
    """``(id, source, expected lines)`` for every table."""
    cases = []
    for literal, expected in _NUMBER_STRINGS:
        for form, source in zip(("value", "key"), number_sources(literal)):
            cases.append((f"number-{form}-{literal}", source, [expected]))
    for template, operands, expected in _DIVISION_CASES:
        for form, source in zip(("variables", "literals"), division_sources(template, operands)):
            cases.append((f"division-{form}-{template.format(*operands)}", source, [expected]))
    for table, prefix in (
        (_KEYED_KEY_CASES, "keyed"),
        (_ARRAY_LENGTH_CASES, "array-length"),
        (_OWN_ELEMENT_CASES, "own-element"),
    ):
        for name, (source, expected) in sorted(table.items()):
            cases.append((f"{prefix}-{name}", source, expected))
    for table, prefix in (
        (_STRING_TO_NUMBER_CASES, "string-to-number"),
        (_TRIM_CASES, "trim"),
        (_BUILTIN_RESULT_CASES, "builtin-result"),
    ):
        for expression, expected in table:
            cases.append((f"{prefix}-{expression}", f"console.log({expression});", [expected]))
    for table, prefix in (
        (_NUMERIC_ARGUMENT_CASES, "numeric-argument"),
        (_POSITION_ARGUMENT_CASES, "position-argument"),
    ):
        for expression, expected in table:
            cases.append((f"{prefix}-{expression}", numeric_argument_source(expression), [expected]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("source, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_node_prints_the_checked_in_lines(source, expected):
    assert node_lines(source) == expected


@pytest.mark.parametrize("source", ["console.log(1 + ²);", "var a = ١; console.log(a);"])
def test_node_rejects_non_ascii_digits(source):
    result = node(source)
    assert result.returncode != 0
    assert "SyntaxError" in result.stderr


@pytest.mark.parametrize("literal", LEADING_ZERO_LITERALS)
def test_node_rejects_leading_zero_literals(literal):
    result = node(f"console.log(1, {literal});")
    assert result.returncode != 0
    assert "SyntaxError" in result.stderr


def test_node_rejects_a_name_jsl_accepts():
    result = node("var x² = 1; console.log(x²);")
    assert result.returncode != 0
    assert "SyntaxError" in result.stderr
