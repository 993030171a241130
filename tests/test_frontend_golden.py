"""The frontend's output, pinned by a golden.

``tests/golden/frontend.json`` holds, for every checked-in program and
for 40 seeds of each seeded generator in ``tests/test_fuzz_programs.py``:

* the SHA-256 of its token stream (kind name, ``repr`` of the value,
  line and column of every token), and
* the SHA-256 of ``repr`` of the code tuple that ``bytecode/cache.py``
  builds for the compiled, optimized script.  The tuple, not its
  ``marshal`` bytes: those carry back-reference flags that depend on
  object sharing, not on the code.

For ~35 malformed or borderline inputs it holds the error type, message
and position, or the token-stream hash where the input is accepted.  A
change to the lexer or parser must leave every entry as it is.
Regenerate only for an intentional frontend change, and review the
diff::

    RIC_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_frontend_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from repro.bytecode.cache import _code_to_tuple
from repro.bytecode.compiler import compile_source
from repro.bytecode.optimizer import optimize_code
from repro.harness.bench import bench_workloads
from repro.lang.errors import JSLError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from tests.test_fuzz_programs import (
    polymorphic_shape_program,
    property_heavy_program,
    storm_sources,
    type_stable_program,
    type_unstable_program,
)

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden" / "frontend.json"
REGOLD = os.environ.get("RIC_REGOLD") == "1"
SEEDS = range(40)


def _polymorphic(rng: random.Random) -> str:
    degrees = rng.sample([2, 3, 4, 5, 6], rng.randint(2, 4))
    return polymorphic_shape_program(rng, degrees)


def _generated(generator) -> list[tuple[str, str]]:
    return [(f"{seed}.jsl", generator(random.Random(seed))) for seed in SEEDS]


def _storms() -> list[tuple[str, str]]:
    return [
        (f"{seed}-{part}.jsl", source)
        for seed in SEEDS
        for part, source in zip(
            ("lib", "trainer", "storm"), storm_sources(random.Random(seed))
        )
    ]


def _files(directory: Path) -> list[tuple[str, str]]:
    return [(path.name, path.read_text()) for path in sorted(directory.glob("*.jsl"))]


#: Each corpus: a name and a thunk giving its ``(filename, source)`` list.
CORPORA = {
    "bench": lambda: [script for scripts in bench_workloads().values() for script in scripts],
    "jsl_suite": lambda: _files(ROOT / "jsl_suite"),
    "examples": lambda: _files(ROOT.parent / "examples" / "jsl"),
    "fuzz-property_heavy": lambda: _generated(property_heavy_program),
    "fuzz-polymorphic_shape": lambda: _generated(_polymorphic),
    "fuzz-type_stable": lambda: _generated(type_stable_program),
    "fuzz-type_unstable": lambda: _generated(type_unstable_program),
    "fuzz-storm": _storms,
}

#: Malformed and borderline inputs: each is either rejected (the golden
#: holds the error) or accepted (the golden holds its token stream).
MALFORMED = {
    "unterminated-string": 'var s = "abc',
    "unterminated-single-quoted-string": "var s = 'abc",
    "unterminated-block-comment": "var a = 1; /* never closed",
    "raw-newline-in-string": 'var s = "a\nb";',
    "raw-carriage-return-in-string": 'var s = "a\rb";',
    "bad-unicode-escape": 'var s = "\\u00g1";',
    "short-unicode-escape": 'var s = "\\u12";',
    "bad-hex-escape": 'var s = "\\x4g";',
    "hex-escape-at-eof": 'var s = "\\x4',
    "backslash-at-eof": 'var s = "abc\\',
    "continuation-then-eof": 'var s = "abc\\\n',
    "lone-high-surrogate-escape": 'var s = "\\ud800x";',
    "high-surrogate-bad-low-escape": 'var s = "\\ud800\\u00zz";',
    "high-surrogate-then-non-low": 'var s = "\\ud800\\u0041";',
    "raw-lone-surrogate": "var a = \ud800;",
    "hex-without-digits": "var a = 0x;",
    "hex-then-letter": "var a = 0xg;",
    "exponent-without-digits": "var a = 1e;",
    "exponent-sign-without-digits": "var a = 1e+;",
    "fraction-exponent-without-digits": "var a = 1.5e-;",
    "trailing-dot-then-exponent-letter": "var a = 1.e5;",
    "double-dot-member": "var a = 1..toString();",
    "at-sign": "var a = @;",
    "hash": "a # b",
    "form-feed": "var a\f= 1;",
    "no-break-space": "var\u00a0a = 1;",
    "vertical-tab": "var a = 1;\v",
    "missing-rparen": "console.log(1;",
    "missing-semicolon": "var a = 1 var b = 2;",
    "unterminated-block": "function f() {",
    "error-after-multiline-comment": "/* a\nb */ @",
    "error-after-crlf-lines": "a;\r\nb;\r\n  #",
    "error-after-tabs": "\t\t@",
    "error-after-continued-string": 'var s = "a\\\nb"; @',
    "bad-escape-on-third-line": 'var a;\nvar b;\nvar s = "\\x";',
}


def token_digest(tokens) -> str:
    lines = [
        f"{token.kind.name} {token.value!r} {token.position.line} {token.position.column}"
        for token in tokens
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def code_digest(source: str, filename: str) -> str:
    code = compile_source(source, filename)
    optimize_code(code)
    return hashlib.sha256(repr(_code_to_tuple(code, {})).encode("utf-8")).hexdigest()


def program_entry(filename: str, source: str) -> dict:
    return {
        "tokens": token_digest(tokenize(source, filename)),
        "code": code_digest(source, filename),
    }


def malformed_entry(name: str, source: str) -> dict:
    filename = f"{name}.jsl"
    try:
        parse(source, filename)
    except JSLError as error:
        return {
            "error": type(error).__name__,
            "message": error.message,
            "position": str(error.position),
        }
    return {"tokens": token_digest(tokenize(source, filename))}


def check(group: str, actual: dict) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if REGOLD:
        golden[group] = actual
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert group in golden, f"no golden for {group}; run with RIC_REGOLD=1"
    expected = golden[group]
    moved = sorted(
        name for name in set(expected) | set(actual) if expected.get(name) != actual.get(name)
    )
    assert not moved, f"{group}: the frontend's output moved for {moved}"


@pytest.mark.parametrize("group", sorted(CORPORA))
def test_programs_match_golden(group):
    actual = {}
    for filename, source in CORPORA[group]():
        assert filename not in actual, f"duplicate input {filename}"
        actual[filename] = program_entry(filename, source)
    check(group, actual)


def test_malformed_inputs_match_golden():
    check("malformed", {name: malformed_entry(name, source) for name, source in MALFORMED.items()})
