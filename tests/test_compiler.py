"""Tests for the bytecode compiler, disassembler and code cache."""

import hashlib
import json
import marshal
import math
from pathlib import Path

import pytest

from repro.bytecode.cache import (
    CACHE_FORMAT_VERSION,
    MARSHAL_VERSION,
    CodeCache,
    decode_entry,
    encode_entry,
    source_hash,
)
from repro.bytecode.code import CodeObject, SiteKind
from repro.bytecode.compiler import compile_source
from repro.bytecode.disasm import disassemble
from repro.bytecode.opcodes import Op
from repro.bytecode.optimizer import optimize_code
from repro.core.engine import Engine
from repro.lang.errors import JSLCompileError


def ops_of(code):
    return [instruction[0] for instruction in code.instructions]


class TestCompilation:
    def test_toplevel_ends_with_return_undefined(self):
        code = compile_source("var x = 1;")
        assert ops_of(code)[-2:] == [Op.LOAD_UNDEFINED, Op.RETURN]

    def test_determinism(self):
        source = "function f(a) { return a.x + a.y; } var o = {x: 1, y: 2}; f(o);"
        a = compile_source(source, "d.jsl")
        b = compile_source(source, "d.jsl")
        assert a.instructions == b.instructions
        assert [s.site_key for s in a.feedback_slots] == [
            s.site_key for s in b.feedback_slots
        ]

    def test_member_load_allocates_named_load_slot(self):
        code = compile_source("var v = o.prop;")
        kinds = [slot.kind for slot in code.feedback_slots]
        assert SiteKind.NAMED_LOAD in kinds

    def test_member_store_allocates_named_store_slot(self):
        code = compile_source("o.prop = 1;")
        assert SiteKind.NAMED_STORE in [s.kind for s in code.feedback_slots]

    def test_object_literal_props_are_store_sites(self):
        code = compile_source("var o = {a: 1, b: 2};")
        stores = [s for s in code.feedback_slots if s.kind is SiteKind.NAMED_STORE]
        assert {s.name for s in stores} >= {"a", "b"}

    def test_keyed_sites(self):
        code = compile_source("o[k] = o[j];")
        kinds = [s.kind for s in code.feedback_slots]
        assert SiteKind.KEYED_LOAD in kinds and SiteKind.KEYED_STORE in kinds

    def test_global_sites(self):
        code = compile_source("var g = 1; x = g;")
        kinds = [s.kind for s in code.feedback_slots]
        assert SiteKind.GLOBAL_LOAD in kinds and SiteKind.GLOBAL_STORE in kinds

    def test_compound_member_assignment_has_two_distinct_sites(self):
        code = compile_source("o.n += 1;")
        sites = [s for s in code.feedback_slots if s.name == "n"]
        assert {s.kind for s in sites} == {SiteKind.NAMED_LOAD, SiteKind.NAMED_STORE}
        assert len({s.site_key for s in sites}) == 2

    def test_site_keys_unique_within_program(self):
        source = "o.x = o.x + o.x; p.x = 1; function f(q) { return q.x; }"
        code = compile_source(source)
        keys = [
            s.site_key
            for c in code.iter_code_objects()
            for s in c.feedback_slots
        ]
        assert len(keys) == len(set(keys))

    def test_locals_resolved_within_function(self):
        code = compile_source("function f(a) { var b = a; return b; }")
        inner = next(c for c in code.iter_code_objects() if c.name == "f")
        assert inner.local_names[:2] == ["a", "b"]
        assert Op.LOAD_LOCAL in ops_of(inner)
        assert Op.LOAD_GLOBAL not in ops_of(inner)

    def test_free_variables_use_env_ops(self):
        code = compile_source(
            "function outer(x) { return function () { return x; }; }"
        )
        innermost = [c for c in code.iter_code_objects()][-1]
        assert Op.LOAD_ENV in ops_of(innermost)

    def test_nested_code_objects_enumerated(self):
        code = compile_source("function a() { function b() {} } var c = function () {};")
        names = [c.name for c in code.iter_code_objects()]
        assert set(names) >= {"<toplevel>", "a", "b", "<anonymous>"}

    def test_decl_key_stability(self):
        source = "function f() {}"
        a = compile_source(source, "k.jsl")
        b = compile_source(source, "k.jsl")
        fa = next(c for c in a.iter_code_objects() if c.name == "f")
        fb = next(c for c in b.iter_code_objects() if c.name == "f")
        assert fa.decl_key == fb.decl_key

    def test_break_outside_loop_rejected(self):
        with pytest.raises(JSLCompileError):
            compile_source("break;")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(JSLCompileError):
            compile_source("continue;")

    def test_jump_targets_in_range(self):
        source = """
        for (var i = 0; i < 3; i++) { if (i === 1) continue; if (i === 2) break; }
        while (x) { y; }
        do { z; } while (w);
        switch (v) { case 1: break; default: ; }
        """
        code = compile_source(source)
        jump_ops = {
            Op.JUMP,
            Op.JUMP_IF_FALSE,
            Op.JUMP_IF_TRUE,
            Op.JUMP_IF_FALSE_KEEP,
            Op.JUMP_IF_TRUE_KEEP,
            Op.SETUP_TRY,
            Op.FOR_IN_NEXT,
        }
        for op, a, _ in code.instructions:
            if Op(op) in jump_ops:
                assert 0 <= a <= len(code.instructions)


class TestDisassembler:
    def test_mentions_names_and_constants(self):
        code = compile_source("var o = {}; o.x = 42; console.log(o.x);", "d.jsl")
        text = disassemble(code)
        assert "SET_PROP name='x'" in text
        assert "42" in text
        assert "LOAD_GLOBAL name='console'" in text

    def test_recursive_disassembly_includes_nested(self):
        code = compile_source("function f() { return 1; }")
        text = disassemble(code, recursive=True)
        assert "=== f " in text

    def test_every_opcode_renders(self):
        source = """
        var o = {a: [1]};
        function f(x) { return x; }
        try { throw 1; } catch (e) {}
        for (var k in o) { delete o[k]; }
        o.a[0] += new f(1) instanceof f ? 1 : 2;
        var s = typeof missing;
        !o; -1; o && o; o || o;
        do { break; } while (true);
        switch (1) { default: ; }
        """
        code = compile_source(source)
        for nested in code.iter_code_objects():
            assert disassemble(nested)  # must not raise


class TestCodeCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CodeCache(cache_dir=tmp_path)
        assert cache.lookup("a.jsl", "var x = 1;") is None
        code = compile_source("var x = 1;", "a.jsl")
        cache.store("a.jsl", "var x = 1;", code)
        assert cache.lookup("a.jsl", "var x = 1;") is code
        assert cache.misses == 1 and cache.hits == 1

    def test_source_change_invalidates(self, tmp_path):
        cache = CodeCache(cache_dir=tmp_path)
        cache.store("a.jsl", "var x = 1;", compile_source("var x = 1;", "a.jsl"))
        assert cache.lookup("a.jsl", "var x = 2;") is None

    def test_disk_round_trip(self, tmp_path):
        source = "function f(o) { return o.v; } var r = f({v: 3});"
        first = CodeCache(cache_dir=tmp_path)
        code = compile_source(source, "lib.jsl")
        first.store("lib.jsl", source, code)
        second = CodeCache(cache_dir=tmp_path)  # fresh process, same dir
        loaded = second.lookup("lib.jsl", source)
        assert loaded is not None
        assert loaded.instructions == code.instructions
        assert [s.site_key for s in loaded.feedback_slots] == [
            s.site_key for s in code.feedback_slots
        ]

    def test_corrupt_disk_entry_ignored(self, tmp_path):
        source = "var x = 1;"
        cache = CodeCache(cache_dir=tmp_path)
        cache.store("a.jsl", source, compile_source(source, "a.jsl"))
        entries = list(tmp_path.glob(f"*.jslcache.v{CACHE_FORMAT_VERSION}"))
        assert entries
        for path in entries:
            path.write_text("{ not json")
        fresh = CodeCache(cache_dir=tmp_path)
        assert fresh.lookup("a.jsl", source) is None

    def test_entry_round_trip_nested_functions(self):
        source = """
        function outer(a) {
          var captured = a * 2;
          return function inner(b) { return captured + b; };
        }
        """
        code = compile_source(source, "n.jsl")
        restored = decode_entry(encode_entry("n.jsl:k", code), "n.jsl:k")
        originals = list(code.iter_code_objects())
        restoreds = list(restored.iter_code_objects())
        assert len(originals) == len(restoreds)
        for a, b in zip(originals, restoreds):
            assert a.instructions == b.instructions
            assert a.names == b.names
            assert a.local_names == b.local_names
            assert a.decl_key == b.decl_key

    def test_cached_code_executes_identically(self, tmp_path):
        from repro.core.engine import Engine

        source = "function f(o) { return o.v * 2; } console.log(f({v: 21}));"
        engine_a = Engine(seed=1, cache_dir=str(tmp_path))
        out_a = engine_a.run([("s.jsl", source)], name="a").console_output
        engine_b = Engine(seed=2, cache_dir=str(tmp_path))
        out_b = engine_b.run([("s.jsl", source)], name="b").console_output
        assert out_a == out_b == ["42"]
        assert engine_b.code_cache.hits == 1

    def test_source_hash_stable(self):
        assert source_hash("abc") == source_hash("abc")
        assert source_hash("abc") != source_hash("abd")


# -- code cache format 6: damaged entries and the round-trip wall -------------

_SCRIPT = "function f(o) { return o.v * 2; } console.log(f({v: 21}));"
_KEY = f"s.jsl:{source_hash(_SCRIPT)}"
#: Indices into a code tuple, which holds CodeObject fields in order.
_CONSTANTS, _SLOTS = 6, 9


def _retupled(entry, change):
    version, key, code = marshal.loads(entry)
    return marshal.dumps(change(version, key, code), MARSHAL_VERSION)


def _code_field(index, change):
    """Damage the script's code tuple at ``index`` with ``change(value, code)``."""

    def damage(version, key, code):
        value = change(code[index], code)
        return version, key, code[:index] + (value,) + code[index + 1:]

    return lambda entry: _retupled(entry, damage)


_DAMAGE = {
    "empty": lambda entry: b"",
    "truncated": lambda entry: entry[: len(entry) // 2],
    "garbage": lambda entry: bytes(range(256)) * 4,
    "wrong-version": lambda entry: _retupled(
        entry, lambda version, key, code: (version - 1, key, code)
    ),
    "wrong-key": lambda entry: _retupled(
        entry, lambda version, key, code: (version, "other.jsl:0", code)
    ),
    "wrong-arity": lambda entry: _retupled(
        entry, lambda version, key, code: (version, key, code[:-1])
    ),
    "int-constant": _code_field(_CONSTANTS, lambda pool, code: pool + (7,)),
    # A well-formed code tuple, but as a list: only tuples nest.
    "list-constant": _code_field(_CONSTANTS, lambda pool, code: pool + (list(code),)),
    "unknown-slot-kind": _code_field(
        _SLOTS, lambda slots, code: (("bogus",) + slots[0][1:],) + slots[1:]
    ),
}


class TestDamagedCodeCacheEntry:
    """Every unreadable entry is a miss that recompiles, never an error."""

    def _warm(self, cache_dir):
        out = Engine(seed=1, cache_dir=str(cache_dir)).run([("s.jsl", _SCRIPT)])
        assert out.console_output == ["42"]
        [entry] = cache_dir.glob(f"*.jslcache.v{CACHE_FORMAT_VERSION}")
        return entry

    def _assert_recompiles(self, cache_dir):
        assert CodeCache(cache_dir=cache_dir).lookup("s.jsl", _SCRIPT) is None
        engine = Engine(seed=2, cache_dir=str(cache_dir))
        assert engine.run([("s.jsl", _SCRIPT)]).console_output == ["42"]
        assert engine.code_cache.misses == 1
        rewritten = CodeCache(cache_dir=cache_dir).lookup("s.jsl", _SCRIPT)
        assert rewritten is not None
        assert [s.site_key for s in rewritten.feedback_slots] == [
            s.site_key for s in compile_source(_SCRIPT, "s.jsl").feedback_slots
        ]

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        entry = self._warm(tmp_path)
        data = _DAMAGE[damage](entry.read_bytes())
        assert decode_entry(data, _KEY) is None
        entry.write_bytes(data)
        self._assert_recompiles(tmp_path)

    def test_format5_json_entry_is_never_read(self, tmp_path):
        entry = self._warm(tmp_path)
        entry.unlink()
        digest = hashlib.sha256(_KEY.encode("utf-8")).hexdigest()[:24]
        old = tmp_path / f"{digest}.jslcache.json"
        code = {
            "name": "<script>", "filename": "s.jsl", "params": [],
            "position": ["s.jsl", 1, 1], "decl_key": "s.jsl:1:1#<script>",
            "instructions": [[int(Op.LOAD_UNDEFINED), 0, 0], [int(Op.RETURN), 0, 0]],
            "positions": [[1, 1], [1, 1]], "constants": [], "names": [],
            "local_names": [], "feedback_slots": [],
        }
        old.write_text(json.dumps({"version": 5, "key": _KEY, "code": code}))
        self._assert_recompiles(tmp_path)
        assert old.exists()

    def test_valid_entry_is_a_hit(self, tmp_path):
        self._warm(tmp_path)
        assert CodeCache(cache_dir=tmp_path).lookup("s.jsl", _SCRIPT) is not None


def test_marshal_stays_out_of_the_record_path():
    """ICRecords and the ricd wire cross process and host boundaries, so
    they keep checksummed JSON; ``marshal`` is for the local code cache."""
    import repro

    root = Path(repro.__file__).parent
    for package in ("ric", "server"):
        for path in (root / package).rglob("*.py"):
            assert "marshal" not in path.read_text(encoding="utf-8"), path


def _assert_same_constant(original, restored):
    if isinstance(original, CodeObject):
        assert isinstance(restored, CodeObject)
        return
    assert type(restored) is type(original)
    if isinstance(original, float) and math.isnan(original):
        assert math.isnan(restored)
    elif isinstance(original, float):
        assert restored == original
        assert math.copysign(1.0, restored) == math.copysign(1.0, original)
    else:
        assert restored == original


def _assert_entry_round_trips(filename, source):
    code = compile_source(source, filename)
    optimize_code(code)
    key = f"{filename}:{source_hash(source)}"
    restored = decode_entry(encode_entry(key, code), key)
    assert restored is not None
    originals = list(code.iter_code_objects())
    restoreds = list(restored.iter_code_objects())
    assert len(originals) == len(restoreds)
    for a, b in zip(originals, restoreds):
        assert a.instructions == b.instructions
        assert a.positions == b.positions
        assert a.params == b.params
        assert a.names == b.names
        assert a.local_names == b.local_names
        assert a.decl_key == b.decl_key
        assert a.position == b.position
        assert [(s.kind, s.name, s.site_key) for s in a.feedback_slots] == [
            (s.kind, s.name, s.site_key) for s in b.feedback_slots
        ]
        assert len(a.constants) == len(b.constants)
        for original, restored_constant in zip(a.constants, b.constants):
            _assert_same_constant(original, restored_constant)
    return code


class TestCodeCacheRoundTripWall:
    """Every code object of every benchmarked workload decodes equal to
    its compiled tree."""

    def test_bench_workloads_round_trip(self):
        from repro.harness.bench import bench_workloads

        workloads = bench_workloads()
        assert len(workloads) == 10
        for scripts in workloads.values():
            for filename, source in scripts:
                _assert_entry_round_trips(filename, source)

    def test_folded_special_floats_round_trip(self):
        code = _assert_entry_round_trips(
            "f.jsl", "var a = 0/0; var b = 1/0; var c = -0; var d = -1/0;"
        )
        floats = [c for c in code.constants if isinstance(c, float)]
        assert any(math.isnan(c) for c in floats)
        assert math.inf in floats and -math.inf in floats
        assert any(c == 0.0 and math.copysign(1.0, c) < 0 for c in floats)


# -- shared tuples within one entry -------------------------------------------

_INSTRUCTIONS, _POSITIONS = 4, 5


def _compiled(filename, source):
    code = compile_source(source, filename)
    optimize_code(code)
    return f"{filename}:{source_hash(source)}", code


def _unshared(entry):
    """``entry`` rewritten with every instruction and position tuple its
    own object, the way entries were encoded before tuples were shared."""

    def copy(code):
        fields = list(code)
        for index in (_INSTRUCTIONS, _POSITIONS):
            fields[index] = [tuple(list(item)) for item in code[index]]
        fields[_CONSTANTS] = tuple(
            copy(c) if type(c) is tuple else c for c in code[_CONSTANTS]
        )
        return tuple(fields)

    return _retupled(entry, lambda version, key, code: (version, key, copy(code)))


def _tuples(code):
    for nested in code.iter_code_objects():
        yield from nested.instructions
        yield from nested.positions


class TestCodeCacheSharing:
    """Within one entry, equal instruction and position tuples are written
    once, so a load builds each distinct tuple once."""

    def _scripts(self):
        from repro.harness.bench import bench_workloads
        from repro.workloads import WORKLOADS

        workloads = bench_workloads()
        assert len(workloads) == 10 and set(WORKLOADS) <= set(workloads)
        return [script for scripts in workloads.values() for script in scripts]

    def test_equal_tuples_decode_as_one_object(self):
        for filename, source in self._scripts():
            key, code = _compiled(filename, source)
            restored = decode_entry(encode_entry(key, code), key)
            assert restored is not None
            first = {}
            for item in _tuples(restored):
                assert first.setdefault(item, item) is item, (filename, item)
            assert [tuple(map(type, item)) for item in _tuples(restored)] == [
                tuple(map(type, item)) for item in _tuples(code)
            ], filename

    def test_unshared_entry_decodes_to_equal_code(self):
        for filename, source in self._scripts():
            key, code = _compiled(filename, source)
            shared = encode_entry(key, code)
            unshared = _unshared(shared)
            assert len(unshared) > len(shared), filename
            old = decode_entry(unshared, key)
            assert old is not None
            assert len({id(item) for item in _tuples(old)}) == sum(1 for _ in _tuples(old))
            assert old == decode_entry(shared, key) == code, filename

    def test_only_type_exact_equal_tuples_merge(self):
        code = compile_source("var x = 1;", "t.jsl")
        code.instructions = [(1, 0, 0), (True, 0, 0), (1.0, 0, 0), (1, 0, 0)]
        code.positions = [(0, 0), (0.0, 0), (-0.0, 0), (0, 0)]
        restored = decode_entry(encode_entry("t.jsl:k", code), "t.jsl:k")
        for original, decoded in (
            (code.instructions, restored.instructions),
            (code.positions, restored.positions),
        ):
            assert [tuple(map(type, t)) for t in decoded] == [
                tuple(map(type, t)) for t in original
            ]
            assert [repr(t) for t in decoded] == [repr(t) for t in original]
