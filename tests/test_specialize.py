"""The bytecode-specialization subsystem: feedback, quickening, deopt.

Covers every layer the subsystem touches, bottom-up:

* the type-feedback recorder (operand classification, mask accumulation,
  distillation into persistable entries and tombstones),
* the quickening pass (typed-opcode rewriting, 1:1 structural guarantees,
  nested code objects, the ``spec_table``, prototype-store exclusion,
  tombstones, multi-record merge),
* the ``site_feedback`` wire section (round-trip, validation walls,
  the session's refusal to quicken from damaged, forged or foreign
  records), and the one source of property quickening: a site the
  record persisted exactly one field slot for (``site_slots``),
* the run-time deopt chain — the acceptance scenario: train a library
  record under one application, reuse it under a *different* application
  that shape-shifts the site, watch the guard fail exactly once, the
  demotion persist as a tombstone, and the next reuse stay generic,
* the stale-specialization lifecycle: every run fetches the record the
  store holds now and quickens a session-private clone of the
  artifact's *generic* tree, so a freshly published record takes effect
  on the next run with no invalidation step.
"""

from __future__ import annotations

import json

import pytest

from repro.bytecode.compiler import compile_source
from repro.bytecode.opcodes import BinOp, Op
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_BOOL,
    FEEDBACK_FLOAT,
    FEEDBACK_INT,
    FEEDBACK_OTHER,
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    FEEDBACK_STR,
    ICRecord,
    SiteFeedback,
    SiteSlot,
)
from repro.ric.errors import RecordFormatError
from repro.ric.serialize import (
    payload_checksum,
    payload_text,
    record_from_envelope,
    record_from_json,
    record_to_json,
)
from repro.ric.store import RecordStore
from repro.ric.validate import validate_record
from repro.specialize.feedback import (
    NUMERIC_MASK,
    arith_site_key,
    collect_arith_feedback,
    demotion_tombstones,
    operand_type_bits,
)
from repro.specialize.quicken import (
    TYPED_OPS,
    count_specialized_sites,
    merge_site_feedback,
    quicken_code,
)
from tests.helpers import run_jsl

# -- helpers --------------------------------------------------------------------


def _ops(code) -> set[int]:
    """Every opcode appearing anywhere in a code tree."""
    return {
        int(op)
        for node in code.iter_code_objects()
        for op, _, _ in node.instructions
    }


def _clone_record(record: ICRecord) -> ICRecord:
    """Deep copy through the wire format (also exercises serialization)."""
    return record_from_json(json.loads(json.dumps(record_to_json(record))))


def _records(feedback: dict) -> list[ICRecord]:
    """The quickener's input for a bare feedback map: one record."""
    return [ICRecord(site_feedback=feedback)]


def _field_offsets(record: ICRecord) -> dict[str, int]:
    """Site key -> offset of every site the record persisted exactly one
    field slot for: the sites property quickening may rewrite."""
    offsets = {}
    for key, slots in record.site_slots.items():
        handler = record.handlers[slots[0].handler_id]
        if len(slots) == 1 and handler["kind"] in ("load_field", "store_field"):
            offsets[key] = handler["offset"]
    return offsets


INT_LOOP = """
function total(n) {
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + i * 2; }
  return s;
}
console.log(total(25));
"""


# -- the recorder ---------------------------------------------------------------


class TestOperandTypeBits:
    def test_integral_floats_claim_the_int_bit(self):
        assert operand_type_bits(1.0, 2.0) == FEEDBACK_INT

    def test_fractional_floats_are_float(self):
        assert operand_type_bits(1.5, 2.0) == FEEDBACK_FLOAT | FEEDBACK_INT
        assert operand_type_bits(0.25, 0.75) == FEEDBACK_FLOAT

    def test_strings_and_bools_are_not_numeric(self):
        assert operand_type_bits("a", 1.0) == FEEDBACK_STR | FEEDBACK_INT
        # true + 1 coerces in the guest: bool must not look like a number.
        assert operand_type_bits(True, 1.0) == FEEDBACK_BOOL | FEEDBACK_INT
        assert operand_type_bits(None, 3.0) == FEEDBACK_OTHER | FEEDBACK_INT

    def test_numeric_mask_covers_exactly_int_and_float(self):
        assert NUMERIC_MASK == FEEDBACK_INT | FEEDBACK_FLOAT
        assert not operand_type_bits(1.0, 2.5) & ~NUMERIC_MASK


class TestFeedbackCollection:
    def test_int_stable_site_yields_positive_entry(self):
        result = run_jsl(INT_LOOP)
        feedback = collect_arith_feedback(result.feedback)
        adds = [
            fb
            for fb in feedback.values()
            if not fb.mega and fb.op == int(BinOp.ADD)
        ]
        assert adds, f"no ADD entry in {feedback}"
        assert all(fb.types == FEEDBACK_INT for fb in adds)
        assert all(fb.kind == FEEDBACK_ARITH for fb in feedback.values())

    def test_mixed_type_site_yields_tombstone(self):
        result = run_jsl(
            "function join(a, b) { return a + b; }\n"
            "console.log(join(1, 2));\n"
            'console.log(join("x", "y"));\n'
        )
        feedback = collect_arith_feedback(result.feedback)
        tombstones = [fb for fb in feedback.values() if fb.mega]
        assert len(tombstones) == 1

    def test_pure_string_sites_are_omitted(self):
        result = run_jsl(
            'function shout(s) { return s + "!"; }\nconsole.log(shout("hi"));\n'
        )
        assert collect_arith_feedback(result.feedback) == {}

    def test_unexecuted_sites_are_omitted(self):
        result = run_jsl(
            "function dead(a) { return a + a; }\nconsole.log(1);\n"
        )
        assert collect_arith_feedback(result.feedback) == {}

    def test_filename_filter_restricts_output(self):
        result = run_jsl(INT_LOOP)
        assert collect_arith_feedback(result.feedback, filename="other.jsl") == {}
        assert collect_arith_feedback(result.feedback, filename="test.jsl")

    def test_demotion_tombstones_recover_kind_from_key_shape(self):
        demoted = {
            "lib.jsl:1:1#f@3:arith",
            "lib.jsl:2:2#g@4:named_store",
            "lib.jsl:5:5#h@6:named_load",
        }
        entries = dict(demotion_tombstones(demoted))
        assert entries["lib.jsl:1:1#f@3:arith"].kind == FEEDBACK_ARITH
        assert entries["lib.jsl:2:2#g@4:named_store"].kind == FEEDBACK_PROP_STORE
        assert entries["lib.jsl:5:5#h@6:named_load"].kind == FEEDBACK_PROP_LOAD
        assert all(fb.mega for fb in entries.values())

    def test_demotion_tombstones_respect_filename_filter(self):
        demoted = {"lib.jsl:1:1#f@3:arith", "app.jsl:1:1#g@3:arith"}
        only = dict(demotion_tombstones(demoted, filename="lib.jsl"))
        assert list(only) == ["lib.jsl:1:1#f@3:arith"]


# -- the quickening pass --------------------------------------------------------


class TestQuickenCode:
    def _feedback_for(self, source: str):
        result = run_jsl(source)
        code = compile_source(source, "test.jsl")
        return code, collect_arith_feedback(result.feedback)

    def test_empty_feedback_is_identity(self):
        code = compile_source(INT_LOOP, "test.jsl")
        quickened, count = quicken_code(code, [])
        assert quickened is code and count == 0

    def test_irrelevant_feedback_is_identity(self):
        code = compile_source(INT_LOOP, "test.jsl")
        stray = {
            "elsewhere.jsl:1:1#f@0:arith": SiteFeedback(
                kind=FEEDBACK_ARITH, op=int(BinOp.ADD), types=FEEDBACK_INT
            )
        }
        quickened, count = quicken_code(code, _records(stray))
        assert quickened is code and count == 0

    def test_int_stable_add_becomes_add_int(self):
        code, feedback = self._feedback_for(INT_LOOP)
        quickened, count = quicken_code(code, _records(feedback))
        assert count > 0
        assert int(Op.ADD_INT) in _ops(quickened)
        assert int(Op.MUL_NUM) in _ops(quickened)  # i * 2 is numeric-stable
        assert count == count_specialized_sites(quickened)

    def test_original_tree_is_never_mutated(self):
        code, feedback = self._feedback_for(INT_LOOP)
        before = [
            list(node.instructions) for node in code.iter_code_objects()
        ]
        quicken_code(code, _records(feedback))
        after = [list(node.instructions) for node in code.iter_code_objects()]
        assert before == after
        assert count_specialized_sites(code) == 0

    def test_rewrite_is_one_to_one_and_pools_are_aliased(self):
        code, feedback = self._feedback_for(INT_LOOP)
        quickened, _ = quicken_code(code, _records(feedback))
        originals = list(code.iter_code_objects())
        clones = list(quickened.iter_code_objects())
        assert len(originals) == len(clones)
        for original, clone in zip(originals, clones):
            assert len(original.instructions) == len(clone.instructions)
            assert clone.names is original.names
            assert clone.positions is original.positions
            assert clone.feedback_slots is original.feedback_slots
            assert clone.decl_key == original.decl_key

    def test_nested_code_objects_are_quickened(self):
        source = """
function outer(n) {
  function inner(k) { return k + 7; }
  var s = 0;
  for (var i = 0; i < n; i++) { s = s + inner(i); }
  return s;
}
console.log(outer(20));
"""
        code, feedback = self._feedback_for(source)
        quickened, count = quicken_code(code, _records(feedback))
        assert count >= 2  # inner's add and outer's accumulation at least
        nested_ops = set()
        for node in quickened.iter_code_objects():
            if node.name == "inner":
                nested_ops = {int(op) for op, _, _ in node.instructions}
        assert int(Op.ADD_INT) in nested_ops

    def test_tombstone_blocks_the_rewrite(self):
        code, feedback = self._feedback_for(INT_LOOP)
        tombstoned = {
            key: SiteFeedback(kind=FEEDBACK_ARITH, mega=True)
            for key in feedback
        }
        quickened, count = quicken_code(code, _records(tombstoned))
        assert quickened is code and count == 0

    def test_op_mismatch_blocks_the_rewrite(self):
        # Feedback claiming SUB at an ADD site must not apply: the key
        # matches but the operator does not (defense against stale or
        # hand-damaged records).
        code, feedback = self._feedback_for(INT_LOOP)
        crossed = {
            key: SiteFeedback(
                kind=FEEDBACK_ARITH, op=int(BinOp.SUB), types=fb.types
            )
            for key, fb in feedback.items()
            if fb.op == int(BinOp.ADD)
        }
        quickened, count = quicken_code(code, _records(crossed))
        assert quickened is code and count == 0

    def test_quickened_code_runs_identically_with_typed_hits(self):
        source = INT_LOOP
        code, feedback = self._feedback_for(source)
        quickened, count = quicken_code(code, _records(feedback))
        assert count > 0

        # Execute the quickened clone through the same harness the
        # generic run used and compare observable behaviour.
        from repro.ic.icvector import FeedbackState
        from repro.ic.miss import ICRuntime
        from repro.interpreter.vm import VM
        from repro.runtime.builtins import install_builtins
        from repro.runtime.context import Runtime
        from repro.stats.counters import Counters

        generic = run_jsl(source)
        runtime = Runtime(seed=42)
        install_builtins(runtime)
        counters = Counters()
        state = FeedbackState()
        state.register_script(quickened)
        vm = VM(runtime, counters, ICRuntime(runtime, counters), state)
        vm.run_code(quickened)
        assert runtime.console_output == generic.runtime.console_output
        assert counters.specialized_hits > 0
        assert counters.deopts == 0


class TestQuickenProperties:
    """Property-site quickening needs real extraction (hcids, offsets),
    so these go through the engine: run, extract, quicken the cached code."""

    SOURCE = """
function Pt(x, y) { this.x = x; this.y = y; }
Pt.prototype.sum = function () { return this.x + this.y; };
function getx(p) { return p.x; }
function setx(p, v) { p.x = v; }
var pts = [];
for (var i = 0; i < 12; i++) { pts.push(new Pt(i, i * 2)); }
var acc = 0;
for (var j = 0; j < pts.length; j++) {
  setx(pts[j], getx(pts[j]) + 1);
  acc = acc + pts[j].sum();
}
console.log(acc);
"""

    def _record_and_code(self):
        engine = Engine(config=RICConfig(specialize=True), seed=6)
        engine.run([("app.jsl", self.SOURCE)], name="props")
        record = engine.extract_icrecord()
        code = engine.compile("app.jsl", self.SOURCE)
        return record, code

    def test_monomorphic_sites_get_slot_opcodes_and_spec_table(self):
        record, code = self._record_and_code()
        offsets = _field_offsets(record)
        assert offsets, "extraction persisted no single-slot field site"

        quickened, count = quicken_code(code, [record])
        assert count > 0
        assert int(Op.GET_PROP_SLOT) in _ops(quickened)
        assert int(Op.SET_PROP_SLOT) in _ops(quickened)
        for node in quickened.iter_code_objects():
            for op, a, b in node.instructions:
                if op in (Op.GET_PROP_SLOT, Op.SET_PROP_SLOT):
                    name_index, offset = node.spec_table[a]
                    assert 0 <= name_index < len(node.names)
                    # The offset the typed op reads is the one RIC
                    # preloads into the slot it guards on.
                    assert offset == offsets[node.feedback_slots[b].site_key]

    def test_first_record_with_a_single_field_slot_wins(self):
        record, code = self._record_and_code()
        shifted = _clone_record(record)
        for handler in shifted.handlers:
            if "offset" in handler:
                handler["offset"] += 1

        def spec_offsets(records):
            quickened, _ = quicken_code(code, records)
            return [
                offset
                for node in quickened.iter_code_objects()
                for offset in (o for _, o in node.spec_table)
            ]

        original = spec_offsets([record])
        assert original
        assert spec_offsets([record, shifted]) == original
        assert spec_offsets([shifted, record]) == [o + 1 for o in original]

    def test_prototype_stores_are_never_specialized(self):
        # `Alt.prototype = {...}` is a store *to* "prototype" — the one
        # named-store shape the pass must never specialize (the typed
        # store skips constructor hidden-class invalidation).  Its site
        # persists one store_field slot, so only the quickener's name
        # check keeps it generic.
        source = self.SOURCE + (
            "function Alt(x) { this.x = x; }\n"
            'Alt.prototype = { tag: "alt" };\n'
            "console.log(new Alt(1).tag);\n"
        )
        engine = Engine(config=RICConfig(specialize=True), seed=6)
        engine.run([("app.jsl", source)], name="proto")
        record = engine.extract_icrecord()
        (store_key,) = [
            key for key in record.site_slots if key.startswith("app.jsl:16:")
        ]
        assert store_key in _field_offsets(record)
        assert store_key not in record.site_feedback
        code = engine.compile("app.jsl", source)
        quickened, _ = quicken_code(code, [record])
        for node in quickened.iter_code_objects():
            for op, a, _ in node.instructions:
                if op == Op.SET_PROP_SLOT:
                    name_index, _ = node.spec_table[a]
                    assert node.names[name_index] != "prototype"
            # The prototype store itself must still be a generic SET_PROP.
            generic_stores = [
                node.names[a]
                for op, a, _ in node.instructions
                if op == Op.SET_PROP
            ]
            if "prototype" in node.names:
                assert "prototype" in generic_stores


#: A site that keeps one of its two runtime slots: ``o.x`` in ``getx``
#: sees A (a field load) and B (x not found, context-dependent).
ONE_SLOT_OF_TWO = """function A() { this.x = 1; }
function B() { this.y = 2; }
function getx(o) { return o.x; }
var s = 0;
for (var i = 0; i < 4; i++) { s = s + getx(new A()); getx(new B()); }
console.log(s);
"""

#: ``o.x`` in ``getx`` is a one-slot field load at offset 0.
FIELD_LOAD = """function P() { this.x = 1; this.y = 2; }
function getx(o) { return o.x; }
var s = 0;
for (var i = 0; i < 3; i++) { s = s + getx(new P()); }
console.log(s);
"""


class TestPropertySiteTrust:
    """Property quickening reads the record's link table, ``site_slots``,
    and nothing else: a site that kept one slot of several is
    tombstoned, and no feedback entry can name an offset."""

    def test_site_keeping_one_of_several_slots_is_tombstoned(self):
        scripts = [("poly.jsl", ONE_SLOT_OF_TWO)]
        engine = Engine(config=RICConfig(specialize=True), seed=3)
        cold = engine.run(scripts, name="cold")
        records = [
            engine.extract_icrecord(),
            engine.extract_per_script_records()["poly.jsl"],
        ]
        for record in records:
            (key,) = [k for k in record.site_slots if k.startswith("poly.jsl:3:")]
            (slot,) = record.site_slots[key]
            assert record.handlers[slot.handler_id]["kind"] == "load_field"
            assert any(key in keys for keys in record.cd_dependent_sites.values())
            tombstone = record.site_feedback[key]
            assert tombstone.kind == FEEDBACK_PROP_LOAD and tombstone.mega
            assert validate_record(_clone_record(record)) == []
        reused = Engine(config=RICConfig(specialize=True), seed=3).run(
            scripts, name="reuse", icrecord=records
        )
        assert reused.counters.specialized_sites == 4
        assert reused.counters.deopts == 0
        assert reused.console_output == cold.console_output == ["4"]

    def test_forged_field_offset_is_refused(self):
        # A re-checksummed payload naming offset 1 (P's y) at a site
        # whose slot loads offset 0 would make reuse print 6, not 3.
        scripts = [("forge.jsl", FIELD_LOAD)]
        engine = Engine(config=RICConfig(specialize=True), seed=3)
        assert engine.run(scripts, name="cold").console_output == ["3"]
        payload = record_to_json(engine.extract_per_script_records()["forge.jsl"])
        (key,) = [k for k in payload["site_slots"] if k.startswith("forge.jsl:2:")]
        ((hcid, handler_id),) = payload["site_slots"][key]
        assert payload["handlers"][handler_id] == {"kind": "load_field", "offset": 0}
        payload["site_feedback"][key] = [1, hcid, 1]
        text = payload_text(payload)
        with pytest.raises(RecordFormatError):
            record_from_envelope({"checksum": payload_checksum(text), "record": text})


class TestMergeSiteFeedback:
    def _record_with(self, feedback: dict) -> ICRecord:
        record = ICRecord()
        record.site_feedback = feedback
        return record

    def test_disjoint_maps_union(self):
        a = self._record_with(
            {"k1": SiteFeedback(kind=FEEDBACK_ARITH, op=1, types=1)}
        )
        b = self._record_with(
            {"k2": SiteFeedback(kind=FEEDBACK_ARITH, op=2, types=2)}
        )
        merged = merge_site_feedback([a, b])
        assert set(merged) == {"k1", "k2"}

    def test_tombstone_wins_in_either_order(self):
        positive = SiteFeedback(kind=FEEDBACK_ARITH, op=1, types=1)
        tombstone = SiteFeedback(kind=FEEDBACK_ARITH, mega=True)
        a = self._record_with({"k": positive})
        b = self._record_with({"k": tombstone})
        assert merge_site_feedback([a, b])["k"].mega
        assert merge_site_feedback([b, a])["k"].mega

    def test_first_positive_entry_is_kept(self):
        first = SiteFeedback(kind=FEEDBACK_ARITH, op=1, types=1)
        second = SiteFeedback(kind=FEEDBACK_ARITH, op=1, types=3)
        a = self._record_with({"k": first})
        b = self._record_with({"k": second})
        assert merge_site_feedback([a, b])["k"] is first


# -- the wire format ------------------------------------------------------------


class TestSiteFeedbackWireFormat:
    def _extracted_record(self) -> ICRecord:
        engine = Engine(config=RICConfig(specialize=True), seed=3)
        engine.run([("app.jsl", TestQuickenProperties.SOURCE)], name="wire")
        return engine.extract_icrecord()

    def test_round_trip_preserves_site_feedback(self):
        record = self._extracted_record()
        assert record.site_feedback, "extraction produced no feedback"
        assert validate_record(record) == []
        round_tripped = _clone_record(record)
        assert round_tripped.site_feedback == record.site_feedback

    def test_tombstones_survive_the_round_trip(self):
        record = self._extracted_record()
        record.site_feedback["doomed"] = SiteFeedback(
            kind=FEEDBACK_ARITH, mega=True
        )
        assert _clone_record(record).site_feedback["doomed"].mega is True

    def test_validation_rejects_unknown_kind(self):
        record = self._extracted_record()
        record.site_feedback["bad"] = SiteFeedback(kind="vectorized")
        problems = validate_record(record)
        assert any("unknown kind" in p for p in problems)

    def test_validation_rejects_mask_outside_known_bits(self):
        record = self._extracted_record()
        record.site_feedback["bad"] = SiteFeedback(
            kind=FEEDBACK_ARITH, op=int(BinOp.ADD), types=1 << 10
        )
        problems = validate_record(record)
        assert any("type mask" in p for p in problems)

    def test_validation_rejects_property_entry_that_is_not_a_tombstone(self):
        for kind in (FEEDBACK_PROP_LOAD, FEEDBACK_PROP_STORE):
            record = self._extracted_record()
            record.site_feedback["bad"] = SiteFeedback(kind=kind)
            problems = validate_record(record)
            assert any("tombstone" in p for p in problems), problems

    def _quickenable_site(self, record: ICRecord) -> str:
        """Key of a site property quickening would rewrite: the record
        persisted exactly one field slot for it."""
        offsets = _field_offsets(record)
        assert offsets, "extraction persisted no single-slot field site"
        return next(iter(offsets))

    def test_validation_rejects_out_of_range_hcid(self):
        # The class a quickened property op guards on is its site's one
        # slot's hcid, so that hcid must name an HCVT row.
        record = self._extracted_record()
        key = self._quickenable_site(record)
        slot = record.site_slots[key][0]
        record.site_slots[key] = [SiteSlot(hcid=10**6, handler_id=slot.handler_id)]
        problems = validate_record(record)
        assert any("hcid" in p for p in problems), problems

    def test_validation_rejects_negative_offset(self):
        # The offset a quickened property op reads is its site's handler's.
        record = self._extracted_record()
        key = self._quickenable_site(record)
        record.handlers[record.site_slots[key][0].handler_id]["offset"] = -3
        problems = validate_record(record)
        assert any("offset" in p for p in problems), problems

    def test_null_feedback_is_refused(self):
        # Format v7 wrote null at a site with one field slot that must
        # not be quickened; format v8 writes a tombstone there.
        payload = record_to_json(self._extracted_record())
        payload["site_feedback"][next(iter(payload["site_slots"]))] = None
        with pytest.raises(RecordFormatError):
            record_from_json(payload)

    def _run_with(self, record, name):
        """One ``icrecord=`` run of the wire source; returns the profile
        and whether the session executed the artifact's generic tree."""
        engine = Engine(config=RICConfig(specialize=True), seed=3)
        profile = engine.run(
            [("app.jsl", TestQuickenProperties.SOURCE)], name=name, icrecord=record
        )
        session = engine.last_run
        return profile, session.exec_codes[0] is session.artifacts[0].code

    def _per_file_record(self) -> ICRecord:
        engine = Engine(config=RICConfig(specialize=True), seed=3)
        engine.run([("app.jsl", TestQuickenProperties.SOURCE)], name="wire")
        return engine.extract_per_script_records()["app.jsl"]

    def test_session_quickening_refuses_damaged_records(self):
        record = self._per_file_record()
        trusted, generic = self._run_with(record, "trusted")
        assert trusted.counters.specialized_sites > 0 and not generic
        assert trusted.counters.ric_records_rejected == 0

        record.site_feedback["bad"] = SiteFeedback(kind="vectorized")
        damaged, generic = self._run_with(record, "damaged")
        assert damaged.counters.ric_records_rejected == 1
        assert damaged.counters.specialized_sites == 0 and generic

    def test_session_quickening_requires_script_trust(self):
        record = self._per_file_record()
        record.script_keys = ["app.jsl:not-the-hash"]
        foreign, generic = self._run_with(record, "foreign")
        assert foreign.counters.ric_records_rejected == 0
        assert foreign.counters.specialized_sites == 0 and generic


# -- the deopt chain (acceptance) -----------------------------------------------


LIB = "function add(a, b) { return a + b; }\n"

APP_NUMERIC = """
var total = 0;
for (var i = 0; i < 40; i++) { total = add(total, i); }
console.log("total:", total);
"""

APP_STRINGS = """
var s = "";
for (var i = 0; i < 10; i++) { s = add(s, "x"); }
console.log("len:", s.length);
"""


class TestDeoptChain:
    """Cold -> train -> reuse-under-shape-shift -> deopt -> tombstone ->
    reuse-again-without-respecializing.  The guard fails exactly once,
    behaviour never changes, and the demotion is persistent."""

    def test_full_chain(self):
        engine = Engine(config=RICConfig(specialize=True), seed=11)

        # 1. Train: the library's add site sees only ints.
        engine.run(
            [("lib.jsl", LIB), ("app1.jsl", APP_NUMERIC)], name="train"
        )
        lib_record = engine.extract_per_script_records()["lib.jsl"]
        positives = {
            key: fb
            for key, fb in lib_record.site_feedback.items()
            if not fb.mega
        }
        assert len(positives) == 1
        (site_key,) = positives
        assert positives[site_key].types == FEEDBACK_INT

        # 2. Reuse the per-file record under a *different* application
        # that pushes strings through the same site: the ADD_INT guard
        # fails on the first dispatch, patches back to generic, and the
        # run completes untouched.
        scripts = [("lib.jsl", LIB), ("app2.jsl", APP_STRINGS)]
        deopt_run = engine.run(scripts, name="shift", icrecord=lib_record)
        assert deopt_run.counters.specialized_sites == 1
        assert deopt_run.counters.deopts == 1
        assert deopt_run.counters.despecialized_sites == 1

        plain = Engine(config=RICConfig(specialize=True), seed=11).run(scripts, name="plain")
        assert deopt_run.console_output == plain.console_output

        # 3. The next extraction persists the demotion as a tombstone.
        lib_record2 = engine.extract_per_script_records()["lib.jsl"]
        assert lib_record2.site_feedback[site_key].mega is True

        # 4. Reusing the tombstoned record never re-specializes the site:
        # no typed opcodes, no guards, no deopts — permanently generic.
        settled = engine.run(scripts, name="settled", icrecord=lib_record2)
        assert settled.counters.specialized_sites == 0
        assert settled.counters.deopts == 0
        assert settled.console_output == plain.console_output

    def test_stable_reuse_never_deopts(self):
        """The control arm: reusing the trained record under the *same*
        application keeps the typed opcode hot for the whole run."""
        engine = Engine(config=RICConfig(specialize=True), seed=11)
        scripts = [("lib.jsl", LIB), ("app1.jsl", APP_NUMERIC)]
        engine.run(scripts, name="train")
        lib_record = engine.extract_per_script_records()["lib.jsl"]
        reused = engine.run(scripts, name="reuse", icrecord=lib_record)
        assert reused.counters.specialized_sites == 1
        assert reused.counters.specialized_hits > 0
        assert reused.counters.deopts == 0


# -- the stale-specialization lifecycle -----------------------------------------


class TestStaleSpecialization:
    """A record published after a script was compiled must not leave
    later runs on the old feedback.  Artifacts hold generic code only;
    each ``use_store`` run fetches the record the store holds now and
    quickens a clone of the generic tree inside its session, so there is
    nothing to invalidate."""

    SOURCE = TestQuickenProperties.SOURCE
    SCRIPTS = [("app.jsl", SOURCE)]

    def _seed_record(self) -> ICRecord:
        engine = Engine(config=RICConfig(specialize=True), seed=7)
        engine.run(self.SCRIPTS, name="seed")
        return engine.extract_per_script_records()["app.jsl"]

    def test_tombstoned_record_quickens_nothing(self):
        record = self._seed_record()
        store = RecordStore()
        store.put("app.jsl", self.SOURCE, record)
        engine = Engine(
            config=RICConfig(specialize=True), record_store=store, seed=5
        )

        first = engine.run(self.SCRIPTS, name="fresh", use_store=True)
        quickened = engine.last_run.exec_codes[0]
        generic = engine.last_run.artifacts[0].code
        assert first.counters.specialized_sites > 0
        assert count_specialized_sites(quickened) == first.counters.specialized_sites
        assert count_specialized_sites(generic) == 0

        # Publish a fully tombstoned record.  Nothing else is called: the
        # next run fetches it and quickens from the generic tree, so
        # every demoted site comes out generic.
        demoted = _clone_record(record)
        demoted.site_feedback.update(
            demotion_tombstones({*demoted.site_feedback, *demoted.site_slots})
        )
        store.put("app.jsl", self.SOURCE, demoted)

        second = engine.run(self.SCRIPTS, name="demoted", use_store=True)
        assert second.mode == "reuse-ric"
        assert second.counters.bytecode_cache_hits == 1  # no recompile
        assert second.counters.specialized_sites == 0
        assert engine.last_run.exec_codes[0] is generic

    def test_publish_records_triggers_requickening(self):
        """Run, publish, run again: the second run quickens against the
        record the first one published, on a clone of the cached tree."""
        store = RecordStore()
        engine = Engine(
            config=RICConfig(specialize=True), record_store=store, seed=5
        )
        before = engine.run(self.SCRIPTS, name="w", use_store=True)
        assert before.mode == "initial"  # the store was empty
        assert before.counters.specialized_sites == 0

        assert engine.publish_records() >= 1
        after = engine.run(self.SCRIPTS, name="r", use_store=True)
        assert after.mode == "reuse-ric"
        assert after.counters.specialized_sites > 0
        session = engine.last_run
        assert session.exec_codes[0] is not session.artifacts[0].code
        assert count_specialized_sites(session.artifacts[0].code) == 0
