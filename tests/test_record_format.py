"""Round-trip and corruption-fuzz tests for the ICRecord wire format.

Invariant under fuzz: loading mutated serialized data either succeeds
(and the result passes structural validation) or raises exactly
:class:`RecordFormatError` — never ``KeyError``/``TypeError``/
``IndexError``/anything else.  That single-exception-type contract is
what lets every caller harden itself with one ``except`` clause.
"""

import copy
import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.engine import Engine
from repro.ric import (
    CorruptRecord,
    RecordFormatError,
    RecordStore,
    load_icrecord,
    payload_checksum,
    record_from_envelope,
    record_from_json,
    record_to_envelope,
    record_to_json,
    save_icrecord,
    try_load_icrecord,
    validate_record,
)
from repro.ric.serialize import payload_text

SOURCE = """
function Box(v) { this.v = v; this.tag = "box"; }
var total = 0;
for (var i = 0; i < 12; i = i + 1) {
  var b = new Box(i);
  b.extra = i * 2;
  total = total + b.v + b.extra;
}
console.log(total);
"""


@pytest.fixture(scope="module")
def record():
    engine = Engine(seed=41)
    engine.run([("box.jsl", SOURCE)], name="initial")
    return engine.extract_icrecord()


class TestRoundTrip:
    def test_json_round_trip_preserves_stats(self, record):
        clone = record_from_json(record_to_json(record))
        assert clone.stats() == record.stats()
        assert validate_record(clone) == []

    def test_envelope_round_trip(self, record):
        clone = record_from_envelope(record_to_envelope(record))
        assert clone.stats() == record.stats()

    def test_disk_round_trip(self, record, tmp_path):
        path = tmp_path / "r.icrecord.json"
        save_icrecord(record, path)
        assert load_icrecord(path).stats() == record.stats()

    def test_checksum_is_sha256_of_payload_text(self, record):
        envelope = record_to_envelope(record)
        text = envelope["record"]
        assert text == payload_text(record_to_json(record)) and text.isascii()
        assert envelope["checksum"] == hashlib.sha256(text.encode()).hexdigest()
        # One byte more changes no meaning and is still refused: the
        # checksum covers the text, not a canonical form of it.
        spaced = " " + text
        assert json.loads(spaced) == json.loads(text)
        with pytest.raises(RecordFormatError, match="checksum"):
            record_from_envelope({**envelope, "record": spaced})
        flipped = text[:-2] + ("0" if text[-2] != "0" else "1") + text[-1]
        with pytest.raises(RecordFormatError, match="checksum"):
            record_from_envelope({**envelope, "record": flipped})
        # The checksum is checked first, then the text is parsed.
        broken = text[:-1]
        with pytest.raises(RecordFormatError, match="not valid JSON"):
            record_from_envelope(
                {"checksum": payload_checksum(broken), "record": broken}
            )

    def test_extracted_record_validates(self, record):
        assert validate_record(record) == []


def _mutate(node, rng: random.Random, depth: int = 0):
    """Apply one random structural mutation somewhere in a JSON tree."""
    replacements = [None, "x", 12345, -7, [], {}, True, 3.5]
    if isinstance(node, dict) and node:
        key = rng.choice(sorted(node, key=str))
        action = rng.randrange(3)
        if action == 0:
            del node[key]
        elif action == 1:
            node[key] = rng.choice(replacements)
        else:
            _mutate(node[key], rng, depth + 1)
    elif isinstance(node, list) and node:
        index = rng.randrange(len(node))
        if rng.randrange(2):
            node[index] = rng.choice(replacements)
        else:
            _mutate(node[index], rng, depth + 1)


def v6_payload(record) -> dict:
    """A payload as format v6 wrote it.  Its dense row list is left out:
    every gate refuses the payload before a row is read."""
    payload = record_to_json(record)
    payload["version"] = 6
    del payload["hidden_classes"], payload["cd_dependent_sites"]
    return payload


class TestCorruptionFuzz:
    """Mutate serialized records hundreds of ways; the loader must
    succeed or raise RecordFormatError, nothing else."""

    def test_payload_mutations_raise_only_record_format_error(self, record):
        pristine = record_to_json(record)
        for seed in range(300):
            rng = random.Random(seed)
            payload = copy.deepcopy(pristine)
            for _ in range(rng.randrange(1, 4)):
                _mutate(payload, rng)
            try:
                loaded = record_from_json(payload)
            except RecordFormatError:
                continue
            # record_from_json alone does not structurally validate; the
            # contract here is the exception type.  validate_record must
            # itself never raise on whatever parsed.
            validate_record(loaded)

    def test_envelope_mutations_raise_only_record_format_error(self, record):
        pristine = record_to_envelope(record)
        for seed in range(300):
            rng = random.Random(seed)
            envelope = copy.deepcopy(pristine)
            for _ in range(rng.randrange(1, 4)):
                _mutate(envelope, rng)
            try:
                loaded = record_from_envelope(envelope)
            except RecordFormatError:
                continue
            # Survivors must be fully trustworthy.
            assert validate_record(loaded) == []

    def test_rechecksummed_mutations_still_gated(self, record):
        """Even with a *correct* checksum, structural damage is refused —
        the validation layer, not the checksum, is the last line."""
        pristine = record_to_json(record)
        admitted = 0
        for seed in range(200):
            rng = random.Random(10_000 + seed)
            payload = copy.deepcopy(pristine)
            _mutate(payload, rng)
            text = payload_text(payload)
            envelope = {"checksum": payload_checksum(text), "record": text}
            try:
                loaded = record_from_envelope(envelope)
            except RecordFormatError:
                continue
            admitted += 1
            assert validate_record(loaded) == []
        # Most single mutations must be caught, not admitted.
        assert admitted < 100

    def test_text_level_damage_on_disk(self, record, tmp_path):
        path = tmp_path / "r.icrecord.json"
        save_icrecord(record, path)
        pristine = path.read_bytes()
        for seed in range(100):
            rng = random.Random(seed)
            damaged = bytearray(pristine)
            for _ in range(rng.randrange(1, 6)):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            path.write_bytes(bytes(damaged))
            try:
                loaded = load_icrecord(path)
            except RecordFormatError:
                continue
            # A mutation that kept bytes identical can legitimately load.
            assert validate_record(loaded) == []

    def test_missing_dependents_key_is_typed(self, record):
        """A payload missing its context-dependent sites, its row count
        or its link table ('site_slots') must be a RecordFormatError,
        not a KeyError."""
        for key in ("cd_dependent_sites", "hidden_classes", "site_slots"):
            payload = record_to_json(record)
            del payload[key]
            with pytest.raises(RecordFormatError):
                record_from_json(payload)

    def test_repeated_cd_hcid_is_refused(self, record):
        payload = record_to_json(record)
        payload["cd_dependent_sites"] = [[0, ["a.jsl:1:1:named_load"]]] * 2
        with pytest.raises(RecordFormatError, match="repeats hcid 0"):
            record_from_json(payload)

    def test_v5_payload_is_a_version_mismatch(self, record):
        """A v5 payload is refused by version, so it is re-extracted."""
        payload = record_to_json(record)
        payload["version"] = 5
        with pytest.raises(RecordFormatError, match="version"):
            record_from_json(payload)

    def test_v6_payload_is_a_version_mismatch(self, record):
        """A v6 payload (one HCVT row object per hidden class where v7
        has a row count and a sparse map) is refused by version before
        any row is read."""
        payload = v6_payload(record)
        with pytest.raises(RecordFormatError, match="version"):
            record_from_json(payload)
        text = payload_text(payload)
        with pytest.raises(RecordFormatError, match="version"):
            record_from_envelope({"checksum": payload_checksum(text), "record": text})

    def test_v7_payload_is_a_version_mismatch(self, record):
        """A v7 payload (property feedback that repeats a slot's offset,
        or null) is refused by version, so it is re-extracted."""
        payload = record_to_json(record)
        payload["version"] = 7
        with pytest.raises(RecordFormatError, match="version"):
            record_from_json(payload)
        text = payload_text(payload)
        with pytest.raises(RecordFormatError, match="version"):
            record_from_envelope({"checksum": payload_checksum(text), "record": text})

    def test_string_where_a_list_belongs_is_refused(self, record):
        """``list()`` of a string is a list of its characters, which the
        structural gate would accept as site or script keys."""
        for field, value in (
            ("script_keys", "box.jsl:0123"),
            ("cd_dependent_sites", [[0, "abc"]]),
        ):
            payload = record_to_json(record)
            payload[field] = value
            with pytest.raises(RecordFormatError, match="must be a list"):
                record_from_json(payload)

    def test_v6_envelope_is_refused(self, record, tmp_path):
        """A v6 envelope carries its payload as an object, checksummed in
        canonical form: a format error, and a quarantined store entry."""
        payload = v6_payload(record)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        envelope = {
            "key": "box.jsl:0123",
            "checksum": hashlib.sha256(canonical.encode()).hexdigest(),
            "record": payload,
        }
        with pytest.raises(RecordFormatError, match="payload text"):
            record_from_envelope(envelope)
        (tmp_path / "old.icrecord.json").write_text(json.dumps(envelope))
        store = RecordStore(directory=tmp_path)
        assert len(store) == 0 and len(store.load_errors) == 1
        assert [path.name for path in tmp_path.glob("old.*")] == [
            "old.icrecord.json.corrupt"
        ]

    def test_v7_fields_are_validated(self, record):
        rows = record.num_hidden_classes
        bad_fields = [
            {"num_hidden_classes": True},
            {"num_hidden_classes": -1},
            {"num_hidden_classes": 2.0},
            {"cd_dependent_sites": {rows: ["a.jsl:1:1:named_load"]}},
            {"cd_dependent_sites": {-1: ["a.jsl:1:1:named_load"]}},
            {"cd_dependent_sites": {False: ["a.jsl:1:1:named_load"]}},
            {"cd_dependent_sites": {0: []}},
            {"cd_dependent_sites": {0: [7]}},
            {"cd_dependent_sites": [[0, ["a.jsl:1:1:named_load"]]]},
        ]
        for fields in bad_fields:
            (name,) = fields
            problems = validate_record(dataclasses.replace(record, **fields))
            assert any(name in problem for problem in problems), (fields, problems)
        good = {0: ["a.jsl:1:1:named_load"], rows - 1: ["a.jsl:2:1:named_load"]}
        assert validate_record(
            dataclasses.replace(record, cd_dependent_sites=good)
        ) == []

    def test_non_dict_payloads(self):
        for bogus in (None, [], "record", 7, True):
            with pytest.raises(RecordFormatError):
                record_from_json(bogus)
            with pytest.raises(RecordFormatError):
                record_from_envelope(bogus)

    def test_try_load_never_raises(self, record, tmp_path):
        path = tmp_path / "r.icrecord.json"
        save_icrecord(record, path)
        pristine = path.read_bytes()
        outcomes = {"ok": 0, "corrupt": 0}
        for seed in range(100):
            rng = random.Random(seed)
            damaged = bytearray(pristine)
            for _ in range(rng.randrange(1, 8)):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            path.write_bytes(bytes(damaged))
            result = try_load_icrecord(path)
            outcomes["corrupt" if isinstance(result, CorruptRecord) else "ok"] += 1
        assert outcomes["corrupt"] > 0  # fuzz actually bites

    def test_missing_file_is_oserror_not_format_error(self, tmp_path):
        with pytest.raises(OSError):
            load_icrecord(tmp_path / "absent.icrecord.json")
        assert isinstance(
            try_load_icrecord(tmp_path / "absent.icrecord.json"), CorruptRecord
        )
