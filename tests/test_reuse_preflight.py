"""The reuse pre-flight: cheaper, and observationally identical.

Between fetching its records and executing its first instruction, a
reuse run writes fetched records back into the local fallback store,
decodes, admits, quickens and wires one reuse session over all its
records.  Two shortcuts live there, and this module pins that neither
is visible:

* a memory-only ``RecordStore`` keeps a ``put`` record without encoding
  it, and sizes it only when ``status()`` asks;
* the ``ReuseSession`` matches a new hidden class only against the
  records whose TOAST has an entry for its creation key, and charges
  every record's lookup in one step.

The counter golden pins every counter of seven-library page loads in
three orders, of a naive-match (``validate=False``) load and of the
linking and handler-reuse ablations, and of the record lists a page can
pass as ``icrecord=``: the per-file records twice, the whole-run record
plus the per-file records, and the per-file records over a page with one
library edited (so its record is untrusted).  Each entry also holds the
SHA-256 of the load's ``ric_validated``, ``ric_preloaded``,
``ric_divergence`` and ``ic_miss`` events, which pins the cross-record
event order and each miss's Table 4 reason.  The golden was taken when
each record still had a session of its own.  Regenerate it only for an
intentional counter change, and review the diff::

    RIC_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_reuse_preflight.py
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import random
import socket
from collections import Counter
from pathlib import Path

import pytest

from repro.bytecode.cache import source_hash
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.ric import serialize, store as store_module
from repro.ric.icrecord import SiteSlot
from repro.ric.reuse import ReuseSession
from repro.ric.serialize import record_from_envelope, record_to_envelope
from repro.ric.store import RecordStore
from repro.stats.tracing import (
    IC_MISS,
    RIC_DIVERGENCE,
    RIC_PRELOADED,
    RIC_VALIDATED,
    Tracer,
)
from repro.workloads import WORKLOADS
from tests.helpers import all_counters

GOLDEN = Path(__file__).resolve().parent / "golden" / "reuse_counters.json"
REGOLD = os.environ.get("RIC_REGOLD") == "1"

#: The paper's seven libraries (Table 3).
LIBRARIES = [
    "angularlike",
    "camanlike",
    "handlebarslike",
    "jquerylike",
    "jsfeatlike",
    "reactlike",
    "underscorelike",
]
ORDER_SEEDS = (1, 2, 3)
#: Quickening on regardless of ``RIC_SPECIALIZE``: the golden includes
#: the specialization counters.
CONFIG = RICConfig(specialize=True)


#: The events that pin a reuse load's cross-record order and each
#: miss's Table 4 reason.
TRACED_KINDS = frozenset({RIC_VALIDATED, RIC_PRELOADED, RIC_DIVERGENCE, IC_MISS})
#: The library whose source the "edited-source" load changes after its
#: record was taken, so that record is untrusted.
EDITED = "jquerylike"


def page(order) -> list[tuple[str, str]]:
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in order]


def page_order(seed: int) -> list[str]:
    return random.Random(seed).sample(LIBRARIES, len(LIBRARIES))


def edited_page(order) -> list[tuple[str, str]]:
    return [
        (filename, source + "\n// edited after its record was taken\n")
        if filename == f"{EDITED}.jsl"
        else (filename, source)
        for filename, source in page(order)
    ]


def trace_sha256(tracer: Tracer) -> str:
    digest = hashlib.sha256()
    for event in tracer.events:
        fields = [event.kind, event.site_key, event.hc_index, event.detail]
        digest.update(json.dumps(fields).encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def first_visit(tmp_path_factory) -> "tuple[Path, object]":
    """Per-file records of one first visit, published to a directory
    store, so every reuse load decodes them from disk; and the visit's
    whole-run record."""
    directory = tmp_path_factory.mktemp("records")
    engine = Engine(config=CONFIG, seed=7, record_store=RecordStore(directory=directory))
    engine.run(page(LIBRARIES), use_store=True)
    assert engine.publish_records() == len(LIBRARIES)
    return directory, engine.extract_icrecord()


@pytest.fixture(scope="module")
def loads(first_visit):
    """name -> (profile, calls per ``ReuseSession`` method, SHA-256 of
    the load's RIC and miss events).

    The counted methods are the hook and the two per-record matches,
    ``_match`` (a TOAST entry) and ``_naive_match``.  Loads without
    explicit records fetch the per-file records from the store, as a
    returning visitor does; the others pass a record list as
    ``icrecord=``."""
    directory, whole_run = first_visit
    calls = Counter()
    counted = ("on_hidden_class_created", "_match", "_naive_match")
    originals = {method: getattr(ReuseSession, method) for method in counted}

    def counting(method):
        original = originals[method]

        def wrapper(self, *args):
            calls[method] += 1
            return original(self, *args)

        return wrapper

    first = ORDER_SEEDS[0]
    order = page_order(first)
    per_file = RecordStore(directory=directory).records_for(page(order))
    assert len(per_file) == len(LIBRARIES)
    runs = [(f"order-{seed}", page(page_order(seed)), seed, CONFIG, None) for seed in ORDER_SEEDS]
    runs += [
        ("naive-match", page(order), first, dataclasses.replace(CONFIG, validate=False), None),
        ("no-linking", page(order), first, dataclasses.replace(CONFIG, enable_linking=False), None),
        ("no-handler-reuse", page(order), first,
         dataclasses.replace(CONFIG, enable_handler_reuse=False), None),
        ("records-twice", page(order), first, CONFIG, per_file + per_file),
        ("whole-run-plus-per-file", page(order), first, CONFIG, [whole_run, *per_file]),
        ("edited-source", edited_page(order), first, CONFIG, per_file),
    ]
    out = {}
    for method in counted:
        setattr(ReuseSession, method, counting(method))
    try:
        for name, scripts, seed, config, records in runs:
            calls.clear()
            tracer = Tracer(kinds=set(TRACED_KINDS))
            if records is None:
                store = RecordStore(directory=directory)
                assert store.load_errors == []
                engine = Engine(config=config, seed=seed, record_store=store)
                profile = engine.run(scripts, use_store=True, tracer=tracer)
            else:
                engine = Engine(config=config, seed=seed)
                profile = engine.run(scripts, icrecord=records, tracer=tracer)
            out[name] = (profile, dict(calls), trace_sha256(tracer))
    finally:
        for method, original in originals.items():
            setattr(ReuseSession, method, original)
    return out


class TestFanOutCounters:
    def test_counters_match_golden(self, loads):
        actual = {
            name: {**all_counters(profile.counters), "trace_sha256": digest}
            for name, (profile, _, digest) in loads.items()
        }
        if REGOLD:
            GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
            return
        assert GOLDEN.exists(), f"missing golden {GOLDEN}; run with RIC_REGOLD=1"
        expected = json.loads(GOLDEN.read_text())
        assert sorted(actual) == sorted(expected)
        for name in expected:
            drift = {
                key: (expected[name][key], actual[name].get(key))
                for key in expected[name]
                if actual[name].get(key) != expected[name][key]
            }
            assert not drift, f"{name}: counters drifted (golden, now): {drift}"

    @pytest.mark.parametrize("name", [f"order-{seed}" for seed in ORDER_SEEDS])
    def test_every_session_is_charged_a_lookup(self, loads, name):
        profile, _, _ = loads[name]
        c = profile.counters
        assert c.ric_preloads > 0 and c.ric_records_rejected == 0
        assert c.ric_toast_lookups == len(LIBRARIES) * c.hidden_classes_created

    @pytest.mark.parametrize(
        "name, records",
        [
            ("records-twice", 2 * len(LIBRARIES)),
            ("whole-run-plus-per-file", 1 + len(LIBRARIES)),
            ("edited-source", len(LIBRARIES)),
        ],
    )
    def test_every_record_of_a_list_is_charged_a_lookup(self, loads, name, records):
        profile, calls, _ = loads[name]
        c = profile.counters
        assert calls["on_hidden_class_created"] == c.hidden_classes_created
        assert c.ric_preloads > 0 and c.ric_records_rejected == 0
        assert c.ric_toast_lookups == records * c.hidden_classes_created

    @pytest.mark.parametrize("name", [f"order-{seed}" for seed in ORDER_SEEDS])
    def test_index_skips_sessions_without_a_toast_entry(self, loads, name):
        """One hook call per hidden class; the TOAST index matches it only
        against the records with an entry for its creation key."""
        profile, calls, _ = loads[name]
        hidden_classes = profile.counters.hidden_classes_created
        assert calls["on_hidden_class_created"] == hidden_classes
        assert profile.counters.ric_toast_lookups == len(LIBRARIES) * hidden_classes
        assert 0 < calls["_match"] < len(LIBRARIES) * hidden_classes

    def test_naive_match_still_visits_every_session(self, loads):
        """The naive-match ablation ignores the TOAST and matches every
        hidden class against every record."""
        profile, calls, _ = loads["naive-match"]
        hidden_classes = profile.counters.hidden_classes_created
        assert calls["on_hidden_class_created"] == hidden_classes
        assert calls["_naive_match"] == len(LIBRARIES) * hidden_classes
        assert profile.counters.ric_toast_lookups == len(LIBRARIES) * hidden_classes


# -- write-back into the fallback store ---------------------------------------

LIB = (
    "lib.jsl",
    """
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function () { return this.x + this.y; };
var acc = 0;
for (var i = 0; i < 25; i = i + 1) { acc = acc + new Point(i, i + 1).norm1(); }
console.log("lib total:", acc);
""",
)

needs_unix_sockets = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix sockets required"
)


@pytest.fixture(scope="module")
def lib_record():
    engine = Engine(config=CONFIG, seed=31)
    engine.run([LIB])
    return engine.extract_per_script_records()["lib.jsl"]


@pytest.fixture
def daemon(tmp_path, lib_record):
    from repro.server import RecordCacheDaemon, RemoteRecordStore

    ricd = RecordCacheDaemon(tmp_path / "ricd.sock")
    ricd.start()
    publisher = RemoteRecordStore(ricd.socket_path)
    publisher.put(*LIB, lib_record)
    assert publisher.stats["puts"] == 1
    publisher.close()
    yield ricd
    ricd.stop()


def envelope_bytes(record, filename: str, source: str) -> int:
    """What a store entry's ``status()`` size has always been: its
    on-disk envelope, key included."""
    key = f"{filename}:{source_hash(source)}"
    envelope = record_to_envelope(record, extra={"key": key})
    return len(json.dumps(envelope).encode("utf-8"))


@needs_unix_sockets
class TestWriteBack:
    def test_memory_fallback_stores_the_hit_without_encoding(
        self, daemon, monkeypatch
    ):
        from repro.server import RemoteRecordStore
        from repro.server import client as client_module

        encodes = []

        def counting(record, extra=None):
            encodes.append(extra)
            return record_to_envelope(record, extra)

        for module in (serialize, store_module, client_module):
            monkeypatch.setattr(module, "record_to_envelope", counting)
        reader = RemoteRecordStore(daemon.socket_path)
        try:
            record = reader.get(*LIB)
        finally:
            reader.close()
        assert record is not None and reader.stats["hits"] == 1
        assert encodes == []
        assert reader.fallback.get(*LIB) is record
        monkeypatch.undo()
        assert reader.fallback.status()["bytes"] == envelope_bytes(record, *LIB)

    def test_directory_fallback_persists_the_hit(self, daemon, tmp_path):
        from repro.server import RemoteRecordStore

        fallback_dir = tmp_path / "fallback"
        reader = RemoteRecordStore(
            daemon.socket_path, fallback=RecordStore(directory=fallback_dir)
        )
        try:
            record = reader.get(*LIB)
        finally:
            reader.close()
        assert record is not None and reader.stats["hits"] == 1
        expected = envelope_bytes(record, *LIB)
        assert reader.fallback.status()["bytes"] == expected
        (entry,) = fallback_dir.glob("*.icrecord.json")
        assert entry.stat().st_size == expected
        reloaded = RecordStore(directory=fallback_dir)
        assert reloaded.load_errors == []
        assert reloaded.get(*LIB) == record
        assert reloaded.status()["bytes"] == expected

    def test_memory_store_sizes_each_entry_on_status(self, lib_record):
        store = RecordStore()
        store.put(*LIB, lib_record)
        store.put("other.jsl", "var x = 1;", lib_record)
        assert store.status()["bytes"] == envelope_bytes(
            lib_record, *LIB
        ) + envelope_bytes(lib_record, "other.jsl", "var x = 1;")
        # A replaced entry is re-measured.
        smaller = dataclasses.replace(lib_record, site_feedback={})
        store.put(*LIB, smaller)
        assert store.status()["bytes"] == envelope_bytes(
            smaller, *LIB
        ) + envelope_bytes(lib_record, "other.jsl", "var x = 1;")


# -- the trust boundary --------------------------------------------------------


def corrupt_a_slot(record) -> None:
    site_key = next(iter(record.site_slots))
    record.site_slots[site_key] = [SiteSlot(10**6, 0)]


class TestTrustBoundary:
    """A decoded record is validated again at admission, whatever
    happened to it after decode."""

    def decoded(self, record):
        return record_from_envelope(record_to_envelope(record))

    def test_decoded_record_changed_in_place_is_rejected(self, lib_record):
        record = self.decoded(lib_record)
        engine = Engine(config=CONFIG, seed=3)
        admitted = engine.run([LIB], icrecord=record)
        assert admitted.counters.ric_records_rejected == 0
        assert admitted.counters.ric_preloads > 0
        corrupt_a_slot(record)
        profile = engine.run([LIB], icrecord=record)
        assert profile.counters.ric_records_rejected == 1
        assert profile.counters.ric_preloads == 0
        assert profile.console_output == admitted.console_output

    def test_copy_of_decoded_record_with_a_corrupt_slot_is_rejected(self, lib_record):
        record = copy.deepcopy(self.decoded(lib_record))
        corrupt_a_slot(record)
        profile = Engine(config=CONFIG, seed=3).run([LIB], icrecord=record)
        assert profile.counters.ric_records_rejected == 1

    @needs_unix_sockets
    def test_structurally_invalid_daemon_envelope_is_a_fallback(
        self, daemon, lib_record
    ):
        """A checksum that matches does not make a payload trustworthy:
        the client's decode still refuses it, as a transport fault."""
        from repro.ric.serialize import ICRECORD_FORMAT_VERSION
        from repro.server import RemoteRecordStore
        from repro.server.protocol import cache_key

        bad = copy.deepcopy(lib_record)
        corrupt_a_slot(bad)
        envelope = record_to_envelope(bad)
        key = cache_key(LIB[0], source_hash(LIB[1]), ICRECORD_FORMAT_VERSION)
        daemon.cache.put(key, (envelope, daemon.epoch), 100)
        reader = RemoteRecordStore(daemon.socket_path)
        try:
            assert reader.get(*LIB) is None
        finally:
            reader.close()
        assert reader.stats["fallbacks"] == 1 and reader.stats["hits"] == 0
