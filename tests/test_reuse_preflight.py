"""The reuse pre-flight: cheaper, and observationally identical.

Between fetching its records and executing its first instruction, a
reuse run writes fetched records back into the local fallback store,
decodes, admits, quickens and wires one reuse session per record.  Two
shortcuts live there, and this module pins that neither is visible:

* a memory-only ``RecordStore`` keeps a ``put`` record without encoding
  it, and sizes it only when ``status()`` asks;
* ``MultiReuseSession`` offers a new hidden class only to the sessions
  whose record has a TOAST entry for it, and counts the other sessions'
  lookups in one step.

The counter golden pins every counter of seven-library page loads in
three orders, plus a naive-match (``validate=False``) load, as the
unindexed fan-out produced them.  Regenerate it only for an intentional
counter change, and review the diff::

    RIC_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_reuse_preflight.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import socket
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
from repro.workloads import WORKLOADS

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


def page(order) -> list[tuple[str, str]]:
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in order]


def page_order(seed: int) -> list[str]:
    return random.Random(seed).sample(LIBRARIES, len(LIBRARIES))


def all_counters(counters) -> dict:
    """Every counter field (``as_dict`` omits some, e.g. TOAST lookups)
    plus the derived values ``as_dict`` reports, as plain JSON data."""
    return json.loads(json.dumps({**dataclasses.asdict(counters), **counters.as_dict()}))


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory) -> Path:
    """Per-file records of one first visit, published to a directory
    store, so every reuse load decodes them from disk."""
    directory = tmp_path_factory.mktemp("records")
    engine = Engine(config=CONFIG, seed=7, record_store=RecordStore(directory=directory))
    engine.run(page(LIBRARIES), use_store=True)
    assert engine.publish_records() == len(LIBRARIES)
    return directory


@pytest.fixture(scope="module")
def loads(record_dir):
    """name -> (profile, ReuseSession.on_hidden_class_created calls)."""
    calls = [0]
    original = ReuseSession.on_hidden_class_created

    def counting(self, hc):
        calls[0] += 1
        return original(self, hc)

    runs = [(f"order-{seed}", page_order(seed), seed, CONFIG) for seed in ORDER_SEEDS]
    runs.append(
        ("naive-match", page_order(ORDER_SEEDS[0]), ORDER_SEEDS[0],
         dataclasses.replace(CONFIG, validate=False))
    )
    out = {}
    ReuseSession.on_hidden_class_created = counting
    try:
        for name, order, seed, config in runs:
            calls[0] = 0
            store = RecordStore(directory=record_dir)
            assert store.load_errors == []
            engine = Engine(config=config, seed=seed, record_store=store)
            profile = engine.run(page(order), use_store=True)
            out[name] = (profile, calls[0])
    finally:
        ReuseSession.on_hidden_class_created = original
    return out


class TestFanOutCounters:
    def test_counters_match_golden(self, loads):
        actual = {name: all_counters(profile.counters) for name, (profile, _) in loads.items()}
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
        profile, _ = loads[name]
        c = profile.counters
        assert c.ric_preloads > 0 and c.ric_records_rejected == 0
        assert c.ric_toast_lookups == len(LIBRARIES) * c.hidden_classes_created

    @pytest.mark.parametrize("name", [f"order-{seed}" for seed in ORDER_SEEDS])
    def test_index_skips_sessions_without_a_toast_entry(self, loads, name):
        profile, calls = loads[name]
        assert 0 < calls < len(LIBRARIES) * profile.counters.hidden_classes_created

    def test_naive_match_still_visits_every_session(self, loads):
        profile, calls = loads["naive-match"]
        hidden_classes = profile.counters.hidden_classes_created
        assert calls == len(LIBRARIES) * hidden_classes
        assert profile.counters.ric_toast_lookups == calls


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
