"""Chaos suite for the hardened ICRecord persistence path.

The contract under test: **no injected fault may change program results
or crash the VM** — the worst allowed outcome is losing the speedup for
the damaged record, visibly (degradation counters, store load errors,
quarantine files).  Every fault class in ``repro.faults.FAULTS`` is
driven through the full engine, several seeds each.
"""

import random

import pytest

from repro.core.engine import Engine
from repro.faults import FAULTS, FaultyRecordStore, inject_fault
from repro.harness.reporting import degradation_row, render_degradation
from repro.ric import (
    CorruptRecord,
    RecordStore,
    save_icrecord,
    try_load_icrecord,
)
from tests.helpers import run_cold_and_reused

LIB_SOURCE = """
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function () { return this.x + this.y; };
var acc = 0;
for (var i = 0; i < 20; i = i + 1) {
  var p = new Point(i, i + 1);
  acc = acc + p.norm1();
}
console.log("lib total:", acc);
"""

APP_SOURCE = """
var cfg = { depth: 3, label: "app" };
var sum = 0;
for (var j = 0; j < 10; j = j + 1) { sum = sum + cfg.depth; }
console.log("app:", cfg.label, sum);
"""

WORKLOAD = [("lib.jsl", LIB_SOURCE), ("app.jsl", APP_SOURCE)]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One Initial run + extraction, persisted once; each test copies it."""
    directory = tmp_path_factory.mktemp("records")
    engine = Engine(seed=31)
    engine.run(WORKLOAD, name="initial")
    record = engine.extract_icrecord()
    path = directory / "record.icrecord.json"
    save_icrecord(record, path)
    return path.read_bytes()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_degrades_to_cold_start(fault, pristine, tmp_path):
    """For every fault class: identical output to cold start, no uncaught
    exception, degradation visible in Counters.as_dict()."""
    path = tmp_path / "record.icrecord.json"
    for trial in range(5):
        path.write_bytes(pristine)
        inject_fault(path, fault, random.Random(1000 * trial + 7))

        loaded = try_load_icrecord(path)
        assert not isinstance(loaded, Engine)  # sanity: record or placeholder

        # icrecord= skips the helper's Initial run, so ``cold`` is this
        # engine's first — truly cold — run.
        runs = run_cold_and_reused(WORKLOAD, seed=57, name="damaged", icrecord=loaded)

        assert runs.outputs_identical, (fault, trial)
        snapshot = runs.reused.counters.as_dict()
        assert snapshot["ric_records_degraded"] > 0, (fault, trial)
        assert runs.reused.counters.ric_preloads == 0, (fault, trial)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_healthy_record_still_reuses(fault, pristine, tmp_path):
    """Control arm: without injection the same pipeline does preload."""
    path = tmp_path / "record.icrecord.json"
    path.write_bytes(pristine)
    loaded = try_load_icrecord(path)
    assert not isinstance(loaded, CorruptRecord)
    runs = run_cold_and_reused(WORKLOAD, seed=57, name="ric", icrecord=loaded)
    assert runs.outputs_identical
    assert runs.reused.counters.ric_preloads > 0
    assert runs.reused.counters.as_dict()["ric_records_degraded"] == 0


def test_one_bad_record_does_not_poison_the_page(tmp_path):
    """Per-script records: the corrupt one cold-starts, the rest reuse."""
    engine = Engine(seed=23)
    engine.run(WORKLOAD, name="initial")
    records = engine.extract_per_script_records()
    assert set(records) == {"lib.jsl", "app.jsl"}

    bad = CorruptRecord(source="app.jsl", error="simulated storage rot")
    cold = engine.run(WORKLOAD, name="cold")
    mixed = engine.run(
        WORKLOAD, name="mixed", icrecord=[records["lib.jsl"], bad]
    )
    assert mixed.console_output == cold.console_output
    assert mixed.counters.ric_records_corrupt == 1
    assert mixed.counters.ric_preloads > 0  # lib.jsl still accelerated


def test_non_record_icrecord_is_a_typed_error():
    """Programmer error (not data corruption) gets a clear TypeError."""
    engine = Engine(seed=1)
    with pytest.raises(TypeError, match="ICRecord or CorruptRecord"):
        engine.run(WORKLOAD, name="bogus", icrecord="not a record")


@pytest.mark.parametrize("fault", ["truncation", "bit_flip", "field_mutation"])
def test_faulty_store_entries_are_quarantined(fault, tmp_path):
    """Damage written through the store is refused, counted, and moved to
    ``*.corrupt`` by the next honest reader."""
    engine = Engine(seed=11)
    engine.run(WORKLOAD, name="initial")
    records = engine.extract_per_script_records()

    faulty = FaultyRecordStore(tmp_path, fault=fault, probability=1.0, seed=3)
    for filename, source in WORKLOAD:
        faulty.put(filename, source, records[filename])
    assert len(faulty.injected) == len(WORKLOAD)

    fresh = RecordStore(directory=tmp_path)
    assert len(fresh) == 0
    assert len(fresh.load_errors) == len(WORKLOAD)
    assert len(list(tmp_path.glob("*.corrupt"))) == len(WORKLOAD)
    assert list(tmp_path.glob("*.icrecord.json")) == []

    # The degraded page still runs and matches cold-start output.
    cold = engine.run(WORKLOAD, name="cold")
    degraded = engine.run(
        WORKLOAD, name="degraded", icrecord=fresh.records_for(WORKLOAD)
    )
    assert degraded.console_output == cold.console_output


def test_faulty_store_partial_probability(tmp_path):
    """probability<1 damages some entries; the survivors still load."""
    engine = Engine(seed=11)
    engine.run(WORKLOAD, name="initial")
    records = engine.extract_per_script_records()
    faulty = FaultyRecordStore(
        tmp_path, fault="truncation", probability=0.5, seed=5
    )
    for round_trip in range(4):  # enough puts that both outcomes occur
        for filename, source in WORKLOAD:
            faulty.put(filename, source, records[filename])
    fresh = RecordStore(directory=tmp_path, quarantine=False)
    assert len(fresh) + len(fresh.load_errors) == len(WORKLOAD)


def test_degradation_reporting_surface(pristine, tmp_path):
    """degradation_row/render_degradation expose the new counters."""
    path = tmp_path / "record.icrecord.json"
    path.write_bytes(pristine)
    inject_fault(path, "truncation", random.Random(1))
    engine = Engine(seed=57)
    damaged = engine.run(
        WORKLOAD, name="damaged", icrecord=try_load_icrecord(path)
    )
    row = degradation_row("damaged", damaged.counters)
    assert row["records_corrupt"] == 1
    text = render_degradation([row])
    assert "damaged" in text and "Corrupt" in text
