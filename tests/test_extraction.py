"""The extraction phase (paper §5.2.1): one routine, two record kinds.

Whole-run records (``extract_icrecord``) and per-file records
(``extract_per_script_records``) come from the same extraction routine.
Two walls pin it:

* ``tests/golden/records.json`` holds the SHA-256 of every canonical
  serialized record (``extraction_time_ms`` zeroed) of the ten bench
  workloads and of the seven libraries in website-A order, at engine
  seed 11.  Any byte a refactor moves in any record fails it.
* The ambiguity rule: a creation key that made two hidden classes for
  one ``(incoming, property)`` cannot identify either of them, so
  neither record kind may link either class to a site.

Regenerate the golden only for an intentional record change, and
review the diff::

    RIC_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_extraction.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.harness.bench import bench_workloads
from repro.ric.serialize import record_to_json
from repro.workloads import website_a

GOLDEN = Path(__file__).resolve().parent / "golden" / "records.json"
REGOLD = os.environ.get("RIC_REGOLD") == "1"
SEED = 11
CONFIG = RICConfig(specialize=True)


def digest(record) -> str:
    payload = record_to_json(record)
    payload["extraction_time_ms"] = 0.0
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def record_digests(scripts) -> dict:
    engine = Engine(config=CONFIG, seed=SEED)
    engine.run(scripts)
    return {
        "whole": digest(engine.extract_icrecord()),
        "per_file": {
            filename: digest(record)
            for filename, record in sorted(
                engine.extract_per_script_records().items()
            )
        },
    }


def golden_workloads() -> dict:
    workloads = dict(bench_workloads())
    workloads["website-a"] = website_a()
    return workloads


@pytest.mark.parametrize("name", sorted(golden_workloads()))
def test_records_match_golden(name):
    actual = record_digests(golden_workloads()[name])
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if REGOLD:
        golden[name] = actual
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert name in golden, f"no golden for {name}; run with RIC_REGOLD=1"
    assert actual == golden[name], f"{name}: a record's bytes changed"


def test_golden_covers_every_workload():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(golden_workloads())
    assert len(golden["website-a"]["per_file"]) == 7


# -- the ambiguity rule -------------------------------------------------------

#: Two closures of one constructor declaration: both share the creation
#: key ``ctor:amb.jsl:3:3#C:0`` and make one hidden class each, with the
#: same (no incoming class, no property) signature.  One call site reads
#: ``m`` from instances of both.
AMBIGUOUS = (
    "amb.jsl",
    """
function make() {
  function C() {}
  C.prototype.m = function () { return 1; };
  return C;
}
var A = make();
var B = make();
function call(o) { return o.m(); }
var t = 0;
for (var i = 0; i < 6; i = i + 1) { t = t + call(new A()) + call(new B()); }
console.log("total", t);
""",
)
SHARED_KEY = "ctor:amb.jsl:3:3#C:0"

#: Counters of a reuse run from either record, taken before the rule
#: was fixed: the reuse path reads only validated rows, so excluding
#: the ambiguous classes from the records moves no counter.
REUSE_COUNTERS = {
    "ic_accesses": 88,
    "ic_hits": 60,
    "ic_misses": 28,
    "ic_hits_on_preloaded": 3,
    "ic_hits_mono": 4,
    "ic_hits_poly": 10,
    "ic_poly_transitions": 1,
    "misses_by_reason": {"handler": 0, "global": 25, "other": 3},
    "hidden_classes_created": 29,
    "handlers_generated": 22,
    "ric_validations": 20,
    "ric_preloads": 2,
    "ric_divergences": 0,
    "ric_records_rejected": 0,
    "specialized_sites": 6,
    "specialized_hits": 28,
    "deopts": 0,
    "total_instructions": 11947,
}


@pytest.fixture(scope="module")
def ambiguous_run():
    engine = Engine(config=CONFIG, seed=5)
    cold = engine.run([AMBIGUOUS])
    classes = [
        hc.index
        for hc in engine.last_run.runtime.hidden_classes.all_classes
        if hc.creation_key == SHARED_KEY
    ]
    assert len(classes) == 2
    records = {
        "whole": (engine.extract_icrecord(), classes),
        "per-file": engine.extract_per_script_records()["amb.jsl"],
    }
    # Per-file hcids are record-local: the shared key's classes are the
    # last two rows (nothing after them in the run belongs to the file).
    per_file = records["per-file"]
    local = [per_file.num_hidden_classes - 2, per_file.num_hidden_classes - 1]
    records["per-file"] = (per_file, local)
    return engine, cold, records


@pytest.mark.parametrize("kind", ["whole", "per-file"])
def test_ambiguous_classes_are_linked_nowhere(ambiguous_run, kind):
    _, _, records = ambiguous_run
    record, hcids = records[kind]
    assert SHARED_KEY not in record.toast
    for hcid in hcids:
        # The ambiguous rows stay (hcids do not shift), with no sites.
        assert 0 <= hcid < record.num_hidden_classes
        assert hcid not in record.cd_dependent_sites
    for slots in record.site_slots.values():
        assert not {slot.hcid for slot in slots} & set(hcids)


@pytest.mark.parametrize("kind", ["whole", "per-file"])
def test_reuse_from_either_record_is_unchanged(ambiguous_run, kind):
    engine, cold, records = ambiguous_run
    record, _ = records[kind]
    reused = engine.run([AMBIGUOUS], icrecord=record)
    assert reused.console_output == cold.console_output == ["total 12"]
    counters = reused.counters.as_dict()
    assert {key: counters[key] for key in REUSE_COUNTERS} == REUSE_COUNTERS
