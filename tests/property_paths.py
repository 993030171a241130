"""Fingerprints of the property-path corpora, pinned by a golden.

The named-property IC has one hit path: the VM's inline slot probe
(``VM._op_get_prop``/``_op_set_prop``), with ``ICRuntime.named_load``/
``named_store`` as the miss path.  ``tests/golden/property_paths.json``
was made while the corpora were still cross-checked against a second,
generic hit path, and both paths agreed on every entry; the corpus
tests (``test_dispatch_table.py``, ``test_fuzz_programs.py``) check
against it.

Per corpus program the golden holds every counter in full, and the
SHA-256 of the console output, of the serialized user heap
(:func:`~repro.baselines.snapshot.serialize_user_globals`) and of the
per-site IC transcript (state, hidden-class address, handler kind).
Engine programs are fingerprinted cold and reused, each with
``RICConfig(specialize=True)`` and ``specialize=False`` set explicitly,
so ``RIC_SPECIALIZE`` does not change what is checked.  Regenerate it
only for an intentional change, and review the diff::

    RIC_REGOLD=1 PYTHONPATH=src python -m pytest tests/test_dispatch_table.py tests/test_fuzz_programs.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.baselines.snapshot import serialize_user_globals
from repro.core.config import RICConfig
from repro.core.engine import Engine
from tests.helpers import all_counters

GOLDEN = Path(__file__).resolve().parent / "golden" / "property_paths.json"
REGOLD = os.environ.get("RIC_REGOLD") == "1"


def sha256_of(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def ic_transcript(feedback) -> list[tuple]:
    """Canonical per-site IC state: comparable across two identical runs
    (hidden-class addresses are deterministic for a fixed seed)."""
    return [
        (
            site.info.site_key,
            site.state.value,
            tuple(
                (hc.address, handler.kind, handler.is_context_independent)
                for hc, handler in site.slots
            ),
        )
        for site in feedback.all_sites()
    ]


def fingerprint(counters, output, runtime, feedback) -> dict:
    """One run: every counter, and digests of output, heap and IC
    transcript."""
    return {
        "counters": all_counters(counters),
        "output": sha256_of(output),
        "heap": sha256_of(serialize_user_globals(runtime)),
        "ic": sha256_of(ic_transcript(feedback)),
    }


def protocol_fingerprints(source: str, seed: int = 9) -> dict:
    """The full protocol (cold -> extract -> reuse), once with quickening
    on and once with it off."""
    result = {}
    for specialize in (False, True):
        engine = Engine(config=RICConfig(specialize=specialize), seed=seed)
        runs = {}
        for phase in ("cold", "reused"):
            record = engine.extract_icrecord() if phase == "reused" else None
            profile = engine.run(source, name="fuzz", icrecord=record)
            session = engine.last_run
            runs[phase] = fingerprint(
                profile.counters,
                profile.console_output,
                session.runtime,
                session.feedback,
            )
        result[f"specialize={int(specialize)}"] = runs
    return result


def golden_entry(name: str, actual: dict) -> dict:
    """The golden entry ``name``; under ``RIC_REGOLD=1`` write ``actual``
    as that entry first."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if REGOLD:
        golden[name] = actual
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert name in golden, f"no golden for {name}; run with RIC_REGOLD=1"
    return golden[name]
