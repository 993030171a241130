"""A seven-library RIC page load stays under CPython's full-collection
threshold.

A gen-2 (full) collection walks every tracked object of the process: in
a fresh interpreter's page load it takes 16-23 ms, more than most reuse
layers, and longer in a process that holds more objects.  Code
cache entries share their equal instruction and position tuples
(docs/INTERNALS.md §1) so that a load allocates few enough tracked objects
to take none.  The counts are measured in a fresh interpreter, since
garbage this test process already holds would shift them.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_PROBE = textwrap.dedent(
    """
    import gc, json, sys, tempfile
    from repro import Engine
    from repro.ric import RecordStore
    from repro.workloads import WORKLOADS

    page = [(f"{name}.jsl", WORKLOADS[name].source) for name in sorted(WORKLOADS)]

    def automatic_collections(load):
        counts = [0, 0, 0]

        def hook(phase, info):
            if phase == "stop":
                counts[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(hook)
        try:
            load()
        finally:
            gc.callbacks.remove(hook)
        return counts

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir, records = f"{tmp}/code-cache", f"{tmp}/records"
        first = Engine(cache_dir=cache_dir, record_store=RecordStore(directory=records), seed=1)
        first.run(page, use_store=True)
        assert first.publish_records() == len(page)
        del first

        def ric_load():
            store = RecordStore(directory=records)
            engine = Engine(cache_dir=cache_dir, record_store=store, seed=2)
            profile = engine.run(page, use_store=True)
            assert profile.counters.ric_preloads > 0
            assert profile.counters.bytecode_cache_misses == 0

        def conventional_load():
            profile = Engine(cache_dir=cache_dir, seed=2).run(page)
            assert profile.counters.bytecode_cache_misses == 0

        print(json.dumps({
            "threshold": gc.get_threshold(),
            "ric": automatic_collections(ric_load),
            "conventional": automatic_collections(conventional_load),
        }))
    """
)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="allocation counts were measured on CPython 3.11 only",
)
def test_page_loads_take_no_full_collection():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src")},
        cwd=str(root),
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    if tuple(counts["threshold"]) != (700, 10, 10):
        pytest.skip(f"GC thresholds {counts['threshold']}, measured at (700, 10, 10)")
    for kind in ("ric", "conventional"):
        young, middle, full = counts[kind]
        # At (700, 10, 10), every 12th collection is a gen-1 one and the
        # 133rd is the first that may be full, so a load's margin is
        # 132 - young - middle collections (15 for the RIC load when
        # this test was written).
        assert full == 0, (
            f"{kind} page load took {full} gen-2 collection(s) "
            f"after {young} gen-0 and {middle} gen-1"
        )
