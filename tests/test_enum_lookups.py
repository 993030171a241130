"""No enum member lookup and no Python-level enum hash per token,
instruction or IC access.

On CPython 3.11 a ``Kind.MEMBER`` lookup runs the enum metaclass's
attribute hook (~0.18 us, against ~0.02 us for a local), and a plain
``Enum`` member hashes through ``Enum.__hash__``, a Python call.  Hot
code therefore reads members from the plain-attribute view defined next
to each enum, and ``TokenKind`` hashes by identity (docs/INTERNALS.md
§8).  This guard counts both in the loads the page-load benchmark makes:
a first visit of each library, a returning visit of the seven-library
page, and RIC and conventional runs of a long-running engine.  Counts do
not depend on timing or on the interpreter version; the limit leaves
room for set-up and error paths, while a member lookup on a hot path
costs thousands per load.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.ric import RecordStore
from repro.workloads import WORKLOADS, polyshapes, typedarith
from tests.helpers import count_enum_use

#: Lookups, and separately hashes, one load may make.
LIMIT = 100

PAGE = [(f"{name}.jsl", WORKLOADS[name].source) for name in sorted(WORKLOADS)]
HOT_SCRIPTS = [("typedarith.jsl", typedarith.SOURCE), ("polyshapes.jsl", polyshapes.SOURCE)]


def assert_few(load) -> None:
    """Run ``load`` under the counter and hold both counts to ``LIMIT``."""
    with count_enum_use() as counts:
        load()
    for what, counter in (("lookups", counts.lookups), ("hashes", counts.hashes)):
        total = sum(counter.values())
        assert total <= LIMIT, (
            f"{total} enum member {what} in one load (limit {LIMIT}); "
            f"top callers:\n{counts.report(counter)}"
        )


@pytest.mark.parametrize("library", sorted(WORKLOADS))
def test_first_visit(library, tmp_path):
    """A never-seen library: lex, parse, compile, optimize, encode into the
    code cache, run, extract and publish its record."""
    # Warm the process (imports, builtins) on another copy of the source.
    Engine(seed=1).run([(f"{library}.jsl", "//\n" + WORKLOADS[library].source)])

    def load():
        engine = Engine(cache_dir=str(tmp_path), record_store=RecordStore(), seed=2)
        profile = engine.run([(f"{library}.jsl", WORKLOADS[library].source)], use_store=True)
        assert profile.counters.bytecode_cache_misses == 1
        assert engine.publish_records() == 1

    assert_few(load)


def test_returning_visit(tmp_path):
    """The seven-library page over a warm code cache and published
    records: decode, record admission, quickening, preloading, deopts."""
    store = RecordStore()
    first = Engine(cache_dir=str(tmp_path), record_store=store, seed=1)
    first.run(PAGE, use_store=True)
    assert first.publish_records() == len(PAGE)

    def load():
        engine = Engine(cache_dir=str(tmp_path), record_store=store, seed=2)
        profile = engine.run(PAGE, use_store=True)
        assert profile.counters.bytecode_cache_misses == 0
        assert profile.counters.ric_preloads > 0

    load()  # warm: the first returning load imports what reuse runs need
    assert_few(load)


@pytest.mark.parametrize("reuse", [True, False], ids=["ric", "conventional"])
def test_long_running_engine(reuse):
    """Repeated runs in one warm engine, with and without its record:
    interpreter dispatch, IC tiers and quickened operators."""
    engine = Engine(seed=1)
    engine.run(HOT_SCRIPTS)
    record = engine.extract_icrecord() if reuse else None

    def load():
        profile = engine.run(HOT_SCRIPTS, icrecord=record, seed=2)
        assert profile.counters.bytecode_cache_misses == 0

    load()  # warm, as a long-running engine is
    assert_few(load)
