"""Reusable execution helpers for the test suite."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import enum
import json
import sys

import pytest

from repro.bytecode.compiler import compile_source
from repro.core.engine import Engine
from repro.ic.icvector import FeedbackState
from repro.ic.miss import ICRuntime
from repro.interpreter.vm import VM
from repro.runtime.builtins import install_builtins
from repro.runtime.context import Runtime
from repro.stats.counters import Counters


class EnumUseCounts:
    """What :func:`count_enum_use` saw: ``lookups`` and ``hashes``, each a
    ``Counter`` keyed by ``(enum class name, "module:function")`` of the
    caller."""

    def __init__(self) -> None:
        self.lookups: collections.Counter = collections.Counter()
        self.hashes: collections.Counter = collections.Counter()

    def report(self, counter: collections.Counter, top: int = 10) -> str:
        return "\n".join(
            f"  {count:7d}  {kind}.* from {caller}"
            for (kind, caller), count in counter.most_common(top)
        )


@contextlib.contextmanager
def count_enum_use():
    """Count member lookups on enum classes and calls of ``Enum.__hash__``.

    A ``Kind.MEMBER`` lookup runs the enum metaclass's attribute hook on
    CPython 3.11 (~0.18 us, against ~0.02 us for a local) and a plain
    ``Enum`` member hashes through a Python-level ``__hash__``; neither
    belongs on a per-token or per-instruction path (docs/INTERNALS.md
    §8).  The manager installs a ``__getattribute__`` on the metaclass
    that counts every public (non-underscore) name looked up on an enum
    class, and wraps ``enum.Enum.__hash__``; both are restored on exit.
    Counts are keyed by the calling ``module:function``, so they do not
    depend on timing.
    """
    meta = type(enum.Enum)
    own_getattribute = meta.__dict__.get("__getattribute__")
    enum_hash = enum.Enum.__dict__["__hash__"]
    counts = EnumUseCounts()
    # Keyed by class while the hook is in: ``cls.__name__`` would re-enter it.
    lookups: collections.Counter = collections.Counter()
    hashes: collections.Counter = collections.Counter()
    get = type.__getattribute__

    def caller(depth: int) -> str:
        frame = sys._getframe(depth)
        return f"{frame.f_globals.get('__name__')}:{frame.f_code.co_name}"

    def counting_getattribute(cls, name):
        if not name.startswith("_"):
            lookups[(cls, caller(2))] += 1
        return get(cls, name)

    def counting_hash(member):
        hashes[(type(member), caller(2))] += 1
        return enum_hash(member)

    enum.Enum.__hash__ = counting_hash
    meta.__getattribute__ = counting_getattribute
    try:
        yield counts
    finally:
        if own_getattribute is None:
            del meta.__getattribute__
        else:
            meta.__getattribute__ = own_getattribute
        enum.Enum.__hash__ = enum_hash
        for raw, named in ((lookups, counts.lookups), (hashes, counts.hashes)):
            for (cls, where), count in raw.items():
                named[(cls.__name__, where)] += count


def all_counters(counters) -> dict:
    """Every counter field (``as_dict`` omits some, e.g. TOAST lookups)
    plus the derived values ``as_dict`` reports, as plain JSON data."""
    return json.loads(json.dumps({**dataclasses.asdict(counters), **counters.as_dict()}))


class ExecutionResult:
    """Everything a test usually wants from running a jsl snippet."""

    def __init__(self, runtime, counters, feedback, vm, value):
        self.runtime = runtime
        self.counters = counters
        self.feedback = feedback
        self.vm = vm
        self.value = value

    @property
    def console(self) -> list[str]:
        return self.runtime.console_output


def run_jsl(source: str, seed: int = 42, filename: str = "test.jsl") -> ExecutionResult:
    """Compile and execute a snippet in a fresh runtime; return the state."""
    code = compile_source(source, filename)
    runtime = Runtime(seed=seed)
    counters = Counters()

    def on_created(hc):
        counters.hidden_classes_created += 1

    runtime.hidden_classes.on_created = on_created
    install_builtins(runtime)
    feedback = FeedbackState()
    feedback.register_script(code)
    ic_runtime = ICRuntime(runtime, counters)
    vm = VM(runtime, counters, ic_runtime, feedback)
    value = vm.run_code(code)
    return ExecutionResult(runtime, counters, feedback, vm, value)


class ColdReuseRuns:
    """The pair of runs every reuse-oriented test wants, plus their inputs.

    ``cold_state`` / ``reused_state`` are the canonical, address-free
    serializations of the user-visible global heap after each run
    (:func:`repro.baselines.snapshot.serialize_user_globals`) — the
    differential suite's heap-observable-state oracle.
    """

    def __init__(self, engine, record, cold, reused, cold_state, reused_state):
        self.engine = engine
        self.record = record
        self.cold = cold
        self.reused = reused
        self.cold_state = cold_state
        self.reused_state = reused_state

    @property
    def outputs_identical(self) -> bool:
        return self.cold.console_output == self.reused.console_output


def run_cold_and_reused(
    scripts,
    *,
    seed: int = 123,
    name: str = "workload",
    config=None,
    icrecord=None,
    record_from=None,
) -> ColdReuseRuns:
    """Run a workload cold and RIC-reused in one engine.

    By default the record comes from an Initial run of ``scripts`` itself
    (the paper's protocol: Initial -> extract -> cold/Conventional -> RIC).
    Pass ``record_from`` to extract it from a *different* workload
    (cross-workload reuse), or ``icrecord`` to supply one directly (e.g. a
    fault-injected record loaded from disk; the cold run is then the
    engine's first, truly cold run).
    """
    from repro.baselines.snapshot import serialize_user_globals

    engine = Engine(config=config, seed=seed)
    record = icrecord
    if record is None:
        engine.run(record_from if record_from is not None else scripts, name=name)
        record = engine.extract_icrecord()
    cold = engine.run(scripts, name=name)
    cold_state = serialize_user_globals(engine.last_run.runtime)
    reused = engine.run(scripts, name=name, icrecord=record)
    reused_state = serialize_user_globals(engine.last_run.runtime)
    return ColdReuseRuns(
        engine=engine,
        record=record,
        cold=cold,
        reused=reused,
        cold_state=cold_state,
        reused_state=reused_state,
    )


def eval_jsl(expression: str, seed: int = 42) -> object:
    """Evaluate a single jsl expression and return its guest value."""
    result = run_jsl(f"var __result = ({expression});", seed=seed)
    found, value = result.runtime.global_object.get_own("__result")
    assert found, "expression did not produce a result"
    return value


def console_of(source: str, seed: int = 42) -> list[str]:
    """Run a snippet and return its console output lines."""
    return run_jsl(source, seed=seed).console


@pytest.fixture
def engine() -> Engine:
    return Engine(seed=123)


@pytest.fixture
def fresh_runtime() -> Runtime:
    runtime = Runtime(seed=7)
    install_builtins(runtime)
    return runtime
