"""Differential concurrency oracle for the executor layer.

The contract (INTERNALS §11): N sessions sharing one artifact cache
produce results **bit-identical** to the same N requests run solo —
concurrency must never change what a run computes, only when it runs.
The oracle is therefore differential: every ``run_many(jobs=N)`` batch
is compared counter-for-counter against its sequential twin (same
seeds, same artifacts, same records).
"""

import dataclasses

import pytest

from repro.core.budget import ExecutionBudget
from repro.core.engine import Engine
from repro.core.errors import BudgetExceeded, ExecutionAborted
from repro.core.executor import EngineExecutor, RunRequest
from repro.harness.bench import bench_workloads
from repro.lang.errors import JSLRuntimeError, JSLSyntaxError
from repro.ric.store import RecordStore
from repro.specialize.quicken import count_specialized_sites
from tests.test_specialize import APP_NUMERIC, APP_STRINGS, LIB

SOURCE = """
function T(v) { this.v = v; }
var items = [new T(1), new T(2), new T(3)];
var total = 0;
for (var i = 0; i < items.length; i++) { total += items[i].v; }
console.log("total", total);
"""


def _fingerprint(outcome):
    """Everything a run computes, as comparable data."""
    return _profile_fingerprint(outcome.profile)


def _profile_fingerprint(profile):
    return {
        "counters": dataclasses.asdict(profile.counters),
        "console": profile.console_output,
        "heap_bytes": profile.heap_bytes,
        "mode": profile.mode,
        "scripts": profile.scripts,
    }


class TestDifferentialOracle:
    @pytest.mark.slow
    def test_concurrent_counters_bit_identical_to_sequential(self):
        """The acceptance oracle: jobs=4 over the ten workloads (one
        warmed reuse run each) against their jobs=1 twins."""
        engine = Engine(seed=11)
        executor = EngineExecutor(engine)

        requests = []
        for index, (name, scripts) in enumerate(bench_workloads().items()):
            engine.run(scripts, name=f"{name}-warm")
            record = engine.extract_icrecord()
            requests.append(
                RunRequest(
                    scripts=scripts,
                    name=name,
                    icrecord=record,
                    seed=1000 + index,
                )
            )

        sequential = executor.run_many(requests, jobs=1)
        concurrent = executor.run_many(requests, jobs=4)

        assert len(sequential) == len(concurrent) == 10
        for seq, conc in zip(sequential, concurrent):
            assert seq.ok and conc.ok
            assert _fingerprint(seq) == _fingerprint(conc)
        # Reuse actually happened under the pool (not silently cold).
        assert all(
            outcome.profile.counters.ric_validations > 0
            for outcome in concurrent
        )

    def test_seed_draws_are_submission_ordered(self):
        """Unseeded requests draw from the engine's stream at submission
        time, so two identically-seeded engines agree request-for-request
        whatever the pool width."""

        def batch(jobs):
            engine = Engine(seed=77)
            outcomes = EngineExecutor(engine).run_many(
                [RunRequest(scripts=SOURCE, name=f"r{i}") for i in range(6)],
                jobs=jobs,
            )
            return [_fingerprint(outcome) for outcome in outcomes]

        assert batch(1) == batch(4)


class TestIsolation:
    def test_one_failure_never_poisons_the_batch(self):
        engine = Engine(seed=3)
        executor = EngineExecutor(engine)
        requests = [
            RunRequest(scripts=SOURCE, name="ok-1"),
            RunRequest(scripts="var = ;", name="syntax"),
            RunRequest(scripts="nope();", name="guest-throw"),
            RunRequest(scripts=SOURCE, name="ok-2"),
        ]
        outcomes = executor.run_many(requests, jobs=4)

        # Outcomes come back in submission order, each tied to its request.
        assert [outcome.request for outcome in outcomes] == requests
        ok1, syntax, guest, ok2 = outcomes
        assert ok1.ok and ok2.ok
        assert ok1.profile.console_output == ["total 6"]
        assert ok2.profile.console_output == ["total 6"]
        assert isinstance(syntax.error, JSLSyntaxError)
        assert not syntax.ok and syntax.profile is None
        assert isinstance(guest.error, JSLRuntimeError)
        # The engine stays fully usable after a mixed batch.
        assert engine.run(SOURCE, name="after").console_output == ["total 6"]

    def test_budget_abort_is_captured_per_session(self):
        engine = Engine(seed=3)
        executor = EngineExecutor(engine)
        outcomes = executor.run_many(
            [
                RunRequest(
                    scripts="while (true) { }",
                    name="runaway",
                    budget=ExecutionBudget(max_steps=500),
                ),
                RunRequest(scripts=SOURCE, name="ok"),
            ],
            jobs=2,
        )
        runaway, ok = outcomes
        assert isinstance(runaway.error, BudgetExceeded)
        assert isinstance(runaway.error, ExecutionAborted)
        # The partial profile rides along, flagged as aborted.
        assert runaway.profile is not None
        assert runaway.profile.mode.endswith("-aborted")
        assert ok.ok and ok.profile.console_output == ["total 6"]


class TestSharedCaches:
    def test_stampede_through_run_many_compiles_once(self, monkeypatch):
        import repro.core.artifacts as artifacts_module

        calls = []
        real = artifacts_module.compile_source
        monkeypatch.setattr(
            artifacts_module,
            "compile_source",
            lambda source, filename: (calls.append(filename), real(source, filename))[1],
        )
        engine = Engine(seed=5)
        outcomes = EngineExecutor(engine).run_many(
            [
                RunRequest(scripts=[("hot.jsl", SOURCE)], name=f"r{i}")
                for i in range(12)
            ],
            jobs=6,
        )
        assert all(outcome.ok for outcome in outcomes)
        assert len(calls) == 1
        assert engine.artifacts.stats().builds == 1

    def test_use_store_fetches_once_per_request(self):
        from tests.test_artifacts import CountingStore

        warm = Engine(seed=9)
        warm.run([("a.jsl", SOURCE)], name="warm")
        record = warm.extract_icrecord()
        scripts = [("a.jsl", SOURCE)]
        requests = [
            RunRequest(scripts=scripts, name=f"r{i}", use_store=True)
            for i in range(8)
        ]

        for jobs in (1, 4):
            store = CountingStore(record=record)
            engine = Engine(seed=9, record_store=store)
            outcomes = EngineExecutor(engine).run_many(requests, jobs=jobs)
            # One records_for per request, as Engine.run does; this store
            # has no GET flights of its own, so every request costs a GET.
            assert store.gets == len(requests) * len(scripts)
            for outcome in outcomes:
                assert outcome.ok
                assert outcome.profile.mode == "reuse-ric"
                assert outcome.profile.counters.ric_validations > 0

    def test_sessions_remain_extractable(self):
        engine = Engine(seed=13)
        outcomes = EngineExecutor(engine).run_many(
            [RunRequest(scripts=[("a.jsl", SOURCE)], name="r")], jobs=1
        )
        record = outcomes[0].session.extract_icrecord()
        reused = engine.run([("a.jsl", SOURCE)], name="r", icrecord=record)
        assert reused.mode == "reuse-ric"
        assert reused.counters.ric_validations > 0


class TestStoreRecordsPerRequest:
    """A store-fetched record is quickened inside each session, never on
    the shared artifact, so one request's deopt cannot rewrite the
    program a later request runs.  The scenario is the deopt chain of
    ``tests/test_specialize.py``: ``lib.jsl``'s record was trained under
    a numeric application, and every request below runs it under one
    that pushes strings through the same ``add`` site."""

    SCRIPTS = [("lib.jsl", LIB), ("app2.jsl", APP_STRINGS)]
    REQUESTS = 8

    @staticmethod
    def _trained_store() -> RecordStore:
        trainer = Engine(seed=11, record_store=RecordStore())
        trainer.run([("lib.jsl", LIB), ("app1.jsl", APP_NUMERIC)], name="train")
        assert trainer.publish_records() == 2
        return trainer.record_store

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_every_request_matches_engine_run(self, jobs):
        store = self._trained_store()
        reference = Engine(seed=1, record_store=store)
        engine = Engine(seed=1, record_store=store)
        # Warm both artifact caches, so every run below skips the
        # frontend whichever pool thread reaches a script first.
        reference.artifacts.get_many(self.SCRIPTS)
        engine.artifacts.get_many(self.SCRIPTS)
        seeds = [500 + index for index in range(self.REQUESTS)]

        expected = [
            reference.run(self.SCRIPTS, name=f"r{index}", seed=seed, use_store=True)
            for index, seed in enumerate(seeds)
        ]
        outcomes = EngineExecutor(engine).run_many(
            [
                RunRequest(
                    scripts=self.SCRIPTS,
                    name=f"r{index}",
                    seed=seed,
                    use_store=True,
                )
                for index, seed in enumerate(seeds)
            ],
            jobs=jobs,
        )

        quickening = engine.config.specialize
        for index, (want, outcome) in enumerate(zip(expected, outcomes), 1):
            assert outcome.ok, f"request {index}: {outcome.error}"
            assert want.mode == "reuse-ric"
            assert want.counters.specialized_sites == int(quickening)
            assert want.counters.deopts == int(quickening)
            assert _profile_fingerprint(outcome.profile) == _profile_fingerprint(
                want
            ), f"request {index} differs from Engine.run"

    @pytest.mark.parametrize(
        "app, deopts", [(APP_STRINGS, 1), (APP_NUMERIC, 0)], ids=["deopt", "stable"]
    )
    def test_artifact_code_stays_generic(self, app, deopts):
        engine = Engine(seed=1, record_store=self._trained_store())
        scripts = [("lib.jsl", LIB), ("app.jsl", app)]
        (outcome,) = EngineExecutor(engine).run_many(
            [RunRequest(scripts=scripts, name="reuse", use_store=True)]
        )
        assert outcome.ok
        quickening = int(engine.config.specialize)
        assert outcome.profile.counters.specialized_sites == quickening
        assert outcome.profile.counters.deopts == deopts * quickening
        for filename, source in scripts:
            artifact, _ = engine.artifacts.get_or_build(filename, source)
            assert count_specialized_sites(artifact.code) == 0
            assert artifact.code == Engine().compile(filename, source)
