"""Concurrency stress tests for the artifact layer (INTERNALS §11).

The load-bearing invariant is **single-flight**: when N sessions
cold-start the same script concurrently, exactly one thread compiles;
everyone else blocks and shares the published
:class:`~repro.core.artifacts.ScriptArtifact`.  These
tests drive that invariant directly with barriers so all contenders
really do arrive at the cache at once, plus the counter-atomicity of
the :class:`~repro.bytecode.cache.CodeCache` underneath.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import pytest

import repro.core.artifacts as artifacts_module
from repro.bytecode.cache import CodeCache
from repro.core.artifacts import ArtifactBuilder, ArtifactCache
from repro.core.engine import Engine
from repro.lang.errors import JSLSyntaxError

SOURCE = "var o = {}; o.a = 1; o.b = 2; console.log(o.a + o.b);"

THREADS = 16


def _install_counting_compiler(monkeypatch, delay_s=0.005):
    """Wrap the real frontend with a call counter (and a small sleep to
    widen the race window so losers genuinely contend)."""
    calls = []
    lock = threading.Lock()
    real = artifacts_module.compile_source

    def counting(source, filename):
        with lock:
            calls.append(filename)
        time.sleep(delay_s)
        return real(source, filename)

    monkeypatch.setattr(artifacts_module, "compile_source", counting)
    return calls


def _stampede(worker, count=THREADS):
    """Run ``worker`` on ``count`` threads released by one barrier;
    returns results in thread order, re-raising the first failure."""
    barrier = threading.Barrier(count)

    def gated():
        barrier.wait()
        return worker()

    with ThreadPoolExecutor(max_workers=count) as pool:
        futures = [pool.submit(gated) for _ in range(count)]
        return [future.result() for future in futures]


class CountingStore:
    """Minimal RecordStoreProtocol double that counts GETs."""

    def __init__(self, record=None, delay_s=0.005):
        self.record = record
        self.delay_s = delay_s
        self.gets = 0
        self._lock = threading.Lock()

    def get(self, filename, source):
        with self._lock:
            self.gets += 1
        time.sleep(self.delay_s)
        return self.record

    def put(self, filename, source, record):  # pragma: no cover - unused
        pass

    def records_for(self, scripts):
        return [
            record
            for record in (self.get(filename, source) for filename, source in scripts)
            if record is not None
        ]


class TestSingleFlight:
    def test_sixteen_concurrent_cold_starts_compile_once(self, monkeypatch):
        calls = _install_counting_compiler(monkeypatch)
        engine = Engine(seed=1)

        results = _stampede(
            lambda: engine.artifacts.get_or_build("a.jsl", SOURCE)
        )

        assert len(calls) == 1  # the single-flight assertion
        first_artifact = results[0][0]
        assert all(artifact is first_artifact for artifact, _ in results)
        # Exactly one contender paid the frontend (hit flag False); the
        # other 15 joined or hit and report the frontend as skipped.
        assert sum(1 for _, hit in results if not hit) == 1
        stats = engine.artifacts.stats()
        assert stats.builds == 1
        assert stats.hits + stats.joins == THREADS - 1
        # CodeCache global counters keep their legacy meaning: one run
        # paid the frontend, fifteen skipped it.
        assert engine.code_cache.misses == 1
        assert engine.code_cache.hits == THREADS - 1

    def test_build_error_reaches_every_joiner_and_is_not_cached(self):
        cache = ArtifactCache(ArtifactBuilder(CodeCache()))
        barrier = threading.Barrier(8)
        errors = []

        def cold_start():
            barrier.wait()
            try:
                cache.get_or_build("bad.jsl", "var = ;")
            except JSLSyntaxError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=cold_start) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(errors) == 8  # leader and joiners all see the failure
        assert len(cache) == 0  # failed builds are never published
        with pytest.raises(JSLSyntaxError):
            cache.get_or_build("bad.jsl", "var = ;")  # and retries re-raise


class TestArtifactImmutability:
    def test_artifact_fields_are_frozen(self, engine):
        artifact, _ = engine.artifacts.get_or_build("a.jsl", SOURCE)
        with pytest.raises(FrozenInstanceError):
            artifact.code = object()
        with pytest.raises(FrozenInstanceError):
            artifact.filename = "b.jsl"

    def test_bytecode_heap_bytes_matches_session_charge(self, engine):
        artifact, _ = engine.artifacts.get_or_build("a.jsl", SOURCE)
        profile = engine.run([("a.jsl", SOURCE)], name="t")
        assert profile.heap_bytes >= artifact.bytecode_heap_bytes > 0


class TestCodeCacheCounters:
    def test_counters_atomic_under_hammering(self):
        cache = CodeCache()
        threads, iterations = 8, 100
        sources = {f"s{i}.jsl": f"var x{i} = {i};" for i in range(threads)}
        # Phase 1: each thread cold-compiles its own script (one miss each).
        engine_builder = ArtifactBuilder(cache)

        def cold(filename, source):
            engine_builder.compile(filename, source)

        _stampede_pairs = list(sources.items())
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [
                pool.submit(cold, filename, source)
                for filename, source in _stampede_pairs
            ]:
                future.result()
        assert cache.misses == threads

        # Phase 2: everyone hammers lookups of every script concurrently.
        def hammer():
            for _ in range(iterations):
                for filename, source in _stampede_pairs:
                    assert cache.lookup(filename, source) is not None

        _stampede(hammer, count=threads)
        assert cache.hits == threads * threads * iterations
        assert cache.misses == threads  # unchanged by the hit storm

    def test_note_hit_is_atomic(self):
        cache = CodeCache()
        threads, iterations = 8, 500

        def bump():
            for _ in range(iterations):
                cache.note_hit()

        _stampede(bump, count=threads)
        assert cache.hits == threads * iterations
