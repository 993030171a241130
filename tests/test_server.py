"""Daemon + client tests for the cross-process record-cache service.

Everything here runs the real daemon (on a background thread) against
real unix sockets in tmp dirs — but single-process, so it stays fast and
is part of the default suite.  The multi-*process* chaos runs live in
``tests/test_server_chaos.py``.
"""

import json
import socket

import pytest

from repro.core.engine import Engine
from repro.faults import SOCKET_FAULTS, FlakySocketProxy
from repro.ric import RecordStore, record_to_envelope
from repro.ric.serialize import ICRECORD_FORMAT_VERSION
from repro.server import (
    LRUCache,
    RecordCacheDaemon,
    RemoteRecordStore,
    make_record_store,
    protocol,
)
from tests.helpers import run_cold_and_reused

pytestmark = [
    pytest.mark.net,
    pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="unix sockets required"
    ),
]

LIB_SOURCE = """
function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function () { return this.x + this.y; };
var acc = 0;
for (var i = 0; i < 25; i = i + 1) {
  var p = new Point(i, i + 1);
  acc = acc + p.norm1();
}
console.log("lib total:", acc);
"""

APP_SOURCE = """
var cfg = { depth: 3, label: "app" };
var sum = 0;
for (var j = 0; j < 12; j = j + 1) { sum = sum + cfg.depth; }
console.log("app:", cfg.label, sum);
"""

WORKLOAD = [("lib.jsl", LIB_SOURCE), ("app.jsl", APP_SOURCE)]


@pytest.fixture(scope="module")
def extracted(tmp_path_factory):
    """One Initial run's per-script records, shared by the module."""
    engine = Engine(seed=31)
    engine.run(WORKLOAD, name="initial")
    return engine.extract_per_script_records()


@pytest.fixture
def daemon(tmp_path):
    ricd = RecordCacheDaemon(
        tmp_path / "ricd.sock", directory=tmp_path / "records"
    )
    ricd.start()
    yield ricd
    ricd.stop()


def remote(daemon_or_path, **kwargs) -> RemoteRecordStore:
    path = getattr(daemon_or_path, "socket_path", daemon_or_path)
    return RemoteRecordStore(path, **kwargs)


class TestLRUCache:
    def test_count_bound_evicts_least_recent(self):
        cache = LRUCache(max_records=2, max_bytes=1 << 20)
        cache.put("a", {"n": 1}, 10)
        cache.put("b", {"n": 2}, 10)
        assert cache.get("a") == {"n": 1}  # refresh a; b is now LRU
        assert cache.put("c", {"n": 3}, 10) == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.evictions == 1

    def test_byte_bound_evicts(self):
        cache = LRUCache(max_records=100, max_bytes=25)
        cache.put("a", {}, 10)
        cache.put("b", {}, 10)
        assert cache.put("c", {}, 10) == 1  # 30 bytes > 25: drop "a"
        assert cache.bytes_used == 20
        assert len(cache) == 2

    def test_entry_bigger_than_budget_is_refused(self):
        cache = LRUCache(max_records=10, max_bytes=100)
        cache.put("keep", {}, 10)
        assert cache.put("huge", {}, 101) == -1
        assert cache.get("keep") is not None  # nothing was evicted for it

    def test_replacement_updates_bytes(self):
        cache = LRUCache(max_records=10, max_bytes=100)
        cache.put("a", {"v": 1}, 40)
        cache.put("a", {"v": 2}, 60)
        assert cache.bytes_used == 60
        assert cache.get("a") == {"v": 2}

    def test_clear_and_stats(self):
        cache = LRUCache(max_records=10, max_bytes=100)
        cache.put("a", {}, 1)
        cache.put("b", {}, 1)
        cache.get("a")
        cache.get("nope")
        stats = cache.stats()
        assert stats["records"] == 2 and stats["hits"] == 1
        assert stats["misses"] == 1
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.bytes_used == 0


class TestDaemonRoundTrip:
    def test_put_then_get_through_client(self, daemon, extracted):
        store = remote(daemon)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        fresh = remote(daemon)  # a different client process, in spirit
        record = fresh.get("lib.jsl", LIB_SOURCE)
        assert record is not None
        assert record.stats() == extracted["lib.jsl"].stats()
        assert fresh.stats["hits"] == 1 and fresh.stats["fallbacks"] == 0

    def test_get_miss_answers_cleanly(self, daemon):
        store = remote(daemon)
        assert store.get("nope.jsl", "var x = 1;") is None
        assert store.stats["misses"] == 1 and store.stats["fallbacks"] == 0

    def test_records_for_mixed_hit_miss(self, daemon, extracted):
        store = remote(daemon)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        found = remote(daemon).records_for(WORKLOAD)
        assert len(found) == 1

    def test_stat_exposes_cache_and_store(self, daemon, extracted):
        store = remote(daemon)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        status = store.status()
        stat = status["shards"][0]["remote"]
        assert stat["cache"]["records"] == 1
        assert stat["store"]["records"] == 1
        assert stat["store"]["quarantined"] == 0
        assert status["client"]["puts"] == 1
        assert status["local"]["records"] == 1  # write-through to fallback
        assert len(store) == 1

    def test_evict_verb(self, daemon, extracted):
        store = remote(daemon)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        assert store.evict_all() == 1
        # Evicted from the serving tier, but write-through disk store
        # still has it: the next GET re-warms the LRU.
        assert remote(daemon).get("lib.jsl", LIB_SOURCE) is not None
        assert daemon.store_fallback_hits == 1

    def test_ping(self, daemon, tmp_path):
        assert remote(daemon).ping() is True
        assert remote(tmp_path / "nothing.sock").ping() is False

    def test_write_through_survives_daemon_restart(
        self, daemon, extracted, tmp_path
    ):
        remote(daemon).put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        daemon.stop()
        reborn = RecordCacheDaemon(
            tmp_path / "ricd2.sock", directory=tmp_path / "records"
        )
        with reborn:
            assert remote(reborn).get("lib.jsl", LIB_SOURCE) is not None

    def test_memory_only_daemon(self, tmp_path, extracted):
        with RecordCacheDaemon(tmp_path / "mem.sock") as ricd:
            store = remote(ricd)
            store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            assert remote(ricd).get("lib.jsl", LIB_SOURCE) is not None
            assert ricd.store_status() is None


class TestAdmissionGate:
    """One client can never poison another through the daemon."""

    def _raw_request(self, daemon, message) -> dict:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(2.0)
        sock.connect(str(daemon.socket_path))
        try:
            protocol.write_frame(sock, message)
            return protocol.read_frame(sock)
        finally:
            sock.close()

    def test_bad_checksum_put_is_refused(self, daemon, extracted):
        envelope = record_to_envelope(extracted["lib.jsl"])
        envelope["checksum"] = "0" * 64
        response = self._raw_request(
            daemon,
            protocol.request(
                "PUT",
                key=["lib.jsl", "feed", ICRECORD_FORMAT_VERSION],
                envelope=envelope,
            ),
        )
        assert response["ok"] is True and response["stored"] is False
        assert "checksum" in response["error"]
        assert daemon.puts_rejected == 1
        # And nothing was cached or persisted for that key.
        get = self._raw_request(
            daemon,
            protocol.request(
                "GET", key=["lib.jsl", "feed", ICRECORD_FORMAT_VERSION]
            ),
        )
        assert get["hit"] is False

    def test_structurally_invalid_record_is_refused(self, daemon, extracted):
        # Re-checksummed (so integrity passes) but smuggling a
        # context-dependent handler kind — the validate_record gate's job.
        from repro.ric.serialize import payload_checksum, payload_text, record_to_json

        payload = record_to_json(extracted["lib.jsl"])
        payload["handlers"].append({"kind": "store_transition", "offset": 0})
        text = payload_text(payload)
        envelope = {"checksum": payload_checksum(text), "record": text}
        response = self._raw_request(
            daemon,
            protocol.request(
                "PUT",
                key=["lib.jsl", "feed", ICRECORD_FORMAT_VERSION],
                envelope=envelope,
            ),
        )
        assert response["stored"] is False
        assert "non-reusable" in response["error"]
        assert daemon.puts_rejected == 1

    def test_unknown_op_errors_without_killing_daemon(self, daemon):
        response = self._raw_request(daemon, protocol.request("NUKE"))
        assert response["ok"] is False
        assert remote(daemon).ping() is True

    def test_version_skew_is_an_error_response(self, daemon):
        response = self._raw_request(daemon, {"v": 99, "op": "PING"})
        assert response["ok"] is False and "version" in response["error"]

    def test_garbage_frame_gets_error_and_close(self, daemon):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(2.0)
        sock.connect(str(daemon.socket_path))
        try:
            import struct

            body = b"not json at all"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = protocol.read_frame(sock)
            assert response["ok"] is False
            assert protocol.read_frame(sock) is None  # connection closed
        finally:
            sock.close()
        assert remote(daemon).ping() is True  # daemon unharmed

    def test_client_rejects_poisoned_envelope_from_daemon(
        self, daemon, extracted, tmp_path
    ):
        """Belt and braces: even if a (compromised) daemon serves a bad
        envelope, the client's re-verification refuses it and falls back."""
        envelope = record_to_envelope(extracted["lib.jsl"])
        envelope["checksum"] = "f" * 64
        from repro.server.protocol import cache_key
        from repro.bytecode.cache import source_hash

        key = cache_key(
            "lib.jsl", source_hash(LIB_SOURCE), ICRECORD_FORMAT_VERSION
        )
        # Poison the serving tier (entries are (envelope, epoch) pairs).
        daemon.cache.put(key, (envelope, daemon.epoch), 100)
        store = remote(daemon)
        assert store.get("lib.jsl", LIB_SOURCE) is None
        assert store.stats["fallbacks"] == 1 and store.stats["hits"] == 0


class TestLRUBoundsThroughDaemon:
    def test_count_bound_eviction_reported_to_writer(
        self, tmp_path, extracted
    ):
        with RecordCacheDaemon(
            tmp_path / "small.sock",
            directory=tmp_path / "records",
            max_records=1,
        ) as ricd:
            store = remote(ricd)
            store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            store.put("app.jsl", APP_SOURCE, extracted["app.jsl"])
            assert store.stats["evictions"] == 1
            assert len(ricd.cache) == 1
            # The evicted record is still served from the backing store.
            assert remote(ricd).get("lib.jsl", LIB_SOURCE) is not None

    def test_record_bigger_than_byte_budget_is_refused(
        self, tmp_path, extracted
    ):
        with RecordCacheDaemon(tmp_path / "tiny.sock", max_bytes=64) as ricd:
            store = remote(ricd)
            store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            assert store.stats["puts_rejected"] == 1
            assert len(ricd.cache) == 0


class TestDegradationLadder:
    """Transport trouble must never fail a run — only lose speedup."""

    def test_no_daemon_falls_back_to_local(self, tmp_path, extracted):
        store = remote(tmp_path / "never-bound.sock")
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        assert store.stats["fallbacks"] == 1
        assert store.get("lib.jsl", LIB_SOURCE) is not None  # via fallback
        assert store.load_errors == []

    def test_circuit_breaker_skips_dead_daemon(self, tmp_path):
        store = remote(tmp_path / "dead.sock", retry_after_s=60.0)
        assert store.get("a.jsl", "var x = 1;") is None
        assert store.get("b.jsl", "var y = 2;") is None
        # Both counted as fallbacks; the second never touched the socket
        # (the breaker was open), which we can only observe as speed —
        # assert at least the accounting is right.
        assert store.stats["fallbacks"] == 2

    @pytest.mark.parametrize("fault", SOCKET_FAULTS)
    def test_transport_faults_fall_back_per_fault(
        self, fault, daemon, extracted, tmp_path
    ):
        remote(daemon).put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        proxy = FlakySocketProxy(
            tmp_path / f"{fault}.sock",
            daemon.socket_path,
            fault=fault,
            probability=1.0,
            slow_delay_s=1.0,
        )
        with proxy:
            store = remote(
                proxy.listen_path, timeout_s=0.3, retry_after_s=0.0
            )
            record = store.get("lib.jsl", LIB_SOURCE)
            assert record is None  # fallback store is empty
            assert store.stats["fallbacks"] == 1
            assert proxy.injected >= 1

    @pytest.mark.parametrize("fault", SOCKET_FAULTS)
    def test_engine_run_through_flaky_proxy_never_diverges(
        self, fault, daemon, extracted, tmp_path
    ):
        """The acceptance contract at engine level: a flaky transport
        yields identical output, no exception, visible fallbacks."""
        remote(daemon).put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        remote(daemon).put("app.jsl", APP_SOURCE, extracted["app.jsl"])
        proxy = FlakySocketProxy(
            tmp_path / f"eng-{fault}.sock",
            daemon.socket_path,
            fault=fault,
            probability=1.0,
            slow_delay_s=1.0,
        )
        with proxy:
            store = remote(
                proxy.listen_path, timeout_s=0.3, retry_after_s=0.0
            )
            engine = Engine(seed=57, record_store=store)
            cold = engine.run(WORKLOAD, name="cold")
            degraded = engine.run(WORKLOAD, name="degraded", use_store=True)
            assert degraded.console_output == cold.console_output
            assert degraded.counters.ric_remote_fallbacks > 0
            assert degraded.counters.ric_remote_hits == 0


class TestEngineIntegration:
    def test_two_engines_share_via_daemon(self, daemon):
        """The §9 scenario across engine instances: A warms, B reuses."""
        a = Engine(seed=1, record_store=remote(daemon))
        cold = a.run(WORKLOAD, name="a", use_store=True)
        assert cold.mode == "initial"  # store was empty: truly cold
        assert a.publish_records(counters=cold.counters) == 2

        b = Engine(seed=2, record_store=remote(daemon))
        reused = b.run(WORKLOAD, name="b", use_store=True)
        assert reused.mode == "reuse-ric"
        assert reused.console_output == cold.console_output
        assert reused.counters.ric_remote_hits == 2
        assert reused.counters.ic_hits_on_preloaded > 0
        assert reused.counters.ic_misses < cold.counters.ic_misses

    def test_daemon_death_mid_sequence_degrades(self, daemon):
        a = Engine(seed=1, record_store=remote(daemon))
        a.run(WORKLOAD, name="warm", use_store=True)
        a.publish_records()

        store = remote(daemon, timeout_s=0.3, retry_after_s=0.0)
        b = Engine(seed=2, record_store=store)
        first = b.run(WORKLOAD, name="alive", use_store=True)
        assert first.counters.ric_remote_hits == 2
        daemon.stop()
        # stop() stops accepting but in-flight handler threads keep the
        # already-open connection alive; drop it so the next request
        # reconnects and sees ECONNREFUSED.  (A real SIGKILL — covered in
        # test_server_chaos.py — severs the connection itself.)
        store.close()
        second = b.run(WORKLOAD, name="dead", use_store=True)
        assert second.console_output == first.console_output
        assert second.counters.ric_remote_fallbacks > 0
        # The write-back fallback kept A's records: reuse still happened.
        assert second.counters.ic_hits_on_preloaded > 0

    def test_bytecode_cache_counters_surface(self):
        engine = Engine(seed=9)
        first = engine.run(WORKLOAD, name="first")
        second = engine.run(WORKLOAD, name="second")
        assert first.counters.bytecode_cache_misses == len(WORKLOAD)
        assert first.counters.bytecode_cache_hits == 0
        assert second.counters.bytecode_cache_hits == len(WORKLOAD)
        assert second.counters.bytecode_cache_misses == 0
        snapshot = second.counters.as_dict()
        assert snapshot["bytecode_cache_hits"] == len(WORKLOAD)
        for field in (
            "ric_remote_hits",
            "ric_remote_misses",
            "ric_remote_fallbacks",
            "ric_remote_evictions",
        ):
            assert snapshot[field] == 0

    def test_run_cold_and_reused_helper_still_composes(self, daemon):
        """The helper's cold/reused discipline works with store-fed
        records too (records fetched explicitly, as the chaos suite
        does)."""
        a = Engine(seed=1, record_store=remote(daemon))
        a.run(WORKLOAD, name="warm", use_store=True)
        a.publish_records()
        available = remote(daemon).records_for(WORKLOAD)
        assert len(available) == 2
        runs = run_cold_and_reused(
            WORKLOAD, seed=77, name="via-daemon", icrecord=available
        )
        assert runs.outputs_identical
        assert runs.cold_state == runs.reused_state
        assert runs.reused.counters.ic_hits_on_preloaded > 0


class TestStoreSelection:
    def test_make_record_store_local(self, tmp_path):
        store = make_record_store(None, directory=tmp_path / "local")
        assert isinstance(store, RecordStore)

    def test_make_record_store_remote_with_fallback_dir(
        self, daemon, tmp_path, extracted
    ):
        store = make_record_store(
            daemon.socket_path, directory=tmp_path / "fallback"
        )
        assert isinstance(store, RemoteRecordStore)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        # Write-through reached the local directory too.
        fresh = RecordStore(directory=tmp_path / "fallback")
        assert fresh.get("lib.jsl", LIB_SOURCE) is not None


class TestRecordStoreStatus:
    def test_status_counts_records_bytes_and_casualties(
        self, tmp_path, extracted
    ):
        store = RecordStore(directory=tmp_path)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        (tmp_path / "junk.icrecord.json").write_text("{ nope")
        fresh = RecordStore(directory=tmp_path)
        status = fresh.status()
        assert status["records"] == 1
        assert status["bytes"] > 0
        assert status["quarantined"] == 1
        assert status["load_errors"] == 1
        assert status["directory"] == str(tmp_path)

    def test_memory_store_status(self, extracted):
        store = RecordStore()
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        status = store.status()
        assert status["records"] == 1 and status["bytes"] > 0
        assert status["quarantined"] == 0 and status["directory"] is None

    def test_store_status_cli(self, tmp_path, extracted, capsys):
        from repro.harness.run_cli import main

        store = RecordStore(directory=tmp_path / "s")
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        assert main(["--store-dir", str(tmp_path / "s"), "--store-status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["records"] == 1

    def test_store_status_cli_requires_a_store(self, capsys):
        from repro.harness.run_cli import main

        assert main(["--store-status"]) == 2


class TestClientRobustnessSatellites:
    """Leak-freedom, breaker recovery, and mixed-fleet dialect safety."""

    @staticmethod
    def _open_fds() -> int:
        import os

        return len(os.listdir("/proc/self/fd"))

    def test_failing_connects_leak_no_file_descriptors(self, tmp_path):
        """Hammering a dead endpoint must not cost a single fd: every
        failed connect closes its half-made socket."""
        store = remote(
            str(tmp_path / "nobody-home.sock"),
            retries=0,
            retry_after_s=0.0,  # breaker never short-circuits a connect
            timeout_s=0.1,
        )
        store.get("lib.jsl", LIB_SOURCE)  # warm up lazy imports etc.
        before = self._open_fds()
        for _ in range(50):
            store.get("lib.jsl", LIB_SOURCE)
        assert self._open_fds() == before
        assert store.stats["fallbacks"] == 51

    def test_close_is_idempotent_after_failures(self, tmp_path):
        store = remote(str(tmp_path / "nobody-home.sock"), retries=0)
        store.get("lib.jsl", LIB_SOURCE)
        store.close()
        store.close()  # second close is a no-op, not an error
        assert store.get("lib.jsl", LIB_SOURCE) is None  # still usable

    def test_breaker_half_open_recovers_to_closed(self, tmp_path, extracted):
        """Open (daemon dead) -> half-open probe after retry_after_s ->
        closed (daemon back): remote answers flow again."""
        path = tmp_path / "ricd.sock"
        store = remote(
            str(path), retries=0, retry_after_s=0.3, timeout_s=0.2
        )
        # Trip: endpoint dead, request surfaces a fallback, breaker opens.
        assert store.get("lib.jsl", LIB_SOURCE) is None
        assert store.stats["fallbacks"] == 1
        # Open: inside the hold-off window requests don't even dial.
        assert store.get("lib.jsl", LIB_SOURCE) is None
        assert store.stats["fallbacks"] == 2
        # Daemon comes back; after retry_after_s the next request is the
        # half-open probe — it succeeds, so the breaker closes.
        ricd = RecordCacheDaemon(path, directory=tmp_path / "records")
        ricd.start()
        try:
            import time

            time.sleep(0.35)
            store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            assert store.stats["puts"] == 1
            assert store.get("lib.jsl", LIB_SOURCE) is not None
            assert store.stats["hits"] == 1  # closed: remote serving again
        finally:
            store.close()
            ricd.stop()

    def test_unknown_verb_counts_proto_mismatch(self, daemon):
        """A daemon from another fleet generation answers an unknown verb
        with a clean error; the client logs-and-counts instead of
        tripping the breaker or burning retries."""
        from repro.server import RemoteProtoMismatch

        store = remote(daemon, retries=2)
        with pytest.raises(RemoteProtoMismatch):
            store.clients[str(daemon.socket_path)]._request(
                protocol.request("FROBNICATE")
            )
        assert store.stats["proto_mismatch"] == 1
        assert store.stats["retries"] == 0  # clean refusal, no retry burn
        # The breaker did not trip: normal verbs still flow.
        assert store.ping() is True

    def test_version_skew_counts_proto_mismatch(self, daemon):
        from repro.server import RemoteProtoMismatch

        store = remote(daemon, retries=0)
        bad = dict(protocol.request("PING"))
        bad["v"] = 99
        with pytest.raises(RemoteProtoMismatch):
            store.clients[str(daemon.socket_path)]._request(bad)
        assert store.stats["proto_mismatch"] == 1

    def test_stat_health_blob_names_build_and_protocol(self, daemon):
        from repro import __version__

        store = remote(daemon)
        health = store.status()["shards"][0]["remote"]["health"]
        assert health["version"] == __version__
        assert health["protocol"] == protocol.PROTOCOL_VERSION
        assert health["epoch"] == 0
        assert str(daemon.socket_path) in health["endpoints"]
