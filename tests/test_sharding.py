"""Fleet routing tests: HashRing, RemoteRecordStore over several
endpoints, TCP transport, and epoch-based invalidation.

In-process daemons (unix sockets plus a TCP case) on background threads
— fast, part of the default suite.  The multi-daemon kill/partition
chaos walls live in ``tests/test_fleet_chaos.py``.
"""

import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bytecode.cache import source_hash
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.faults import kill_shard
from repro.ric.serialize import ICRECORD_FORMAT_VERSION
from repro.ric.store import RecordStore
from repro.server import (
    HashRing,
    RecordCacheDaemon,
    RemoteRecordStore,
    make_record_store,
    protocol,
)

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
    engine = Engine(seed=31)
    engine.run(WORKLOAD, name="initial")
    return engine.extract_per_script_records()


@pytest.fixture
def fleet(tmp_path):
    """Three disk-backed daemons on unix sockets."""
    daemons = []
    for i in range(3):
        daemon = RecordCacheDaemon(
            tmp_path / f"shard{i}.sock", directory=tmp_path / f"records{i}"
        )
        daemon.start()
        daemons.append(daemon)
    yield daemons
    for daemon in daemons:
        daemon.stop()


def sharded(daemons, tmp_path, replication=2, **kwargs) -> RemoteRecordStore:
    kwargs.setdefault("timeout_s", 0.4)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("request_deadline_s", 1.0)
    return RemoteRecordStore(
        [str(d.socket_path) for d in daemons],
        fallback=RecordStore(directory=tmp_path / "local"),
        replication=replication,
        **kwargs,
    )


def daemon_for(daemons, endpoint_spec):
    for daemon in daemons:
        if str(daemon.socket_path) == endpoint_spec:
            return daemon
    raise AssertionError(f"no daemon at {endpoint_spec}")


def daemon_holds(daemon, filename, source) -> bool:
    key = protocol.cache_key(
        filename, source_hash(source), ICRECORD_FORMAT_VERSION
    )
    return daemon.cache.get(key) is not None


class TestHashRing:
    def test_preference_is_distinct_and_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        owners = ring.preference("lib.jsl:abc", 2)
        assert len(owners) == 2 and len(set(owners)) == 2
        assert owners == ring.preference("lib.jsl:abc", 2)
        assert ring.primary("lib.jsl:abc") == owners[0]

    def test_preference_clamps_to_ring_size(self):
        ring = HashRing(["a", "b"])
        assert len(ring.preference("k", 5)) == 2

    def test_load_spreads_over_endpoints(self):
        ring = HashRing(["a", "b", "c"])
        owners = Counter(ring.primary(f"key{i}") for i in range(600))
        assert set(owners) == {"a", "b", "c"}
        assert min(owners.values()) > 600 // 10  # no starved shard

    def test_departed_endpoint_only_remaps_its_arc(self):
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b"])  # c left the fleet
        for i in range(300):
            key = f"key{i}"
            if before.primary(key) != "c":
                assert after.primary(key) == before.primary(key)

    def test_duplicate_endpoints_collapse(self):
        assert len(HashRing(["a", "a", "b"])) == 2


class TestGetSingleFlight:
    """Concurrent GETs of one script share one round trip.  Artifacts
    hold no records, so this flight is what keeps a stampede of
    ``use_store`` requests at one GET per script."""

    THREADS = 16

    def test_stampede_costs_one_remote_get(self, tmp_path, extracted):
        store = RemoteRecordStore(
            str(tmp_path / "unused.sock"), fallback=RecordStore(), retries=0
        )
        (client,) = store.clients.values()
        record = extracted["lib.jsl"]
        calls = []
        lock = threading.Lock()

        def counting_remote_get(filename, source):
            with lock:
                calls.append(filename)
            time.sleep(0.005)
            return "hit", record

        client.remote_get = counting_remote_get
        barrier = threading.Barrier(self.THREADS)

        def get():
            barrier.wait(timeout=10)
            return store.get("lib.jsl", LIB_SOURCE)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            futures = [pool.submit(get) for _ in range(self.THREADS)]
            results = [future.result(timeout=10) for future in futures]

        assert calls == ["lib.jsl"]
        assert all(result is record for result in results)
        # The leader counts its hit and every joiner counts the same
        # outcome, so per-request accounting still sees sixteen hits.
        assert store.stats["hits"] == self.THREADS


class TestShardedRouting:
    def test_put_fans_out_to_exactly_r_replicas(
        self, fleet, tmp_path, extracted
    ):
        store = sharded(fleet, tmp_path, replication=2)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        owners = store.ring.preference(
            f"lib.jsl:{source_hash(LIB_SOURCE)}", 2
        )
        for daemon in fleet:
            expected = str(daemon.socket_path) in owners
            assert daemon_holds(daemon, "lib.jsl", LIB_SOURCE) is expected
        assert store.stats_snapshot()["puts"] == 1

    def test_get_round_trip_counts_one_hit(self, fleet, tmp_path, extracted):
        store = sharded(fleet, tmp_path)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        record = store.get("lib.jsl", LIB_SOURCE)
        assert record is not None
        snapshot = store.stats_snapshot()
        assert snapshot["hits"] == 1 and snapshot["failovers"] == 0

    def test_get_fails_over_to_replica_when_primary_dies(
        self, fleet, tmp_path, extracted
    ):
        store = sharded(fleet, tmp_path, replication=2)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        owners = store.ring.preference(
            f"lib.jsl:{source_hash(LIB_SOURCE)}", 2
        )
        kill_shard(daemon_for(fleet, owners[0]))
        record = store.get("lib.jsl", LIB_SOURCE)
        assert record is not None
        snapshot = store.stats_snapshot()
        assert snapshot["hits"] == 1
        assert snapshot["failovers"] >= 1

    def test_all_owners_dead_falls_back_to_local(
        self, fleet, tmp_path, extracted
    ):
        store = sharded(fleet, tmp_path, replication=2)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        owners = store.ring.preference(
            f"lib.jsl:{source_hash(LIB_SOURCE)}", 2
        )
        for spec in owners:
            kill_shard(daemon_for(fleet, spec))
        # The write-through local fallback still has the record.
        record = store.get("lib.jsl", LIB_SOURCE)
        assert record is not None
        assert store.stats_snapshot()["fallbacks"] == 1

    def test_live_primary_miss_is_authoritative(self, fleet, tmp_path):
        store = sharded(fleet, tmp_path)
        assert store.get("never.jsl", "var x = 1;") is None
        snapshot = store.stats_snapshot()
        assert snapshot["misses"] == 1 and snapshot["failovers"] == 0

    def test_replication_clamped_to_fleet_size(self, fleet, tmp_path):
        store = sharded(fleet, tmp_path, replication=9)
        assert store.replication == 3

    def test_ping_true_while_any_shard_lives(self, fleet, tmp_path):
        store = sharded(fleet, tmp_path)
        kill_shard(fleet[0])
        kill_shard(fleet[1])
        assert store.ping() is True
        kill_shard(fleet[2])
        assert store.ping() is False

    def test_status_reports_ring_and_dead_shards(self, fleet, tmp_path):
        store = sharded(fleet, tmp_path)
        kill_shard(fleet[1])
        status = store.status()
        assert status["replication"] == 2
        assert len(status["shards"]) == 3
        remotes = {
            shard["endpoint"]: shard["remote"] for shard in status["shards"]
        }
        assert remotes[str(fleet[1].socket_path)] is None
        assert remotes[str(fleet[0].socket_path)] is not None


class TestMakeRecordStoreDispatch:
    def test_none_is_local(self, tmp_path):
        assert isinstance(make_record_store(None), RecordStore)

    def test_single_endpoint_is_remote(self, tmp_path):
        store = make_record_store(str(tmp_path / "one.sock"))
        assert isinstance(store, RemoteRecordStore)
        assert len(store.ring) == 1 and store.replication == 1

    def test_endpoint_list_is_sharded(self, tmp_path):
        store = make_record_store(
            [str(tmp_path / "a.sock"), str(tmp_path / "b.sock")],
            replication=1,
        )
        assert isinstance(store, RemoteRecordStore)
        assert len(store.ring) == 2 and store.replication == 1

    def test_comma_separated_string_is_sharded(self, tmp_path):
        store = make_record_store(
            f"{tmp_path}/a.sock, {tmp_path}/b.sock,{tmp_path}/c.sock"
        )
        assert isinstance(store, RemoteRecordStore)
        assert len(store.ring) == 3

    def test_engine_config_builds_sharded_store(self, fleet, tmp_path):
        config = RICConfig(
            remote_socket=tuple(str(d.socket_path) for d in fleet),
            remote_replication=2,
        )
        engine = Engine(config=config)
        assert isinstance(engine.record_store, RemoteRecordStore)
        assert len(engine.record_store.ring) == 3
        assert engine.record_store.replication == 2


class TestTCPTransport:
    def test_tcp_daemon_round_trip(self, tmp_path, extracted):
        daemon = RecordCacheDaemon(
            directory=tmp_path / "records", tcp="127.0.0.1:0"
        )
        daemon.start()
        try:
            assert daemon.tcp_endpoint is not None
            store = RemoteRecordStore(
                daemon.tcp_endpoint,
                fallback=RecordStore(),
                timeout_s=1.0,
                retries=0,
            )
            store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            assert store.get("lib.jsl", LIB_SOURCE) is not None
            assert store.stats["hits"] == 1 and store.stats["puts"] == 1
            status = store.status()
            assert status["shards"][0]["remote"]["health"]["protocol"] == 1
            store.close()
        finally:
            daemon.stop()

    def test_dual_transport_serves_both(self, tmp_path, extracted):
        daemon = RecordCacheDaemon(
            tmp_path / "dual.sock",
            directory=tmp_path / "records",
            tcp="127.0.0.1:0",
        )
        daemon.start()
        try:
            over_unix = RemoteRecordStore(daemon.socket_path, retries=0)
            over_tcp = RemoteRecordStore(daemon.tcp_endpoint, retries=0)
            over_unix.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
            # Published over unix, served over TCP: one cache.
            assert over_tcp.get("lib.jsl", LIB_SOURCE) is not None
            over_unix.close()
            over_tcp.close()
        finally:
            daemon.stop()

    def test_daemon_without_any_transport_refused(self):
        with pytest.raises(ValueError):
            RecordCacheDaemon()


class TestEpochInvalidation:
    def test_bump_epoch_clears_every_shard_and_disk(
        self, fleet, tmp_path, extracted
    ):
        store = sharded(fleet, tmp_path, replication=3)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        assert any(len(d.cache) for d in fleet)
        new_epoch = store.bump_epoch()
        assert new_epoch == 1
        for daemon in fleet:
            assert daemon.epoch == 1
            assert len(daemon.cache) == 0
            assert not list(
                (daemon.store.directory).glob("*.icrecord.json")
            )

    def test_stale_put_is_fenced(self, fleet, tmp_path, extracted):
        store = sharded(fleet, tmp_path, replication=3)
        # A publisher whose clock never learned the bump.
        laggard = sharded(fleet, tmp_path, replication=3)
        store.bump_epoch()
        # Pin the laggard's clock at 0 by faking an old client: send the
        # PUT with the stale epoch directly.
        client = next(iter(laggard.clients.values()))
        outcome, _ = client.remote_put(
            "lib.jsl", LIB_SOURCE, extracted["lib.jsl"]
        )
        # The daemon echoes its epoch on the response, so the laggard
        # adopts it; but the PUT itself carried epoch 0 and is refused.
        assert outcome == "stale"
        assert client.epoch == 1

    def test_epoch_gossip_heals_lagging_shard(
        self, fleet, tmp_path, extracted
    ):
        store = sharded(fleet, tmp_path, replication=3)
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        # Bump only two shards — the third "missed the broadcast".
        for daemon in fleet[:2]:
            RemoteRecordStore(daemon.socket_path, retries=0).bump_epoch(1)
        assert fleet[2].epoch == 0 and len(fleet[2].cache) == 1
        # Any contact from a client that knows epoch 1 heals it.
        fresh = sharded(fleet, tmp_path, replication=3)
        fresh.get("lib.jsl", LIB_SOURCE)  # learns epoch 1 from some shard
        for daemon in fleet:
            fresh.clients[str(daemon.socket_path)].remote_get(
                "lib.jsl", LIB_SOURCE
            )
        assert fleet[2].epoch == 1 and len(fleet[2].cache) == 0

    def test_client_refuses_pre_epoch_hit_from_hostile_replica(
        self, fleet, tmp_path, extracted
    ):
        """Belt and braces: even a replica that ignores epoch adoption
        (an old or lying daemon) cannot resurrect a pre-bump record —
        the client's own epoch fence refuses the hit."""
        daemon = fleet[0]
        store = RemoteRecordStore(
            daemon.socket_path, fallback=RecordStore(), retries=0
        )
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        # The daemon goes rogue: it never adopts gossiped epochs, so its
        # cache still holds the record admitted at epoch 0.
        daemon._maybe_adopt_epoch = lambda epoch: 0
        store.epoch_clock.advance(7)  # client learned a bump elsewhere
        client = store.clients[str(daemon.socket_path)]
        outcome, record = client.remote_get("lib.jsl", LIB_SOURCE)
        assert outcome == "stale" and record is None
        assert store.get("lib.jsl", LIB_SOURCE) is None
        assert store.stats["stale_epoch"] == 1

    def test_epoch_survives_daemon_restart(self, tmp_path, extracted):
        directory = tmp_path / "records"
        daemon = RecordCacheDaemon(tmp_path / "ricd.sock", directory=directory)
        daemon.start()
        # retries=1 re-dials the dead connection after the restart;
        # retry_after_s=0 keeps the breaker out of the way.
        store = RemoteRecordStore(
            daemon.socket_path, retries=1, retry_after_s=0.0
        )
        client = store.clients[str(daemon.socket_path)]
        store.put("lib.jsl", LIB_SOURCE, extracted["lib.jsl"])
        assert store.bump_epoch(4) == 4
        daemon.stop()
        reborn = RecordCacheDaemon(tmp_path / "ricd.sock", directory=directory)
        assert reborn.epoch == 4
        reborn.start()
        try:
            outcome, _ = client.remote_get("lib.jsl", LIB_SOURCE)
            assert outcome == "miss"  # nothing resurrected from disk
        finally:
            client.close()
            reborn.stop()
