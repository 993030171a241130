"""The fleet chaos wall (ISSUE 6 acceptance): with a 3-shard/R=2 ring,
any *single* shard failure — abrupt kill, network partition, pathological
slowness — leaves program output bit-identical and moves no counter
except the ``ric_remote_*`` degradation family; and after an epoch bump,
no pre-epoch record is ever returned by any shard or replica.

Runs real in-process daemons (plus fault proxies for partition/slow) —
multi-threaded and timing-dependent, so the suite is ``slow``-marked and
lives in the non-blocking chaos CI job.
"""

import socket

import pytest

from repro.bytecode.cache import source_hash
from repro.core.engine import Engine
from repro.faults import FlakySocketProxy, kill_shard
from repro.ric.store import RecordStore
from repro.server import HashRing, RecordCacheDaemon, RemoteRecordStore

pytestmark = [
    pytest.mark.slow,
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


@pytest.fixture
def fleet(tmp_path):
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


def fleet_store(endpoints, tmp_path, tag: str) -> RemoteRecordStore:
    """A fresh fleet client with fast, deterministic failure behavior."""
    return RemoteRecordStore(
        endpoints,
        fallback=RecordStore(directory=tmp_path / f"local-{tag}"),
        replication=2,
        timeout_s=0.4,
        retries=0,
        retry_after_s=0.0,
        request_deadline_s=2.0,
    )


def warm_fleet(endpoints, tmp_path) -> None:
    """One cold engine publishes WORKLOAD's records into the fleet."""
    store = fleet_store(endpoints, tmp_path, "warm")
    engine = Engine(seed=11, record_store=store)
    engine.run(WORKLOAD, name="warm", use_store=True)
    engine.publish_records()
    assert store.stats_snapshot()["puts"] == 2
    store.close()


def reuse_run(endpoints, tmp_path, tag: str):
    """A fresh engine doing a store-fed reuse run; returns its profile
    and the store's logical stats."""
    store = fleet_store(endpoints, tmp_path, tag)
    engine = Engine(seed=42, record_store=store)
    profile = engine.run(WORKLOAD, name=tag, use_store=True)
    stats = store.stats_snapshot()
    store.close()
    return profile, stats


def non_remote_counters(profile) -> dict:
    """Every run counter except the ric_remote_* degradation family —
    the set the chaos wall requires to be invariant."""
    return {
        key: value
        for key, value in profile.counters.as_dict().items()
        if not key.startswith("ric_remote_")
    }


def primary_of(store_endpoints, filename, source) -> str:
    """The shard a key routes to first — the interesting one to break."""
    ring = HashRing(store_endpoints)
    return ring.primary(f"{filename}:{source_hash(source)}")


class TestKillAnyShard:
    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_single_shard_kill_is_invisible_outside_remote_counters(
        self, fleet, tmp_path, victim
    ):
        endpoints = [str(d.socket_path) for d in fleet]
        warm_fleet(endpoints, tmp_path)
        baseline, baseline_stats = reuse_run(endpoints, tmp_path, "baseline")
        assert baseline.counters.ric_remote_hits == 2

        kill_shard(fleet[victim])
        degraded, stats = reuse_run(endpoints, tmp_path, f"kill{victim}")

        assert degraded.console_output == baseline.console_output
        assert non_remote_counters(degraded) == non_remote_counters(baseline)
        # R=2: the surviving replica still serves every key.
        assert degraded.counters.ric_remote_hits == 2
        # Only the degradation family moved (whether this victim was a
        # primary or not is the ring's business; a primary kill shows up
        # as failovers).
        assert stats["fallbacks"] == 0

    def test_kill_mid_sequence_between_runs(self, fleet, tmp_path):
        endpoints = [str(d.socket_path) for d in fleet]
        warm_fleet(endpoints, tmp_path)
        victim = primary_of(endpoints, "lib.jsl", LIB_SOURCE)

        store = fleet_store(endpoints, tmp_path, "seq")
        engine = Engine(seed=42, record_store=store)
        healthy = engine.run(WORKLOAD, name="healthy", use_store=True)
        assert healthy.counters.ric_remote_hits == 2

        for daemon in fleet:
            if str(daemon.socket_path) == victim:
                kill_shard(daemon)
        after = engine.run(WORKLOAD, name="after-kill", use_store=True)
        assert after.console_output == healthy.console_output
        assert after.counters.ric_remote_failovers >= 1
        store.close()

    def test_publish_with_dead_shard_still_replicates(self, fleet, tmp_path):
        endpoints = [str(d.socket_path) for d in fleet]
        victim = primary_of(endpoints, "lib.jsl", LIB_SOURCE)
        for daemon in fleet:
            if str(daemon.socket_path) == victim:
                kill_shard(daemon)
        # Publishing with the primary dead: the replica still takes it.
        warm_fleet(endpoints, tmp_path)
        profile, stats = reuse_run(endpoints, tmp_path, "read-back")
        assert profile.counters.ric_remote_hits == 2


class TestPartitionAndSlowShard:
    @pytest.fixture
    def proxied_fleet(self, fleet, tmp_path):
        """Each shard behind its own pass-through fault proxy."""
        proxies = []
        for i, daemon in enumerate(fleet):
            proxy = FlakySocketProxy(
                tmp_path / f"proxy{i}.sock",
                daemon.socket_path,
                fault=None,
                probability=1.0,
                slow_delay_s=1.0,
            )
            proxy.start()
            proxies.append(proxy)
        yield proxies
        for proxy in proxies:
            proxy.stop()

    @pytest.mark.parametrize("fault", ["partition", "slow"])
    def test_single_shard_fault_is_invisible_outside_remote_counters(
        self, proxied_fleet, tmp_path, fault
    ):
        endpoints = [proxy.endpoint for proxy in proxied_fleet]
        warm_fleet(endpoints, tmp_path)
        baseline, _ = reuse_run(endpoints, tmp_path, "baseline")
        assert baseline.counters.ric_remote_hits == 2

        # Degrade the primary owner of lib.jsl mid-fleet: every request
        # through its proxy now black-holes (partition) or stalls past
        # the client timeout (slow).
        victim = primary_of(endpoints, "lib.jsl", LIB_SOURCE)
        for proxy in proxied_fleet:
            if proxy.endpoint == victim:
                proxy.set_fault(fault)

        degraded, stats = reuse_run(endpoints, tmp_path, fault)
        assert degraded.console_output == baseline.console_output
        assert non_remote_counters(degraded) == non_remote_counters(baseline)
        assert degraded.counters.ric_remote_hits == 2  # replica served
        assert degraded.counters.ric_remote_failovers >= 1

    def test_fault_cleared_restores_primary_service(
        self, proxied_fleet, tmp_path
    ):
        endpoints = [proxy.endpoint for proxy in proxied_fleet]
        warm_fleet(endpoints, tmp_path)
        victim = primary_of(endpoints, "lib.jsl", LIB_SOURCE)
        chosen = next(p for p in proxied_fleet if p.endpoint == victim)
        chosen.set_fault("partition")
        degraded, stats = reuse_run(endpoints, tmp_path, "partitioned")
        assert stats["failovers"] >= 1
        chosen.clear_fault()
        healed, stats = reuse_run(endpoints, tmp_path, "healed")
        assert stats["failovers"] == 0
        assert healed.console_output == degraded.console_output


class TestEpochWall:
    def test_bump_epoch_cli_leaves_no_pre_epoch_record_anywhere(
        self, fleet, tmp_path
    ):
        from repro.harness.run_cli import main

        endpoints = [str(d.socket_path) for d in fleet]
        warm_fleet(endpoints, tmp_path)
        assert any(len(d.cache) for d in fleet)

        # Exercise the CLI surface, including repeat + comma-separated
        # --remote-store flags.
        assert (
            main(
                [
                    "--remote-store",
                    endpoints[0],
                    "--remote-store",
                    f"{endpoints[1]},{endpoints[2]}",
                    "--bump-epoch",
                ]
            )
            == 0
        )
        for daemon in fleet:
            assert daemon.epoch == 1
            assert len(daemon.cache) == 0
            assert not list(daemon.store.directory.glob("*.icrecord.json"))

        # No shard or replica serves anything pre-epoch; a fresh reuse
        # run is effectively cold against the fleet.
        profile, stats = reuse_run(endpoints, tmp_path, "post-bump")
        assert profile.counters.ric_remote_hits == 0
        assert profile.counters.ric_remote_misses == 2

    def test_partitioned_shard_cannot_resurrect_after_bump(
        self, fleet, tmp_path
    ):
        """A shard that misses the EVICT_EPOCH broadcast (partitioned)
        self-invalidates via gossip on first contact — its pre-epoch
        replica copies are never served to an epoch-aware client."""
        endpoints = [str(d.socket_path) for d in fleet]
        warm_fleet(endpoints, tmp_path)
        laggard = fleet[2]

        # Partition shard 2 for the duration of the bump by severing its
        # transport: kill it, bump the survivors, then "heal" the
        # partition by restarting it on the same socket + directory.
        kill_shard(laggard)
        store = fleet_store(endpoints, tmp_path, "admin")
        assert store.bump_epoch() == 1  # two shards acknowledged
        # The partial broadcast is reported, not silent: the operator is
        # told which shards to re-bump when they rejoin.
        assert store.last_bump_missed == [str(laggard.socket_path)]
        store.close()

        healed = RecordCacheDaemon(
            laggard.socket_path, directory=laggard.store.directory
        )
        healed.start()
        try:
            # Its disk survived the partition, so it rejoins at epoch 0
            # with pre-bump records intact — the dangerous state.
            assert healed.epoch == 0

            # An epoch-aware client (its clock learns 1 from any healthy
            # shard) never receives a pre-epoch record from the laggard:
            # gossip invalidates it on first contact.
            reader = fleet_store(endpoints, tmp_path, "reader")
            for client in reader.clients.values():
                client.remote_stat()  # gossip: clock -> 1
            assert reader.epoch_clock.value == 1
            for filename, source in WORKLOAD:
                assert reader.get(filename, source) is None
            snapshot = reader.stats_snapshot()
            assert snapshot["hits"] == 0

            # Force first contact with the laggard itself (routing may
            # not have touched it above): its pre-bump copies must come
            # back as miss/stale, never as a hit, and that very exchange
            # heals it.
            laggard_client = reader.clients[str(laggard.socket_path)]
            for filename, source in WORKLOAD:
                outcome, record = laggard_client.remote_get(filename, source)
                assert outcome in ("miss", "stale")
                assert record is None
            assert healed.epoch == 1  # healed by gossip
            assert len(healed.cache) == 0
            reader.close()
        finally:
            healed.stop()
