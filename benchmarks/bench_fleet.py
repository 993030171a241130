"""Sharded record-store fleet bench (``ric-bench-fleet/v1``).

Quantifies what the consistent-hash fleet buys — and what a shard
failure costs — as numbers.  A fleet of N in-process ``ricd`` shards
(replication R) is warmed with K tenant records, then a Zipfian access
trace plays against it through a :class:`RemoteRecordStore`:

* **healthy** phase — the first half of the trace with all shards up;
* **degraded** phase — the second half after the primary owner of the
  hottest key is abruptly killed mid-run (:func:`kill_shard` — the
  harness SIGKILL).

Per phase the bench reports the store hit rate, misses averted (every
remote hit is a cold extraction somebody else paid for), replica
failovers, local fallbacks, and p50/p99 GET latency.  The headline
claim: with R >= 2 the degraded hit rate stays at 1.0 — the kill shows
up only in the failover counter and the latency tail.  Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py BENCH_fleet.json

The document is schema-versioned like the other ``ric-bench-*``
families and gated by ``benchmarks/test_bench_fleet.py``.
"""

from __future__ import annotations

import json
import platform
import random
import tempfile
import time
import typing
from pathlib import Path

from repro.bytecode.cache import source_hash
from repro.core.engine import Engine
from repro.faults import kill_shard
from repro.ric.store import RecordStore
from repro.server.client import RemoteRecordStore
from repro.server.daemon import RecordCacheDaemon
from repro.server.sharding import HashRing

SCHEMA = "ric-bench-fleet/v1"

#: Per-phase integer fields every document must carry.
_PHASE_INT_FIELDS = ("accesses", "hits", "misses", "failovers", "fallbacks")

#: Per-phase float fields (rates and latency percentiles).
_PHASE_FLOAT_FIELDS = ("hit_rate", "p50_ms", "p99_ms")

#: One representative tenant script; each tenant key reuses its record
#: under a distinct filename (the route key is filename:source_hash, so
#: filenames alone spread the keys around the ring).
_TENANT_SOURCE = """
function Counter() { this.n = 0; }
Counter.prototype.bump = function () { this.n = this.n + 1; return this.n; };
var c = new Counter();
for (var i = 0; i < 10; i = i + 1) { c.bump(); }
console.log("tenant:", c.n);
"""


def _tenant_filename(rank: int) -> str:
    return f"tenant-{rank:03d}.jsl"


def zipfian_trace(
    keys: int, accesses: int, s: float, seed: int
) -> "list[int]":
    """``accesses`` key ranks drawn from a Zipf(s) popularity curve —
    rank 0 hottest — with a seeded RNG so runs are replayable."""
    weights = [1.0 / (rank + 1) ** s for rank in range(keys)]
    rng = random.Random(seed)
    return rng.choices(range(keys), weights=weights, k=accesses)


def _percentile(sorted_samples: "list[float]", fraction: float) -> float:
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1, int(fraction * (len(sorted_samples) - 1))
    )
    return sorted_samples[index]


def _play_phase(
    store: RemoteRecordStore, trace: "list[int]"
) -> "tuple[dict, dict]":
    """Run one phase of the trace; returns (phase blob, raw stats after)."""
    before = store.stats_snapshot()
    latencies: "list[float]" = []
    hits = 0
    for rank in trace:
        started = time.perf_counter()
        record = store.get(_tenant_filename(rank), _TENANT_SOURCE)
        latencies.append((time.perf_counter() - started) * 1000.0)
        if record is not None:
            hits += 1
    after = store.stats_snapshot()
    latencies.sort()
    blob = {
        "accesses": len(trace),
        "hits": hits,
        "misses": len(trace) - hits,
        "failovers": after["failovers"] - before["failovers"],
        "fallbacks": after["fallbacks"] - before["fallbacks"],
        "hit_rate": (hits / len(trace)) if trace else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
    }
    return blob, after


def measure_fleet(
    shards: int = 3,
    replication: int = 2,
    keys: int = 32,
    accesses: int = 400,
    zipf_s: float = 1.1,
    seed: int = 1,
) -> dict:
    """Run the healthy/degraded fleet comparison and return the document."""
    trace = zipfian_trace(keys, accesses, zipf_s, seed)
    split = len(trace) // 2

    with tempfile.TemporaryDirectory(prefix="ric-bench-fleet-") as tmp:
        daemons = []
        for i in range(shards):
            daemon = RecordCacheDaemon(
                Path(tmp) / f"shard{i}.sock",
                directory=Path(tmp) / f"records{i}",
            )
            daemon.start()
            daemons.append(daemon)
        endpoints = [str(daemon.socket_path) for daemon in daemons]
        try:
            # One engine extracts the tenant record; the fleet is warmed
            # by publishing it under every tenant's filename.
            engine = Engine(seed=seed)
            engine.run(
                [("tenant.jsl", _TENANT_SOURCE)], name="extract-tenant"
            )
            record = engine.extract_per_script_records()["tenant.jsl"]

            store = RemoteRecordStore(
                endpoints,
                fallback=RecordStore(directory=Path(tmp) / "local"),
                replication=replication,
                timeout_s=0.4,
                retries=0,
                retry_after_s=0.5,
            )
            for rank in range(keys):
                store.put(_tenant_filename(rank), _TENANT_SOURCE, record)

            healthy, _ = _play_phase(store, trace[:split])

            # Kill the primary owner of the hottest key mid-run: the
            # worst single-shard loss this trace can suffer.
            ring = HashRing(endpoints)
            victim = ring.primary(
                f"{_tenant_filename(0)}:{source_hash(_TENANT_SOURCE)}"
            )
            for daemon in daemons:
                if str(daemon.socket_path) == victim:
                    kill_shard(daemon)

            degraded, stats = _play_phase(store, trace[split:])
            epoch = store.epoch_clock.value
            store.close()
        finally:
            for daemon in daemons:
                daemon.stop()

    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_fleet.py",
        "config": {
            "shards": shards,
            "replication": replication,
            "keys": keys,
            "accesses": accesses,
            "zipf_s": zipf_s,
            "seed": seed,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "fleet": {
            "killed_shard": victim,
            "epoch": epoch,
            "client_retries": stats["retries"],
            "client_proto_mismatch": stats["proto_mismatch"],
        },
        "phases": {"healthy": healthy, "degraded": degraded},
        "totals": {
            "misses_averted": healthy["hits"] + degraded["hits"],
            "hit_rate": round(
                (healthy["hits"] + degraded["hits"]) / max(1, accesses), 4
            ),
            "failovers": healthy["failovers"] + degraded["failovers"],
        },
    }


def validate_fleet_json(document: object) -> "list[str]":
    """Structural schema gate; returns a list of problems (empty = valid)."""
    problems: "list[str]" = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    config = document.get("config")
    if not isinstance(config, dict):
        problems.append("missing config object")
    elif not {"shards", "replication", "keys", "accesses"} <= set(config):
        problems.append("config: needs shards/replication/keys/accesses")
    fleet = document.get("fleet")
    if not isinstance(fleet, dict) or "killed_shard" not in fleet:
        problems.append("fleet: needs killed_shard")
    totals = document.get("totals")
    if not isinstance(totals, dict) or not {
        "misses_averted",
        "hit_rate",
        "failovers",
    } <= set(totals):
        problems.append("totals: needs misses_averted/hit_rate/failovers")
    phases = document.get("phases")
    if not isinstance(phases, dict):
        return problems + ["missing phases object"]
    for phase in ("healthy", "degraded"):
        blob = phases.get(phase)
        if not isinstance(blob, dict):
            problems.append(f"phases.{phase}: missing")
            continue
        for field in _PHASE_INT_FIELDS:
            if not isinstance(blob.get(field), int):
                problems.append(f"phases.{phase}.{field}: missing or non-integer")
        for field in _PHASE_FLOAT_FIELDS:
            if not isinstance(blob.get(field), (int, float)):
                problems.append(f"phases.{phase}.{field}: missing or non-numeric")
    return problems


def write_fleet_json(path: str, document: dict) -> None:
    """Persist the document (stable key order, trailing newline)."""
    problems = validate_fleet_json(document)
    if problems:
        raise ValueError(
            f"refusing to write invalid bench document: {'; '.join(problems[:5])}"
        )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="path for BENCH_fleet.json")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--replication", type=int, default=2)
    parser.add_argument("--keys", type=int, default=32)
    parser.add_argument("--accesses", type=int, default=400)
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(list(argv) if argv is not None else None)
    document = measure_fleet(
        shards=args.shards,
        replication=args.replication,
        keys=args.keys,
        accesses=args.accesses,
        zipf_s=args.zipf_s,
        seed=args.seed,
    )
    write_fleet_json(args.output, document)
    for phase in ("healthy", "degraded"):
        blob = document["phases"][phase]
        print(
            f"{phase:9s} hit rate {blob['hit_rate']:6.1%} | "
            f"p50 {blob['p50_ms']:7.3f} ms  p99 {blob['p99_ms']:7.3f} ms | "
            f"{blob['failovers']:3d} failovers  {blob['fallbacks']:3d} fallbacks"
        )
    totals = document["totals"]
    print(
        f"{'TOTAL':9s} {totals['misses_averted']} misses averted "
        f"({totals['hit_rate']:.1%}) with shard "
        f"{document['fleet']['killed_shard']} killed mid-run"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
