"""Concurrency baseline: N isolated sessions over one warm artifact cache.

Measures what the executor layer is for: many simultaneous runs of the
nine workloads reusing one warmed :class:`~repro.core.artifacts
.ArtifactCache` (and one extracted ICRecord per workload), comparing
``EngineExecutor.run_many(jobs=1)`` against ``jobs=N`` on

* aggregate wall time and throughput (runs/second),
* speedup (jobs=N throughput over jobs=1 throughput),
* a per-session **counter parity** check: every concurrent session's
  counters must equal its sequential twin's bit-for-bit (same seeds,
  same artifacts) — concurrency must never change what a run computes,
* artifact-cache traffic (builds/hits/joins — the single-flight story).

Honesty note: the interpreter is pure CPython, so concurrent sessions
contend on the GIL; on a single-core host the expected speedup for this
CPU-bound work is ~1x, and the headroom the layer unlocks (true overlap
under free-threaded Python, multi-tenant isolation, one warm artifact
shared by every tenant) shows up in the isolation and parity columns,
not wall time.  The document therefore records ``cpus`` and
``gil_limited`` so readers can interpret the speedup column; run on a
multi-core free-threaded build to see the throughput scale.

Emitted JSON is schema-versioned (``ric-bench-concurrency/v1``);
``validate_concurrency_json`` is the gate used by
``benchmarks/test_bench_concurrency.py``.  Regenerate with::

    python benchmarks/bench_concurrency.py BENCH_concurrency.json
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import typing

from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.core.executor import EngineExecutor, RunRequest
from repro.harness.bench import bench_workloads

SCHEMA = "ric-bench-concurrency/v1"


def _requests(
    name: str,
    scripts: "list[tuple[str, str]]",
    record,
    runs: int,
    seed_base: int,
) -> "list[RunRequest]":
    """One batch of identical reuse runs with pinned, distinct seeds (so
    a jobs=1 and a jobs=N batch are twin-for-twin comparable)."""
    return [
        RunRequest(
            scripts=scripts,
            name=f"{name}#{index}",
            icrecord=record,
            seed=seed_base + index,
        )
        for index in range(runs)
    ]


def measure(
    workload_names: "typing.Sequence[str] | None" = None,
    jobs: int = 4,
    runs_per_workload: int = 8,
    seed: int = 1,
    config: "RICConfig | None" = None,
) -> dict:
    """Run the concurrency baseline and return the BENCH document."""
    if jobs < 2:
        raise ValueError("jobs must be >= 2 (jobs=1 is the baseline)")
    if runs_per_workload < 1:
        raise ValueError("runs_per_workload must be >= 1")
    config = config or RICConfig()
    scripts_by_name = bench_workloads()
    names = (
        list(workload_names)
        if workload_names is not None
        else list(scripts_by_name)
    )

    workloads: dict = {}
    for name in names:
        scripts = scripts_by_name[name]
        engine = Engine(config=config, seed=seed)
        executor = EngineExecutor(engine)

        # Warm: one solo run fills the artifact cache and yields the
        # record every measured session reuses (the paper's artifact).
        engine.run(scripts, name=f"{name}-warm")
        record = engine.extract_icrecord()

        start = time.perf_counter()
        sequential = executor.run_many(
            _requests(name, scripts, record, runs_per_workload, seed_base=100),
            jobs=1,
        )
        wall_jobs1 = time.perf_counter() - start

        start = time.perf_counter()
        concurrent = executor.run_many(
            _requests(name, scripts, record, runs_per_workload, seed_base=100),
            jobs=jobs,
        )
        wall_jobsn = time.perf_counter() - start

        matches = all(
            seq.ok
            and conc.ok
            and seq.profile.counters.as_dict() == conc.profile.counters.as_dict()
            for seq, conc in zip(sequential, concurrent)
        )

        throughput_1 = runs_per_workload / wall_jobs1 if wall_jobs1 > 0 else 0.0
        throughput_n = runs_per_workload / wall_jobsn if wall_jobsn > 0 else 0.0
        cache = engine.artifacts.stats()
        workloads[name] = {
            "runs": runs_per_workload,
            "jobs": jobs,
            "wall_s_jobs1": wall_jobs1,
            "wall_s_jobsN": wall_jobsn,
            "throughput_jobs1": throughput_1,
            "throughput_jobsN": throughput_n,
            "speedup": (throughput_n / throughput_1) if throughput_1 else 0.0,
            "counters_match": matches,
            "artifact_cache": {
                "builds": cache.builds,
                "hits": cache.hits,
                "joins": cache.joins,
            },
        }

    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_concurrency.py",
        "config": {
            "jobs": jobs,
            "runs_per_workload": runs_per_workload,
            "seed": seed,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            # CPython with the GIL cannot overlap CPU-bound sessions;
            # flag it so the speedup column is read correctly.  (The
            # probe exists only on free-threaded-capable builds, 3.13+.)
            "gil_limited": _gil_limited(),
        },
        "workloads": workloads,
    }


def _gil_limited() -> bool:
    probe = getattr(sys, "_is_gil_enabled", None)
    return True if probe is None else bool(probe())


def validate_concurrency_json(document: object) -> "list[str]":
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    if not isinstance(document.get("config"), dict):
        problems.append("missing config object")
    host = document.get("host")
    if not isinstance(host, dict) or "cpus" not in host:
        problems.append("missing host.cpus")
    workloads = document.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["missing or empty workloads object"]
    for name, blob in workloads.items():
        if not isinstance(blob, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        for field in (
            "runs",
            "jobs",
            "wall_s_jobs1",
            "wall_s_jobsN",
            "throughput_jobs1",
            "throughput_jobsN",
            "speedup",
            "counters_match",
            "artifact_cache",
        ):
            if field not in blob:
                problems.append(f"{name}.{field}: missing")
        if blob.get("counters_match") is not True:
            problems.append(f"{name}.counters_match: not true")
        cache = blob.get("artifact_cache")
        if isinstance(cache, dict):
            for field in ("builds", "hits", "joins"):
                if not isinstance(cache.get(field), int):
                    problems.append(f"{name}.artifact_cache.{field}: missing")
    return problems


def write_concurrency_json(path: str, document: dict) -> None:
    """Persist the document (stable key order, trailing newline)."""
    problems = validate_concurrency_json(document)
    if problems:
        raise ValueError(
            "refusing to write invalid bench document: "
            + "; ".join(problems[:5])
        )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="path for BENCH_concurrency.json")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    document = measure(
        jobs=args.jobs, runs_per_workload=args.runs, seed=args.seed
    )
    write_concurrency_json(args.output, document)
    for name, blob in document["workloads"].items():
        print(
            f"{name:16s} jobs=1 {blob['throughput_jobs1']:7.2f} runs/s | "
            f"jobs={blob['jobs']} {blob['throughput_jobsN']:7.2f} runs/s | "
            f"speedup {blob['speedup']:.2f}x | "
            f"parity {'ok' if blob['counters_match'] else 'BROKEN'}"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
