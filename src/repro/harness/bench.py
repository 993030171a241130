"""The interpreter performance baseline: cold vs reuse over every workload.

This is the repo's first recorded perf trajectory.  It runs each of the
nine workloads (the seven paper libraries, the default synthetic
library, and the polymorphic-tier ``polyshapes`` sweep) through the full
protocol — Initial ("cold") run, ICRecord
extraction, RIC Reuse run — ``iterations`` times, and reports per mode:

* host wall time (min and median across iterations; min is the stable
  number to compare across commits, median shows jitter),
* the cost-model instruction breakdown (``Counters.instructions``) plus
  the raw bytecode dispatch count (``Counters.dispatches``),
* IC hit/miss/access counts and the miss rate,
* RIC preload/validation counts on the reuse side.

The emitted JSON (``BENCH_interp.json`` at the repo root, regenerated with
``ric-run --bench-json BENCH_interp.json``) is schema-versioned so later
PRs can extend it without breaking consumers; ``validate_bench_json``
is the schema gate used by ``benchmarks/test_bench_smoke.py``.

Counter values are deterministic for a fixed engine seed; only the wall
times vary between hosts and runs.
"""

from __future__ import annotations

import json
import platform
import statistics
import typing

from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.stats.profile import RunProfile
from repro.workloads import WORKLOADS, polyshapes, typedarith
from repro.workloads.synthetic import generate_library

#: v3: ``specialized_hits``/``deopts`` (bytecode specialization) joined
#: every mode blob, and the type-stable ``typedarith`` workload joined
#: the benchmarked set.  v2 added per-tier IC counters (mono/poly/mega
#: hits, poly/mega transitions) and ``polyshapes``.
SCHEMA = "ric-bench-interp/v3"

#: Counter fields copied verbatim into each mode's JSON blob.
_COUNTER_FIELDS = (
    "dispatches",
    "ic_accesses",
    "ic_hits",
    "ic_misses",
    "ic_hits_on_preloaded",
    "ic_hits_mono",
    "ic_hits_poly",
    "ic_hits_mega",
    "ic_poly_transitions",
    "ic_mega_transitions",
    "ric_preloads",
    "ric_validations",
    "hidden_classes_created",
    "handlers_generated",
    "specialized_hits",
    "deopts",
)


def bench_workloads() -> dict[str, list[tuple[str, str]]]:
    """The benchmarked workloads: the seven libraries plus ``synthetic``
    (the default parameterization of the generator) plus ``polyshapes``
    (the polymorphic/megamorphic tier sweep) plus ``typedarith`` (the
    type-stable specialization showcase)."""
    scripts = {name: WORKLOADS[name].scripts() for name in WORKLOADS}
    scripts["synthetic"] = [("synthetic.jsl", generate_library())]
    scripts["polyshapes"] = [("polyshapes.jsl", polyshapes.SOURCE)]
    scripts["typedarith"] = [("typedarith.jsl", typedarith.SOURCE)]
    return scripts


def _mode_blob(profile: RunProfile, wall_times_ms: list[float]) -> dict:
    counters = profile.counters
    blob: dict = {
        "wall_time_ms": {
            "min": min(wall_times_ms),
            "median": statistics.median(wall_times_ms),
        },
        "total_instructions": counters.total_instructions,
        "instructions": dict(counters.instructions),
        "ic_miss_rate": counters.ic_miss_rate,
        "console_lines": len(profile.console_output),
    }
    for name in _COUNTER_FIELDS:
        blob[name] = getattr(counters, name)
    return blob


def measure(
    workload_names: typing.Sequence[str] | None = None,
    iterations: int = 5,
    seed: int = 1,
    config: RICConfig | None = None,
) -> dict:
    """Run the cold-vs-reuse baseline and return the BENCH_interp document.

    Each iteration uses a fresh :class:`Engine` so the cold run really is
    cold (empty in-process code cache, IC state from scratch); the reuse
    run uses the record extracted from that same engine's cold run.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    config = config or RICConfig()
    scripts_by_name = bench_workloads()
    names = (
        list(workload_names) if workload_names is not None else list(scripts_by_name)
    )

    workloads: dict = {}
    for name in names:
        scripts = scripts_by_name[name]  # KeyError lists nothing: validate
        cold_times: list[float] = []
        reuse_times: list[float] = []
        cold_profile: RunProfile | None = None
        reuse_profile: RunProfile | None = None
        for _ in range(iterations):
            engine = Engine(config=config, seed=seed)
            cold_profile = engine.run(scripts, name=name)
            record = engine.extract_icrecord()
            reuse_profile = engine.run(scripts, name=name, icrecord=record)
            cold_times.append(cold_profile.wall_time_ms)
            reuse_times.append(reuse_profile.wall_time_ms)
        assert cold_profile is not None and reuse_profile is not None
        workloads[name] = {
            "cold": _mode_blob(cold_profile, cold_times),
            "reuse": _mode_blob(reuse_profile, reuse_times),
        }

    return {
        "schema": SCHEMA,
        "generated_by": "benchmarks/baseline.py (ric-run --bench-json)",
        "config": {
            "iterations": iterations,
            "seed": seed,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
    }


def write_bench_json(path: str, document: dict) -> None:
    """Persist the baseline document (stable key order, trailing newline)."""
    problems = validate_bench_json(document)
    if problems:
        raise ValueError(
            f"refusing to write invalid bench document: {'; '.join(problems[:5])}"
        )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def validate_bench_json(document: object) -> list[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(document.get("config"), dict):
        problems.append("missing config object")
    workloads = document.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["missing or empty workloads object"]
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        for mode in ("cold", "reuse"):
            blob = entry.get(mode)
            if not isinstance(blob, dict):
                problems.append(f"{name}.{mode}: missing")
                continue
            wall = blob.get("wall_time_ms")
            if not isinstance(wall, dict) or not {"min", "median"} <= set(wall):
                problems.append(f"{name}.{mode}.wall_time_ms: needs min/median")
            for field in ("total_instructions", "instructions", *_COUNTER_FIELDS):
                if field not in blob:
                    problems.append(f"{name}.{mode}.{field}: missing")
            instructions = blob.get("instructions")
            if isinstance(instructions, dict) and not all(
                isinstance(v, int) for v in instructions.values()
            ):
                problems.append(f"{name}.{mode}.instructions: non-integer counts")
    return problems


def main(argv: list[str] | None = None) -> int:
    """``python -m`` / direct entry point: write the baseline JSON."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="path for BENCH_interp.json")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    document = measure(iterations=args.iterations, seed=args.seed)
    write_bench_json(args.output, document)
    for name, entry in document["workloads"].items():
        cold, reuse = entry["cold"], entry["reuse"]
        print(
            f"{name:16s} cold {cold['wall_time_ms']['min']:8.2f} ms "
            f"({cold['ic_misses']} misses) | reuse "
            f"{reuse['wall_time_ms']['min']:8.2f} ms ({reuse['ic_misses']} misses)"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
