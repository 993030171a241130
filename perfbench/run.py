#!/usr/bin/env python3
"""Page-load benchmark of the RIC engine, run from the repository root.

    python3 perfbench/run.py --workload page-reuse --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``page-reuse`` — a returning visitor loads all seven libraries over a
  warm disk code cache and ricd records;
* ``page-cold`` — the first visit after a deploy: a never-seen library
  version, compiled, run and published into ricd;
* ``hot-exec`` — RIC runs of typedarith plus polyshapes in one warm engine.

Each RIC load is paired with a conventional load of the same page (code
cache on, no records); the pair's order alternates.  A run measures for
``--seconds`` and at least ``MIN_PAIRS`` pairs, against its own
``ric-serve`` daemon on a unix socket.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is the separate traced run that wraps
the program's layer functions and reports per-layer metrics.  Times are
rescaled to a nominal host speed (see speed.py); the report also prints
the raw wall-clock medians.  The last line of standard output is one
JSON object; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch space (code caches, daemon stores, sockets), relative
#: to the root; removed when the run ends.
WORKROOT = ".perfbench-work"
#: Pairs per run at least, so that the RIC loads' p75 has ten samples
#: beyond it.
MIN_PAIRS = 40
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The loop stops here (seconds after start) even short of ``MIN_PAIRS``,
#: leaving time for the checks and teardown inside the 180 s run limit.
LOOP_DEADLINE_S = 150.0
#: Pairs whose loads are repeated after the loop for the determinism check.
RECHECK_PAIRS = 1
#: Pairs whose per-load counters form the printed digest.
DIGEST_PAIRS = 10


def load_quantile(loads, quartile: int) -> float:
    """Quartile 2 (p50) or 3 (p75) of the loads' scaled times.

    ``page-cold`` loads rotate seven libraries whose load times differ by
    up to 3x, and a quantile of that mix falls in a gap between two
    libraries, where it jumps whenever part of a run is a little faster.
    Grouped loads therefore report the geometric mean over groups of each
    group's quartile.
    """
    groups: dict = {}
    for load in loads:
        groups.setdefault(load.group, []).append(load.scaled_ms)
    logs = [
        math.log(statistics.quantiles(times, n=4)[quartile - 1] if len(times) > 1 else times[0])
        for times in groups.values()
    ]
    return math.exp(statistics.fmean(logs))


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search parent directories when the checkout has no ``.git``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pair_indices(workload, seconds: float, started: float):
    """Input indices of the closed loop: one client, each load after the
    previous ends, for ``seconds`` and at least ``MIN_PAIRS`` pairs.  It
    stops only after whole input periods, twice over, so that every run
    holds the same mix of inputs, each as often first in its pair as
    second."""
    loop_start = time.perf_counter()
    i = 0
    while True:
        if i % (2 * workload.period) == 0:
            now = time.perf_counter()
            if now - loop_start >= seconds and i >= MIN_PAIRS:
                return
            if now - started >= LOOP_DEADLINE_S:
                return
        yield i
        i += 1


def run_pairs(workload, seconds: float, started: float, checks: list[str]):
    """Each input's RIC and conventional loads, in alternating order."""
    ric, conventional = [], []
    for i in pair_indices(workload, seconds, started):
        kinds = ("ric", "conventional") if i % 2 == 0 else ("conventional", "ric")
        for kind in kinds:
            if kind == "ric":
                load = workload.ric_load(i)
                ric.append(load)
            else:
                load = workload.conventional_load(i)
                conventional.append(load)
            if load.ok:
                checks.extend(workload.check(load, kind))
    return ric, conventional


def traced_load(workload, recorder, i: int):
    recorder.reset()
    recorder.install()
    try:
        load = workload.ric_load(i)
    finally:
        recorder.uninstall()
    load.spans = dict(recorder.self_ns)
    load.span_calls = dict(recorder.calls)
    load.covered_ns = recorder.covered_ns
    load.overhead_ns = recorder.overhead_ns
    # Each record is encoded once per copy (local fallback, PUT); count it once.
    envelopes = {envelope["checksum"]: envelope for envelope in recorder.envelopes}
    load.record_bytes = sum(len(json.dumps(e)) for e in envelopes.values())
    return load


def run_traced(workload, seconds: float, started: float, checks: list[str]):
    """RIC loads only: each input once with span wrappers installed and
    once without, in alternating order."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.calibrate()
    traced, untraced = [], []
    for i in pair_indices(workload, seconds, started):
        for variant in ("traced", "untraced") if i % 2 == 0 else ("untraced", "traced"):
            if variant == "traced":
                load = traced_load(workload, recorder, i)
                traced.append(load)
            else:
                load = workload.ric_load(i, variant)
                untraced.append(load)
            if load.ok:
                checks.extend(workload.check(load, "ric"))
    return traced, untraced, recorder.missing


def end_to_end_metrics(ric, conventional, setup_times) -> dict:
    ric_ok = [load for load in ric if load.ok]
    conv_ok = [load for load in conventional if load.ok]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if ric_ok:
        metrics["load_ms.p50"] = (load_quantile(ric_ok, 2), "ms")
        metrics["load_ms.p75"] = (load_quantile(ric_ok, 3), "ms")
    if conv_ok:
        metrics["conventional_load_ms.p50"] = (load_quantile(conv_ok, 2), "ms")
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced, untraced, unmeasured: set[str]) -> dict:
    """Per-load means over the traced loads; a layer in ``unmeasured``
    (one of its span targets is missing) gets no time at all."""
    from spans import LAYERS

    ok = [load for load in traced if load.ok]
    n = len(ok)
    if n == 0:
        return {}
    total = Counter()
    calls = Counter()
    for load in ok:
        total.update({layer: ns * load.scale for layer, ns in load.spans.items()})
        calls.update(load.span_calls)
    counters = [load.profile.counters for load in ok]
    stats = [load.store_stats for load in ok]

    def mean_counter(name: str) -> float:
        return sum(getattr(c, name) for c in counters) / n

    def mean_stat(name: str) -> float:
        return sum(s.get(name, 0) for s in stats) / n

    metrics = {
        f"{layer}_ms": (total[layer] / n / 1e6, "ms")
        for layer in LAYERS
        if layer not in unmeasured
    }
    cache_hits = sum(c.bytecode_cache_hits for c in counters)
    cache_all = cache_hits + sum(c.bytecode_cache_misses for c in counters)
    gets_hit = sum(s.get("hits", 0) for s in stats)
    gets_all = sum(
        s.get(k, 0) for s in stats for k in ("hits", "misses", "fallbacks", "stale_epoch")
    )
    dispatches = sum(c.dispatches for c in counters)
    preloads = sum(c.ric_preloads for c in counters)
    untraced_ok = [load for load in untraced if load.ok]
    wall_ns = sum(load.wall_ms for load in ok) * 1e6
    metrics.update(
        {
            "bytecode.cache_hit_ratio": (ratio(cache_hits, cache_all), "ratio"),
            "server.get_hit_ratio": (ratio(gets_hit, gets_all), "ratio"),
            "ric.validate_calls_per_record": (
                ratio(calls["ric.validate"], calls["ric.admit"]),
                "count",
            ),
            "ric.record_kb": (sum(load.record_bytes for load in ok) / n / 1024, "kB"),
            "ric.preloads": (preloads / n, "count"),
            "ric.preloaded_hit_ratio": (
                ratio(sum(c.ic_hits_on_preloaded for c in counters), preloads),
                "ratio",
            ),
            "interpreter.dispatches": (dispatches / n, "count"),
            "interpreter.ns_per_dispatch": (
                ratio(total["interpreter.execute"], dispatches),
                "ns",
            ),
            "ic.misses": (mean_counter("ic_misses"), "count"),
            "ic.hit_ratio": (
                ratio(sum(c.ic_hits for c in counters), sum(c.ic_accesses for c in counters)),
                "ratio",
            ),
            "specialize.hits": (mean_counter("specialized_hits"), "count"),
            "specialize.deopts": (mean_counter("deopts"), "count"),
            "runtime.heap_kb": (
                sum(load.profile.heap_bytes for load in ok) / n / 1024,
                "kB",
            ),
            "server.retries": (mean_stat("retries"), "count"),
            "server.fallbacks": (mean_stat("fallbacks"), "count"),
            "ric.records_rejected": (mean_counter("ric_records_rejected"), "count"),
            "ric.records_corrupt": (mean_counter("ric_records_corrupt"), "count"),
            # The timed collection after a hot-exec run is accounted for too.
            "trace.coverage": (
                ratio(sum(load.covered_ns + load.gc_ms * 1e6 for load in ok), wall_ns),
                "ratio",
            ),
            "trace.overhead_pct": (
                (load_quantile(ok, 2) / load_quantile(untraced_ok, 2) - 1.0) * 100.0
                if untraced_ok
                else 0.0,
                "%",
            ),
        }
    )
    if "interpreter.execute" in unmeasured:
        del metrics["interpreter.ns_per_dispatch"]
    return metrics


def print_breakdown(traced) -> None:
    """Self time per layer of the median traced load; sums to its wall."""
    ok = sorted((load for load in traced if load.ok), key=lambda load: load.wall_ms)
    if not ok:
        return
    load = ok[len(ok) // 2]
    wall_ms = load.wall_ms
    print(f"breakdown of the median traced load ({wall_ms:.3f} ms wall):")
    rows = sorted(load.spans.items(), key=lambda item: -item[1])
    rows.append(("(span wrappers)", load.overhead_ns))
    if load.gc_ms:
        rows.append(("(gc after the run)", load.gc_ms * 1e6))
    rows.append(("(uncovered)", (load.wall_ms - load.gc_ms) * 1e6 - load.covered_ns))
    for layer, ns in rows:
        ms = ns / 1e6
        print(f"  {layer:<24} {ms:10.3f} ms  {100 * ms / wall_ms:6.2f} %")
    total = sum(ns for _, ns in rows) / 1e6
    print(f"  {'total':<24} {total:10.3f} ms")


def print_run_summary(ric, conventional, failed, raw_setup_times) -> None:
    """Sample counts, failures, the counters digest and raw wall clock."""
    loads = ric + conventional
    print(
        f"loads: {len(ric)} ric + {len(conventional)} conventional, "
        f"setups: {len(raw_setup_times)}, failed: {len(failed)} "
        f"(failed_frac {len(failed) / max(1, len(loads)):.4f})"
    )
    print(
        f"counters digest (first {DIGEST_PAIRS} pairs): "
        f"{counters_digest(ric, conventional)}"
    )
    raw = {
        "ric p50": [load.wall_ms for load in ric if load.ok],
        "conventional p50": [load.wall_ms for load in conventional if load.ok],
    }
    print(
        "raw wall clock: "
        + ", ".join(f"{k} {statistics.median(v):.1f} ms" for k, v in raw.items() if v)
        + f", setup {statistics.median(raw_setup_times):.3f} s; host-speed scale "
        f"p50 {statistics.median(load.scale for load in loads):.3f}"
    )


def print_ric_gain(metrics: dict) -> None:
    """Conventional over RIC p50, with both bases; reported, not gated."""
    if "load_ms.p50" not in metrics or "conventional_load_ms.p50" not in metrics:
        return
    ric_p50 = metrics["load_ms.p50"][0]
    conv_p50 = metrics["conventional_load_ms.p50"][0]
    print(
        f"RIC gain: conventional/RIC = {conv_p50 / ric_p50:.3f}x; saving "
        f"{100 * (conv_p50 - ric_p50) / conv_p50:+.1f}% of conventional p50 "
        f"({conv_p50:.1f} ms), {100 * (conv_p50 - ric_p50) / ric_p50:+.1f}% "
        f"of RIC p50 ({ric_p50:.1f} ms)"
    )


def counters_digest(ric, conventional) -> str:
    rows = [
        [load.deterministic_counters() for load in pair]
        for pair in zip(ric[:DIGEST_PAIRS], conventional[:DIGEST_PAIRS])
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def recheck(workload, ric, conventional) -> list[str]:
    """Repeat the first pairs: per-load counters must repeat exactly."""
    problems = []
    for kind, loads in (("ric", ric), ("conventional", conventional)):
        for i, first in enumerate(loads[:RECHECK_PAIRS]):
            if not first.ok:
                continue
            again = workload.recheck_load(i, kind)
            if again.deterministic_counters() != first.deterministic_counters():
                problems.append(
                    f"{kind} load {i} counters {first.deterministic_counters()} "
                    f"repeated as {again.deterministic_counters()}"
                )
    return problems


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--save",
        metavar="FILE",
        help="append this run's result, samples and host to a JSON-lines file",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    save_path = os.path.abspath(args.save) if args.save else None

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # The engine's quickening default reads this; the benchmark measures
    # the default configuration whatever the caller's environment says.
    os.environ.pop("RIC_SPECIALIZE", None)
    # One CPU for this process and (inherited) its daemon: the client
    # blocks on every request, so the two never compete, and the speed
    # probe then measures the core that did all of a load's work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from pages import WORKLOAD_CLASSES, BenchError, describe
    from speed import SpeedProbe

    if args.workload not in WORKLOAD_CLASSES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOAD_CLASSES)}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    host = host_info()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print(
        f"host: nproc={host['nproc']} python={host['python']} "
        f"loadavg={','.join(map(str, host['loadavg']))} commit={host['commit']}"
    )

    os.makedirs(WORKROOT, exist_ok=True)
    probe = SpeedProbe()
    workload = WORKLOAD_CLASSES[args.workload](args.seed, WORKROOT, SRC, probe)
    checks: list[str] = []
    setup_times = []
    raw_setup_times = []
    try:
        for k in range(SETUPS):
            if k:
                workload.teardown()
            before = probe.latest()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            raw_setup_times.append(elapsed)
            setup_times.append(elapsed * probe.scale(before, probe.sample()))
        if args.trace:
            ric, untraced, missing = run_traced(workload, args.seconds, started, checks)
            # A renamed or moved hot path would otherwise read as a layer
            # that takes no time.
            checks.extend(f"span target {target} ({layer}) not found" for layer, target in missing)
            conventional = []
            loads = ric + untraced
        else:
            ric, conventional = run_pairs(workload, args.seconds, started, checks)
            loads = ric + conventional
        checks.extend(workload.finish())
        checks.extend(recheck(workload, ric, conventional))
        workload.teardown()
    except BenchError as exc:
        workload.abort()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        workload.abort()
        raise
    finally:
        shutil.rmtree(WORKROOT, ignore_errors=True)

    failed = [load for load in loads if not load.ok]
    for load in failed[:5]:
        print(f"FAILED load: {describe(load)}")
    checks = list(dict.fromkeys(checks))
    for problem in checks:
        print(f"SELF-CHECK FAILED: {problem}")

    if args.trace:
        metrics = per_layer_metrics(ric, untraced, {layer for layer, _ in missing})
        print(f"traced loads: {len(ric)} traced + {len(untraced)} untraced")
        print_breakdown(ric)
    else:
        metrics = end_to_end_metrics(ric, conventional, setup_times)
        print_run_summary(ric, conventional, failed, raw_setup_times)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.4f} {unit}")
    if not args.trace:
        print_ric_gain(metrics)

    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in absent:
        checks.append(f"metric {name} was not measured")
        print(f"SELF-CHECK FAILED: metric {name} was not measured")
    correct = not failed and not checks
    result = {
        "correct": correct,
        "attempted": len(loads),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    if save_path:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            "result": result,
            "samples_ms": {
                kind: [load.wall_ms for load in group if load.ok]
                for kind, group in (("ric", ric), ("conventional", conventional))
            },
            "scales": {
                kind: [load.scale for load in group if load.ok]
                for kind, group in (("ric", ric), ("conventional", conventional))
            },
            "setup_s": raw_setup_times,
        }
        with open(save_path, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
