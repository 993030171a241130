#!/usr/bin/env python3
"""Compare two result sets of the page-load benchmark (parent vs change).

Collect ``MIN_PAIRS`` alternating pairs (seeds 1 to ``MIN_PAIRS``) on
every workload, parent and change each running its own copy of the
(identical) benchmark against its own program::

    python3 perfbench/compare.py collect --parent ../parent --change . --out ab

Then judge every workload and end-to-end metric::

    python3 perfbench/compare.py report ab/parent.jsonl ab/change.jsonl

Runs pair up by (workload, seed).  The verdict per workload and metric:

* ``unresolved`` — fewer than ``MIN_PAIRS`` pairs, or the parent's
  quartile spread (as a share of its median) is wider than the metric's
  bound, unless every change run reads better than every parent run;
* ``improved`` — the change wins at least 9/10 of the pairs (ties count
  for neither) and its median moves the better way by more than the
  parent's interquartile range, with no more failed loads than the parent;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """``{(workload, seed): record}`` for the untraced runs in a file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs[(record["workload"], record["seed"])] = record
    return runs


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    n = len(parent)
    if n < MIN_PAIRS:
        return "unresolved"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    q1, median_p, q3 = statistics.quantiles(parent, n=4)
    median_c = statistics.median(change)
    spread = (q3 - q1) / median_p
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if (
        wins >= WIN_SHARE * n
        and better(median_c, median_p)
        and abs(median_c - median_p) > q3 - q1
    ):
        return "improved"
    # Worse than the parent's median moved by the bound the bad way.
    if better(median_p * (1 + bound if lower else 1 - bound), median_c):
        return "regressed"
    return "unchanged"


def report(parent_path: str, change_path: str) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent_runs = load_runs(parent_path)
    change_runs = load_runs(change_path)
    keys = sorted(set(parent_runs) & set(change_runs))
    workloads = sorted({workload for workload, _ in keys})
    if not workloads:
        print("compare: no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    header = (
        f"{'workload':<11} {'metric':<26} {'parent p50 [q1, q3]':>30} "
        f"{'change p50 [q1, q3]':>30} {'delta':>8} {'wins':>6}  verdict"
    )
    print(header)
    regressed = False
    for workload in workloads:
        pairs = [(parent_runs[k], change_runs[k]) for k in keys if k[0] == workload]
        failed_p = sum(p["result"]["failed"] for p, _ in pairs)
        failed_c = sum(c["result"]["failed"] for _, c in pairs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            both = [
                (p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                for p, c in pairs
                if name in p["result"]["metrics"] and name in c["result"]["metrics"]
            ]
            if not both:
                continue
            parent = [p for p, _ in both]
            change = [c for _, c in both]
            lower = metric["better"] == "lower"
            result = verdict(parent, change, metric["bound"], lower)
            if result == "improved" and failed_c > failed_p:
                result = "unchanged (more failed loads)"
            regressed |= result == "regressed"
            wins = sum((c < p) if lower else (c > p) for p, c in both)
            print(
                f"{workload:<11} {name:<26} {describe(parent):>30} "
                f"{describe(change):>30} "
                f"{100 * (statistics.median(change) / statistics.median(parent) - 1):+7.1f}% "
                f"{wins:>3}/{len(both):<2}  {result}"
            )
        print(f"{workload:<11} {'failed loads':<26} {failed_p:>30} {failed_c:>30}")
    return 1 if regressed else 0


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.3f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.3f} [{q1:.3f}, {q3:.3f}]"


def benchmark_digest(root: Path) -> str:
    digest = hashlib.sha256()
    files = [root / "BENCHMARK.json"] + sorted(
        path for path in (root / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if benchmark_digest(sides["parent"]) != benchmark_digest(sides["change"]):
        print(
            "compare: the two checkouts hold different benchmark code; "
            "copy one perfbench/ and BENCHMARK.json into both",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    # Run length is the benchmark's, the same on both sides.
    seconds = str(spec["run_seconds"])
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for k in range(MIN_PAIRS):
        seed = k + 1
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                command = [
                    sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", seconds, "--trace", "0",
                    "--save", str(out / f"{side}.jsonl"),
                ]
                done = subprocess.run(command, cwd=sides[side], capture_output=True, text=True)
                status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
                print(f"pair {k + 1}/{MIN_PAIRS} seed {seed} {workload} {side}: {status}",
                      flush=True)
                if done.returncode != 0:
                    failures += 1
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="root of the parent checkout")
    run.add_argument("--change", required=True, help="root of the change checkout")
    run.add_argument("--out", required=True, help="directory for parent/change .jsonl")
    judge = commands.add_parser("report", help="judge two result files")
    judge.add_argument("parent")
    judge.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
