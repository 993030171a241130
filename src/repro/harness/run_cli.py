"""``ric-run`` — execute jsl files from the command line.

Runs one or more scripts in a fresh engine, optionally persisting/reusing
an ICRecord and bytecode cache across invocations (the full cross-process
RIC experience), printing execution statistics, a disassembly, or an IC
event trace.  With no files, starts a small REPL.

Examples::

    ric-run lib.jsl app.jsl                  # run scripts in order
    ric-run --stats lib.jsl                  # + IC statistics
    ric-run --record /tmp/lib.ric lib.jsl    # persist/reuse the ICRecord
    ric-run --store-dir /tmp/ricstore lib.jsl    # per-script RecordStore
    ric-run --remote-store /tmp/ricd.sock lib.jsl  # share via a ricd daemon
    ric-run --remote-store h1:7401,h2:7401,h3:7401 lib.jsl  # sharded fleet
    ric-run --remote-store h1:7401,h2:7401,h3:7401 --bump-epoch  # invalidate fleet
    ric-run --store-dir /tmp/ricstore --store-status  # store health summary
    ric-run --trace lib.jsl                  # print the IC event trace
    ric-run --disassemble lib.jsl            # show bytecode, don't run
    ric-run --bench-json BENCH_interp.json   # cold-vs-reuse perf baseline
    ric-run --max-steps 1000000 loop.jsl     # governed run (exit 5 on abort)
    ric-run --jobs 4 a.jsl b.jsl c.jsl d.jsl # concurrent isolated sessions
    ric-run                                  # REPL

Exit codes (one per failure class, so wrappers and CI can react without
parsing stderr; documented in the README):

* 0 — success
* 1 — internal error (a bug in ric-run itself)
* 2 — usage error: bad flags, missing input file
* 3 — parse/compile error in a jsl source
* 4 — guest runtime error (uncaught throw, type error, ...)
* 5 — execution budget exceeded (steps/heap/depth/deadline)
* 6 — run cancelled via a cancel token
* 7 — record store unavailable (with ``--require-store``)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bytecode.compiler import compile_source
from repro.bytecode.disasm import disassemble
from repro.core.budget import ExecutionBudget
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.core.errors import Cancelled, ExecutionAborted
from repro.lang.errors import JSLCompileError, JSLError, JSLSyntaxError
from repro.ric.errors import CorruptRecord
from repro.ric.serialize import save_icrecord, try_load_icrecord
from repro.stats.tracing import Tracer

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4
EXIT_BUDGET = 5
EXIT_CANCELLED = 6
EXIT_STORE_UNAVAILABLE = 7


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ric-run", description=__doc__)
    parser.add_argument("files", nargs="*", help="jsl scripts, run in order")
    parser.add_argument("--stats", action="store_true", help="print IC statistics")
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="ICRecord file: reused if it exists, written after the run",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", help="bytecode code-cache directory"
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        help="per-script RecordStore directory: records are fetched before "
        "the run and published after it",
    )
    parser.add_argument(
        "--remote-store",
        metavar="ENDPOINT",
        action="append",
        default=None,
        help="endpoint of a ric-serve daemon: a unix socket path or "
        "HOST:PORT.  Repeat the flag (or comma-separate) for a sharded "
        "fleet routed by consistent hashing; --store-dir (if given) "
        "becomes the local fallback store",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=2,
        metavar="R",
        help="fleet replication factor: each record lives on R shards "
        "(PUT fan-out, GET failover); clamped to the fleet size",
    )
    parser.add_argument(
        "--bump-epoch",
        action="store_true",
        help="broadcast a fleet-epoch bump to every --remote-store "
        "endpoint (invalidating all previously published records on "
        "every shard and replica) and exit",
    )
    parser.add_argument(
        "--store-status",
        action="store_true",
        help="print the selected store's status as JSON and exit",
    )
    parser.add_argument("--trace", action="store_true", help="print the IC event trace")
    parser.add_argument(
        "--disassemble", action="store_true", help="print bytecode and exit"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run each FILE as its own isolated session, N at a time, over "
        "one shared artifact cache (note: files no longer share globals or "
        "stop at the first failure — every file runs; the first failing "
        "file in argument order decides the exit code)",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable the peephole bytecode optimizer",
    )
    parser.add_argument(
        "--no-specialize",
        action="store_true",
        help="disable feedback-driven bytecode specialization (quickening) "
        "on reuse runs",
    )
    parser.add_argument(
        "--bench-json",
        metavar="PATH",
        help="run the cold-vs-reuse interpreter baseline over every "
        "workload and write the JSON document to PATH (ignores files)",
    )
    parser.add_argument(
        "--bench-iterations",
        type=int,
        default=5,
        help="wall-time repetitions per workload for --bench-json",
    )
    governance = parser.add_argument_group(
        "execution governance (any flag arms the budget; exit 5 on abort)"
    )
    governance.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="abort after N dispatch steps",
    )
    governance.add_argument(
        "--max-heap-bytes",
        type=int,
        default=None,
        metavar="N",
        help="abort when the simulated heap exceeds N bytes",
    )
    governance.add_argument(
        "--max-heap-objects",
        type=int,
        default=None,
        metavar="N",
        help="abort after N heap allocations",
    )
    governance.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="abort when guest call depth reaches N frames",
    )
    governance.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="abort after MS milliseconds of wall clock",
    )
    parser.add_argument(
        "--require-store",
        action="store_true",
        help="with --remote-store: exit 7 if the daemon doesn't answer "
        "a PING, instead of silently falling back to the local store",
    )
    parser.add_argument(
        "--sweep-quarantine",
        action="store_true",
        help="with --store-dir: delete old/excess quarantined *.corrupt "
        "entries (see --quarantine-max-age/--quarantine-max-count)",
    )
    parser.add_argument(
        "--quarantine-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sweep quarantined entries older than SECONDS",
    )
    parser.add_argument(
        "--quarantine-max-count",
        type=int,
        default=None,
        metavar="N",
        help="sweep the oldest quarantined entries beyond the newest N",
    )
    args = parser.parse_args(argv)

    if args.bench_json:
        return _bench(args)

    # --remote-store may be repeated and each value comma-separated;
    # flatten to one endpoint list (order matters only for display —
    # routing is by consistent hash).
    endpoints: "list[str] | None" = None
    if args.remote_store:
        endpoints = [
            part.strip()
            for spec in args.remote_store
            for part in str(spec).split(",")
            if part.strip()
        ]
    if args.replication < 1:
        print(
            f"ric-run: --replication must be >= 1, got {args.replication}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    store = None
    if endpoints or args.store_dir:
        from repro.server.client import make_record_store

        store = make_record_store(
            endpoints,
            directory=args.store_dir,
            replication=args.replication,
        )

    if args.bump_epoch:
        if not endpoints:
            print(
                "ric-run: --bump-epoch needs --remote-store", file=sys.stderr
            )
            return EXIT_USAGE
        epoch = store.bump_epoch()
        if epoch is None:
            print(
                "ric-run: --bump-epoch: no shard acknowledged "
                f"({', '.join(endpoints)})",
                file=sys.stderr,
            )
            return EXIT_STORE_UNAVAILABLE
        print(f"ric-run: fleet epoch is now {epoch}", file=sys.stderr)
        missed = store.last_bump_missed
        if missed:
            print(
                f"ric-run: warning: {len(missed)} shard(s) missed the "
                f"bump ({', '.join(missed)}); re-run --bump-epoch when "
                "they rejoin",
                file=sys.stderr,
            )
        if not args.files and not args.store_status:
            return EXIT_OK

    if args.require_store and endpoints:
        if not store.ping():
            print(
                f"ric-run: record store unavailable: {', '.join(endpoints)}",
                file=sys.stderr,
            )
            return EXIT_STORE_UNAVAILABLE

    if args.sweep_quarantine:
        local = getattr(store, "fallback", store)
        if local is None or getattr(local, "sweep_quarantine", None) is None:
            print(
                "ric-run: --sweep-quarantine needs --store-dir",
                file=sys.stderr,
            )
            return EXIT_USAGE
        summary = local.sweep_quarantine(
            max_age_s=args.quarantine_max_age,
            max_count=args.quarantine_max_count,
        )
        print(
            f"ric-run: quarantine sweep: removed {summary['swept']}, "
            f"kept {summary['kept']}",
            file=sys.stderr,
        )
        if not args.files and not args.store_status:
            return EXIT_OK

    if args.store_status:
        if store is None:
            print(
                "ric-run: --store-status needs --store-dir and/or --remote-store",
                file=sys.stderr,
            )
            return EXIT_USAGE
        import json

        print(json.dumps(store.status(), indent=2, sort_keys=True))
        return EXIT_OK

    if not args.files:
        return _repl(args)

    scripts = []
    for filename in args.files:
        path = Path(filename)
        if not path.exists():
            print(f"ric-run: no such file: {filename}", file=sys.stderr)
            return EXIT_USAGE
        scripts.append((path.name, path.read_text()))

    if args.disassemble:
        for filename, source in scripts:
            try:
                code = compile_source(source, filename)
            except JSLError as error:
                print(f"ric-run: {error}", file=sys.stderr)
                return EXIT_PARSE
            print(disassemble(code, recursive=True))
        return EXIT_OK

    budget = None
    if (
        args.max_steps is not None
        or args.max_heap_bytes is not None
        or args.max_heap_objects is not None
        or args.max_depth is not None
        or args.deadline_ms is not None
    ):
        try:
            budget = ExecutionBudget(
                max_steps=args.max_steps,
                max_heap_bytes=args.max_heap_bytes,
                max_heap_objects=args.max_heap_objects,
                max_frame_depth=args.max_depth,
                deadline_ms=args.deadline_ms,
            )
        except ValueError as error:
            print(f"ric-run: {error}", file=sys.stderr)
            return EXIT_USAGE

    config = RICConfig(specialize=not args.no_specialize) if args.no_specialize else None
    engine = Engine(
        seed=args.seed,
        cache_dir=args.cache_dir,
        optimize=not args.no_optimize,
        record_store=store,
        config=config,
    )
    if args.jobs != 1:
        return _run_jobs(args, engine, scripts, store, budget)

    record = None
    if args.record and Path(args.record).exists():
        # Degrading load: a corrupt/stale record becomes a CorruptRecord
        # placeholder that the engine counts and cold-starts past.
        record = try_load_icrecord(args.record)
        if isinstance(record, CorruptRecord):
            print(
                f"ric-run: ignoring corrupt record (cold start): {record.error}",
                file=sys.stderr,
            )

    tracer = Tracer() if args.trace else None
    try:
        profile = engine.run(
            scripts,
            name="cli",
            icrecord=record,
            tracer=tracer,
            use_store=store is not None and record is None,
            budget=budget,
        )
    except (JSLSyntaxError, JSLCompileError) as error:
        print(f"ric-run: {error}", file=sys.stderr)
        return EXIT_PARSE
    except JSLError as error:
        print(f"ric-run: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    except ExecutionAborted as aborted:
        # The run was terminated by governance, not by the guest.  Output
        # produced before the abort still prints (partial runs are real
        # runs), then the reason-specific exit code.
        if aborted.profile is not None:
            for line in aborted.profile.console_output:
                print(line)
        print(f"ric-run: aborted ({aborted.reason}): {aborted}", file=sys.stderr)
        return EXIT_CANCELLED if isinstance(aborted, Cancelled) else EXIT_BUDGET

    for line in profile.console_output:
        print(line)

    if args.record:
        save_icrecord(engine.extract_icrecord(), args.record)
    if store is not None:
        # Publish this run's per-script records so the next invocation —
        # or another process sharing the daemon — starts warm.
        engine.publish_records(counters=profile.counters)

    if args.trace and tracer is not None:
        print("\n-- IC event trace " + "-" * 40, file=sys.stderr)
        print(tracer.render(limit=200), file=sys.stderr)

    if args.stats:
        counters = profile.counters
        print("\n-- statistics " + "-" * 44, file=sys.stderr)
        print(
            f"guest instructions: {counters.total_instructions}\n"
            f"IC accesses:        {counters.ic_accesses} "
            f"(hits {counters.ic_hits}, misses {counters.ic_misses}, "
            f"miss rate {100 * counters.ic_miss_rate:.1f}%)\n"
            f"hidden classes:     {counters.hidden_classes_created}\n"
            f"handlers generated: {counters.handlers_generated} "
            f"({counters.handlers_generated_context_independent} context-independent)\n"
            f"RIC: {counters.ric_validations} validations, "
            f"{counters.ric_preloads} preloads, "
            f"{counters.ic_hits_on_preloaded} hits on preloaded slots\n"
            f"RIC degradation:    {counters.ric_records_corrupt} corrupt, "
            f"{counters.ric_records_rejected} rejected records\n"
            f"specialization:     {counters.specialized_sites} quickened sites, "
            f"{counters.specialized_hits} typed hits, "
            f"{counters.deopts} deopts "
            f"({counters.despecialized_sites} sites demoted)\n"
            f"bytecode cache:     {counters.bytecode_cache_hits} hits, "
            f"{counters.bytecode_cache_misses} misses\n"
            f"remote store:       {counters.ric_remote_hits} hits, "
            f"{counters.ric_remote_misses} misses, "
            f"{counters.ric_remote_fallbacks} fallbacks, "
            f"{counters.ric_remote_evictions} evictions\n"
            f"remote fleet:       {counters.ric_remote_failovers} failovers, "
            f"{counters.ric_remote_proto_mismatch} proto mismatches, "
            f"{counters.ric_remote_stale_epoch} stale-epoch refusals\n"
            f"budget aborts:      {counters.budget_aborts_total} "
            f"(steps {counters.budget_aborts_steps}, "
            f"heap {counters.budget_aborts_heap}, "
            f"depth {counters.budget_aborts_depth}, "
            f"deadline {counters.budget_aborts_deadline}, "
            f"cancelled {counters.budget_aborts_cancelled})\n"
            f"wall time:          {profile.wall_time_ms:.2f} ms",
            file=sys.stderr,
        )
    return 0


def _run_jobs(args, engine, scripts, store, budget) -> int:
    """--jobs N: one isolated concurrent session per file.

    Unlike the sequential path the files do not share a global object and
    a failure in one does not stop the others; outputs are printed in
    file order once every session finishes.  The exit code is the
    sequential one: the first failing file (in argument order) decides.
    """
    if args.jobs < 1:
        print(f"ric-run: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    if args.record:
        print(
            "ric-run: --record is per-run state and cannot be combined "
            "with --jobs; use --store-dir/--remote-store for shared records",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.trace:
        print("ric-run: --trace cannot be combined with --jobs", file=sys.stderr)
        return EXIT_USAGE

    from repro.core.executor import EngineExecutor, RunRequest

    requests = [
        RunRequest(
            scripts=[script],
            name=script[0],
            use_store=store is not None,
            budget=budget,
        )
        for script in scripts
    ]
    outcomes = EngineExecutor(engine).run_many(requests, jobs=args.jobs)

    exit_code = EXIT_OK
    for outcome in outcomes:
        if outcome.profile is not None:
            for line in outcome.profile.console_output:
                print(line)
        error = outcome.error
        if error is None:
            if store is not None and outcome.session is not None:
                # Publish this file's records so later invocations — or
                # other processes sharing the daemon — start warm.
                outcome.session.publish_records(engine.record_store)
            continue
        if isinstance(error, (JSLSyntaxError, JSLCompileError)):
            code = EXIT_PARSE
        elif isinstance(error, JSLError):
            code = EXIT_RUNTIME
        elif isinstance(error, ExecutionAborted):
            code = EXIT_CANCELLED if isinstance(error, Cancelled) else EXIT_BUDGET
        else:  # pragma: no cover - executor only captures the above
            code = EXIT_INTERNAL
        print(f"ric-run: {outcome.request.name}: {error}", file=sys.stderr)
        if exit_code == EXIT_OK:  # first failing file in order decides
            exit_code = code

    if args.stats:
        print("\n-- statistics (per file) " + "-" * 33, file=sys.stderr)
        for outcome in outcomes:
            profile = outcome.profile
            if profile is None:
                print(f"{outcome.request.name}: no profile", file=sys.stderr)
                continue
            counters = profile.counters
            print(
                f"{outcome.request.name}: "
                f"{counters.total_instructions} instructions, "
                f"IC {counters.ic_accesses} accesses "
                f"({100 * counters.ic_miss_rate:.1f}% miss), "
                f"{counters.ric_preloads} preloads, "
                f"{profile.wall_time_ms:.2f} ms",
                file=sys.stderr,
            )
        cache = engine.artifacts.stats()
        print(
            f"artifact cache: {cache.builds} builds, {cache.hits} hits, "
            f"{cache.joins} joins",
            file=sys.stderr,
        )
    return exit_code


def _bench(args: argparse.Namespace) -> int:
    """--bench-json: regenerate the interpreter perf baseline."""
    from repro.harness.bench import main as bench_main

    bench_argv = [args.bench_json, "--iterations", str(args.bench_iterations)]
    if args.seed is not None:
        bench_argv += ["--seed", str(args.seed)]
    return bench_main(bench_argv)


def _repl(args: argparse.Namespace) -> int:
    """A line-oriented REPL: each entry runs as a script sharing one global
    object (a persistent runtime across lines)."""
    from repro.ic.icvector import FeedbackState
    from repro.ic.miss import ICRuntime
    from repro.interpreter.vm import VM
    from repro.runtime.builtins import install_builtins
    from repro.runtime.context import Runtime
    from repro.runtime.values import UNDEFINED, to_string
    from repro.stats.counters import Counters

    runtime = Runtime(seed=args.seed)
    install_builtins(runtime)
    counters = Counters()
    runtime.hidden_classes.on_created = lambda hc: None
    feedback = FeedbackState()
    vm = VM(runtime, counters, ICRuntime(runtime, counters), feedback)

    print("jsl repl — empty line or Ctrl-D to exit")
    line_number = 0
    while True:
        try:
            line = input("jsl> ")
        except EOFError:
            print()
            return 0
        if not line.strip():
            return 0
        line_number += 1
        try:
            code = compile_source(line, f"<repl:{line_number}>")
            feedback.register_script(code)
            result = vm.run_code(code)
            printed = len(runtime.console_output)
            for output in runtime.console_output:
                print(output)
            del runtime.console_output[:printed]
            if result is not UNDEFINED:
                print(to_string(result))
        except JSLError as error:
            print(f"error: {error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
