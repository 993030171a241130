"""The three workloads: seeded inputs, the ricd daemon a run owns, and
one load of each kind, driven only through the engine's public API.

Every load is timed from engine (and store client) construction to the
returned profile; a ``page-cold`` load also includes ``publish_records``.
The speed probe is sampled after each load (see :mod:`speed`).
Each workload offers a RIC load and a *conventional* load of the same
page (code cache on, no records), which the run loop pairs.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

from repro import Engine
from repro.server.client import RemoteRecordStore
from repro.workloads import WORKLOADS, polyshapes, typedarith

#: The paper's seven libraries (Table 3).
LIBRARIES = [
    "angularlike",
    "camanlike",
    "handlebarslike",
    "jquerylike",
    "jsfeatlike",
    "reactlike",
    "underscorelike",
]
HOT_SCRIPTS = [
    ("typedarith.jsl", typedarith.SOURCE),
    ("polyshapes.jsl", polyshapes.SOURCE),
]
#: Per-load counters that must repeat exactly for the same seed.
DETERMINISTIC_COUNTERS = ("ic_misses", "ric_preloads", "dispatches", "specialized_hits")

EXPECTED = json.loads(
    (Path(__file__).with_name("expected_output.json")).read_text()
)


class BenchError(RuntimeError):
    """A failed set-up, daemon lifecycle or workload self-check."""


@dataclass
class Load:
    """The outcome of one timed load."""

    wall_ms: float
    #: The speed samples taken just before and just after this load.
    interval: tuple[int, int]
    probe: SpeedProbe
    expected: list[str]
    profile: object = None
    error: str | None = None
    #: Stats of the store client this load opened (empty when it opened none).
    store_stats: dict = field(default_factory=dict)
    published: int | None = None
    #: The library a ``page-cold`` load compiled; quantiles are taken per
    #: group when loads have one.
    group: str | None = None
    #: The garbage collection counted in ``wall_ms`` (``hot-exec`` only).
    gc_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.profile is not None
            and list(self.profile.console_output) == self.expected
        )

    @property
    def scale(self) -> float:
        """Host-speed scale of this load (see :mod:`speed`)."""
        return self.probe.scale(*self.interval)

    @property
    def scaled_ms(self) -> float:
        return self.wall_ms * self.scale

    def deterministic_counters(self) -> tuple | None:
        if self.profile is None:
            return None
        c = self.profile.counters
        return tuple(getattr(c, name) for name in DETERMINISTIC_COUNTERS)


def timed(
    probe: SpeedProbe,
    expected: list[str],
    body,
    group: str | None = None,
    collect_timed: bool = False,
) -> Load:
    """Run ``body`` (returning ``(profile, store_stats, published)``) and
    time it; an exception is a failed load, not a crashed run.

    Garbage is collected before and after each load.  Left to the
    collector's thresholds, a full collection of an earlier load's
    garbage lands inside some later load (or speed sample), at a point
    set by the allocation history, which moved loads by 10% depending on
    their position in the run.  A page load stands for a fresh process,
    which carries no earlier garbage, so both collections are untimed.
    A long-running engine (``collect_timed``) does pay for collecting
    each run's garbage, so there the collection after the load counts in
    its wall time.
    """
    gc.collect()
    before = probe.latest()
    start = time.perf_counter()
    try:
        result = body()
    except Exception as exc:  # noqa: BLE001 - any raise is a failed load
        result = None
        error = f"{type(exc).__name__}: {exc}"
    body_end = time.perf_counter()
    gc.collect()
    end = time.perf_counter() if collect_timed else body_end
    wall_ms = (end - start) * 1000.0
    gc_ms = (end - body_end) * 1000.0
    interval = (before, probe.sample())
    if result is None:
        return Load(wall_ms, interval, probe, expected, error=error, group=group, gc_ms=gc_ms)
    profile, stats, published = result
    return Load(
        wall_ms, interval, probe, expected, profile, None, stats, published, group, gc_ms
    )


def expected_page(libraries) -> list[str]:
    return [line for name in libraries for line in EXPECTED[name]]


def page_scripts(libraries) -> list[tuple[str, str]]:
    return [(f"{name}.jsl", WORKLOADS[name].source) for name in libraries]


class Daemon:
    """One ``ric-serve`` process on a unix socket, owned by one set-up.

    It serves from memory, without ``--dir``: write-through persistence
    fsyncs every PUT, and on a shared disk that latency swings from run
    to run by more than the benchmark's bounds.
    """

    def __init__(self, workdir: str, src: Path):
        # Relative to the checkout root (the cwd of both processes), which
        # keeps the socket path short of the unix limit.
        self.socket = os.path.join(workdir, "ricd.sock")
        self.log_path = os.path.join(workdir, "ricd.log")
        self._src = src
        self.proc: subprocess.Popen | None = None

    def start(self, timeout_s: float = 30.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self._src)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.harness.serve_cli",
                    "--socket",
                    self.socket,
                ],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        probe = RemoteRecordStore(self.socket, retries=0, retry_after_s=0.0)
        deadline = time.monotonic() + timeout_s
        try:
            while not probe.ping():
                if self.proc.poll() is not None:
                    raise BenchError(f"ric-serve exited early: {self.log()}")
                if time.monotonic() > deadline:
                    raise BenchError("ric-serve did not answer PING in time")
                time.sleep(0.005)
        finally:
            probe.close()

    def log(self) -> str:
        try:
            return Path(self.log_path).read_text(errors="replace").strip()
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM, then require a clean drain and exit 0."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("ric-serve did not drain within 30 s") from None
        if code != 0 or "drained cleanly" not in self.log():
            raise BenchError(f"ric-serve exit {code}: {self.log()}")

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


class Workload:
    """Shared set-up and teardown: a fresh work directory (code cache,
    daemon socket and log) and a fresh daemon per set-up."""

    name = ""
    #: Inputs repeat their mix every ``period`` pairs.
    period = 1

    def __init__(self, seed: int, workroot: str, src: Path, probe: SpeedProbe):
        self.seed = seed
        self.probe = probe
        self._workroot = workroot
        self._src = src
        self.workdir: str | None = None
        self.daemon: Daemon | None = None

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed, *parts)))

    def setup(self) -> None:
        self.workdir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self._workroot)
        self.cache_dir = os.path.join(self.workdir, "code-cache")
        self.daemon = Daemon(self.workdir, self._src)
        self.daemon.start()
        self.warm_up()

    def warm_up(self) -> None:
        for load in (self.ric_load(-1), self.conventional_load(-1)):
            require(load.ok, f"{self.name} warm-up load failed: {describe(load)}")

    def teardown(self) -> None:
        try:
            if self.daemon is not None:
                self.daemon.stop()
        finally:
            self.daemon = None
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)
                self.workdir = None

    def abort(self) -> None:
        """Error-path teardown: kill without the drain check."""
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def ric_load(self, i: int, variant: str = "ric") -> Load:
        """RIC load of input ``i``.  Loads of one input with different
        ``variant`` names are the same page; on ``page-cold`` they are
        distinct never-seen versions of it."""
        raise NotImplementedError

    def conventional_load(self, i: int) -> Load:
        raise NotImplementedError

    def recheck_load(self, i: int, kind: str) -> Load:
        """Repeat load ``i`` for the determinism check."""
        return self.ric_load(i) if kind == "ric" else self.conventional_load(i)

    def check(self, load: Load, kind: str) -> list[str]:
        """Workload self-check problems for one successful load."""
        return []

    def finish(self) -> list[str]:
        """Self-check problems over the whole measured phase."""
        return []


class PageReuse(Workload):
    """A returning visitor: all seven libraries in a seeded order, fresh
    engine and store connection per load, code cache and ricd records
    warmed at set-up."""

    name = "page-reuse"

    def page(self, i: int) -> tuple[list[str], int]:
        rng = self.rng(i)
        return rng.sample(LIBRARIES, len(LIBRARIES)), rng.getrandbits(32)

    def warm_up(self) -> None:
        # The first visit: compiles into the disk code cache and publishes
        # one record per library into ricd.
        store = RemoteRecordStore(self.daemon.socket)
        try:
            engine = Engine(cache_dir=self.cache_dir, record_store=store, seed=self.seed)
            profile = engine.run(page_scripts(LIBRARIES), use_store=True)
            published = engine.publish_records()
        finally:
            store.close()
        require(
            list(profile.console_output) == expected_page(LIBRARIES),
            f"first visit printed {profile.console_output!r}",
        )
        require(published == len(LIBRARIES), f"first visit published {published}")
        super().warm_up()

    def ric_load(self, i: int, variant: str = "ric") -> Load:
        order, engine_seed = self.page(i)

        def body():
            store = RemoteRecordStore(self.daemon.socket)
            try:
                engine = Engine(
                    cache_dir=self.cache_dir, record_store=store, seed=engine_seed
                )
                profile = engine.run(page_scripts(order), use_store=True)
            finally:
                store.close()
            return profile, store.stats_snapshot(), None

        return timed(self.probe, expected_page(order), body)

    def conventional_load(self, i: int) -> Load:
        order, engine_seed = self.page(i)

        def body():
            engine = Engine(cache_dir=self.cache_dir, seed=engine_seed)
            return engine.run(page_scripts(order)), {}, None

        return timed(self.probe, expected_page(order), body)

    def check(self, load: Load, kind: str) -> list[str]:
        c = load.profile.counters
        problems = []
        if c.bytecode_cache_misses or not c.bytecode_cache_hits:
            problems.append(f"{kind} load missed the code cache")
        if kind == "ric":
            if load.store_stats.get("hits") != len(LIBRARIES):
                problems.append(f"ricd GET hits {load.store_stats}, want 7 of 7")
            if c.ric_preloads <= 0:
                problems.append("RIC load preloaded nothing")
        return problems


class PageCold(Workload):
    """The first visit after a deploy: one never-seen version of one
    library per load, fresh engine whose store misses, then a publish."""

    name = "page-cold"
    period = len(LIBRARIES)

    def version(self, i: int, kind: str) -> tuple[str, str, str, int]:
        """Library ``i`` of the rotation, with a seeded edit that changes
        the source hash but not the program.  RIC and conventional loads
        of a pair get distinct versions, so both compile.  Returns the
        library, filename, source and engine seed."""
        library = LIBRARIES[i % len(LIBRARIES)]
        rng = self.rng(kind, i)
        banner = f"// build {rng.getrandbits(64):016x}\n" + "\n" * rng.randrange(4)
        source = banner + WORKLOADS[library].source
        return library, f"{library}.jsl", source, self.rng(i).getrandbits(32)

    def ric_load(self, i: int, variant: str = "ric") -> Load:
        library, filename, source, engine_seed = self.version(i, variant)

        def body():
            store = RemoteRecordStore(self.daemon.socket)
            try:
                engine = Engine(
                    cache_dir=self.cache_dir, record_store=store, seed=engine_seed
                )
                profile = engine.run([(filename, source)], use_store=True)
                published = engine.publish_records()
            finally:
                store.close()
            return profile, store.stats_snapshot(), published

        return timed(self.probe, EXPECTED[library], body, library)

    def conventional_load(self, i: int) -> Load:
        library, filename, source, engine_seed = self.version(i, "conventional")

        def body():
            engine = Engine(cache_dir=self.cache_dir, seed=engine_seed)
            return engine.run([(filename, source)]), {}, None

        return timed(self.probe, EXPECTED[library], body, library)

    def recheck_load(self, i: int, kind: str) -> Load:
        # The measured RIC load published its record, so a repeat against
        # ricd would hit.  A store-less engine on a fresh code cache runs
        # the same cold path: no record, full compile.
        library, filename, source, engine_seed = self.version(i, kind)
        cache_dir = tempfile.mkdtemp(prefix="recheck-", dir=self.workdir)

        def body():
            engine = Engine(cache_dir=cache_dir, seed=engine_seed)
            return engine.run([(filename, source)]), {}, None

        return timed(self.probe, EXPECTED[library], body, library)

    def check(self, load: Load, kind: str) -> list[str]:
        c = load.profile.counters
        problems = []
        if c.bytecode_cache_hits or not c.bytecode_cache_misses:
            problems.append(f"{kind} load hit the code cache")
        if kind == "ric":
            stats = load.store_stats
            if stats.get("hits") or stats.get("misses") != 1:
                problems.append(f"ricd GET {stats}, want one miss")
            if load.published != 1 or stats.get("puts") != 1:
                problems.append(f"published {load.published}, puts {stats.get('puts')}")
        return problems


class HotExec(Workload):
    """Long-running execution: RIC runs of typedarith plus polyshapes in
    one warm engine, with an in-memory record and no store traffic."""

    name = "hot-exec"
    store: RemoteRecordStore | None = None

    def warm_up(self) -> None:
        self.store = RemoteRecordStore(self.daemon.socket)
        self.engine = Engine(
            cache_dir=self.cache_dir, record_store=self.store, seed=self.seed
        )
        profile = self.engine.run(HOT_SCRIPTS, use_store=True)
        require(
            list(profile.console_output) == self.expected(),
            f"initial run printed {profile.console_output!r}",
        )
        self.record = self.engine.extract_icrecord()
        super().warm_up()
        self._compiles = self.engine.code_cache.misses
        self._store_stats = self.store.stats_snapshot()

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        super().teardown()

    def expected(self) -> list[str]:
        return EXPECTED["typedarith"] + EXPECTED["polyshapes"]

    def run_seed(self, i: int) -> int:
        return self.rng(i).getrandbits(32)

    def ric_load(self, i: int, variant: str = "ric") -> Load:
        return timed(
            self.probe,
            self.expected(),
            lambda: (
                self.engine.run(HOT_SCRIPTS, icrecord=self.record, seed=self.run_seed(i)),
                {},
                None,
            ),
            collect_timed=True,
        )

    def conventional_load(self, i: int) -> Load:
        return timed(
            self.probe,
            self.expected(),
            lambda: (self.engine.run(HOT_SCRIPTS, seed=self.run_seed(i)), {}, None),
            collect_timed=True,
        )

    def check(self, load: Load, kind: str) -> list[str]:
        c = load.profile.counters
        problems = []
        if c.bytecode_cache_misses:
            problems.append(f"{kind} run compiled")
        if kind == "ric" and c.ric_preloads <= 0:
            problems.append("RIC run preloaded nothing")
        return problems

    def finish(self) -> list[str]:
        problems = []
        if self.engine.code_cache.misses != self._compiles:
            problems.append("the warm engine compiled after warm-up")
        if self.store.stats_snapshot() != self._store_stats:
            problems.append("store traffic after warm-up")
        return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (PageReuse, PageCold, HotExec)}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


def describe(load: Load) -> str:
    if load.error is not None:
        return load.error
    if load.profile is None:
        return "no profile"
    return f"printed {list(load.profile.console_output)!r}, expected {load.expected!r}"
