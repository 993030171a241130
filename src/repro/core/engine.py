"""The Engine: the library's main entry point, as a thin facade.

An :class:`Engine` wires together the three execution layers:

* **Artifact layer** (:mod:`repro.core.artifacts`) — immutable, shared:
  the code cache and the :class:`~repro.core.artifacts.ArtifactCache`
  of compiled-script artifacts, single-flight built.
* **Session layer** (:mod:`repro.core.session`) — per-run, mutable: a
  :class:`~repro.core.session.RunSession` owns the heap, context, IC
  vectors, counters and budget of one execution.
* **Executor layer** (:mod:`repro.core.executor`) — many sessions at
  once over the shared artifact cache.

The legacy API is preserved byte-for-byte in behaviour and counters:
the paper's three measured configurations still map to

* **Initial run** — ``engine.run(scripts)`` on a cold engine (compiles
  and fills the code cache, builds IC state from scratch).
* **Conventional Reuse run** — ``engine.run(scripts)`` again: bytecode
  comes from the code cache but IC state is rebuilt from scratch.
* **RIC Reuse run** — ``engine.run(scripts, icrecord=record)`` with the
  record from ``engine.extract_icrecord()``: IC state is partially
  preloaded.

Example::

    engine = Engine()
    initial = engine.run(scripts, name="react-like")
    record = engine.extract_icrecord()
    conventional = engine.run(scripts, name="react-like")
    ric = engine.run(scripts, name="react-like", icrecord=record)
    assert ric.ic_miss_rate < conventional.ic_miss_rate

The state of the most recent run is exposed as :attr:`last_run` — a
:class:`~repro.core.session.RunSession` handle.
"""

from __future__ import annotations

import random
import threading
import typing

from repro.bytecode.cache import CodeCache
from repro.bytecode.code import CodeObject
from repro.core.artifacts import ArtifactBuilder, ArtifactCache
from repro.core.budget import CancelToken, ExecutionBudget
from repro.core.config import RICConfig
from repro.core.session import RunSession
from repro.ric.errors import CorruptRecord
from repro.ric.icrecord import ICRecord
from repro.stats.counters import Counters
from repro.stats.profile import RunProfile

#: A workload: list of (filename, source) scripts executed in order.
Scripts = typing.Sequence[typing.Tuple[str, str]]


class Engine:
    """Drives executions of jsl workloads with optional RIC reuse.

    ``config`` selects the run configuration (RIC's ablations and
    quickening); ``record_store`` is the store ``use_store`` runs fetch
    from and :meth:`publish_records` writes to.
    """

    def __init__(
        self,
        config: RICConfig | None = None,
        cache_dir: str | None = None,
        seed: int | None = None,
        optimize: bool = True,
        record_store=None,
    ):
        self.config = config or RICConfig()
        self.optimize = optimize
        self.code_cache = CodeCache(cache_dir=cache_dir)
        #: Any RecordStoreProtocol (a local ``RecordStore``, or the
        #: ``RemoteRecordStore`` that ``make_record_store`` builds), or
        #: None: records are then passed explicitly via ``icrecord=``.
        self.record_store = record_store
        #: The shared artifact cache every run (facade or executor) of
        #: this engine draws from.
        self.artifacts = ArtifactCache(ArtifactBuilder(self.code_cache, optimize))
        # Every execution gets a distinct sub-seed, so heap addresses differ
        # across runs even when the engine itself is seeded (which is the
        # whole premise of the paper).  Seeding the engine makes the
        # *sequence* of runs reproducible.  The draw is locked so
        # concurrent submitters see a deterministic sequence too.
        self._seed_stream = random.Random(seed)
        self._seed_lock = threading.Lock()
        #: The most recent run's session, kept for extraction.
        self._last_run: RunSession | None = None

    # -- seeds --------------------------------------------------------------

    def draw_seed(self) -> int:
        """Next sub-seed from the engine's deterministic seed stream."""
        with self._seed_lock:
            return self._seed_stream.getrandbits(48)

    # -- compilation --------------------------------------------------------

    def compile(self, filename: str, source: str) -> CodeObject:
        """Compile through the code cache (hit = frontend skipped); the
        peephole optimizer runs before the bytecode is cached."""
        code, _ = self.artifacts.builder.compile(filename, source)
        return code

    # -- execution ----------------------------------------------------------

    def run(
        self,
        scripts: Scripts | str,
        name: str = "workload",
        icrecord: (
            "ICRecord | CorruptRecord | "
            "typing.Sequence[ICRecord | CorruptRecord] | None"
        ) = None,
        seed: int | None = None,
        time_source: typing.Callable[[], float] | None = None,
        tracer=None,
        use_store: bool = False,
        budget: ExecutionBudget | None = None,
        cancel_token: CancelToken | None = None,
    ) -> RunProfile:
        """Execute a workload in a fresh session and measure it.

        ``scripts`` is either a single source string or a sequence of
        ``(filename, source)`` pairs executed in order (a "website").
        Passing ``icrecord`` makes this a RIC Reuse run.  Candidates may
        include :class:`~repro.ric.errors.CorruptRecord` placeholders
        (from :func:`~repro.ric.serialize.try_load_icrecord`); those and
        records failing :func:`~repro.ric.validate.validate_record`
        degrade to cold-start for that record only, counted in
        ``counters.ric_records_corrupt`` / ``ric_records_rejected``; a
        caller for whom a bad record is fatal checks
        ``counters.ric_records_degraded``.

        ``use_store=True`` (with no explicit ``icrecord``) fetches this
        workload's per-script records from :attr:`record_store`; a
        daemon-backed store's hit/miss/fallback traffic for the fetch
        lands in the run's ``ric_remote_*`` counters.

        ``budget`` and ``cancel_token`` make this a *governed* run
        (without either, it is ungoverned): a runaway program is
        stopped with a typed
        :class:`~repro.core.errors.ExecutionAborted` subclass instead of
        hanging the engine.  The abort is clean — heap and IC state stay
        consistent, the run's ``budget_aborts_*`` counter is set, the
        partial :class:`RunProfile` rides on the exception as
        ``error.profile``, and the completed-warmup portion of the run
        remains extractable via :meth:`extract_icrecord` /
        :meth:`extract_per_script_records`.  The engine itself stays
        fully usable for subsequent runs.
        """
        if isinstance(scripts, str):
            scripts = [("<script>", scripts)]
        run_seed = seed if seed is not None else self.draw_seed()

        counters = Counters()
        if use_store and icrecord is None and self.record_store is not None:
            fetched = self._store_roundtrip(
                counters, lambda: self.record_store.records_for(scripts)
            )
            icrecord = fetched or None

        # Compile errors surface here, before any session state changes
        # (so last_run still points at the previous, completed run).
        artifacts = self.artifacts.get_many(scripts)

        session = RunSession(
            artifacts,
            config=self.config,
            seed=run_seed,
            name=name,
            icrecord=icrecord,
            counters=counters,
            tracer=tracer,
            time_source=time_source,
            budget=budget,
            cancel_token=cancel_token,
        )
        # Extraction state points at this run from here on, even if the
        # run aborts: the IC information built during completed warmup
        # is valid, so an interrupted Initial run still yields a usable
        # partial record.
        self._last_run = session
        return session.execute()

    # -- the last-run handle ------------------------------------------------

    @property
    def last_run(self) -> "RunSession | None":
        """Session handle of the most recent (possibly aborted) run."""
        return self._last_run

    # -- record store traffic -----------------------------------------------

    def _store_roundtrip(self, counters: Counters, operation):
        """Run one store operation, folding a remote store's stat deltas
        into this run's ``ric_remote_*`` counters.  Local stores have no
        ``stats_snapshot`` and contribute nothing.

        The fold reads global store stats, so it is only exact while one
        run is in flight; the concurrent executor skips it (aggregate
        remote traffic stays available via ``record_store.status()``).
        """
        snapshot = getattr(self.record_store, "stats_snapshot", None)
        before = snapshot() if snapshot is not None else None
        result = operation()
        if before is not None:
            after = snapshot()
            fold = {
                "hits": "ric_remote_hits",
                "misses": "ric_remote_misses",
                "fallbacks": "ric_remote_fallbacks",
                "evictions": "ric_remote_evictions",
                "failovers": "ric_remote_failovers",
                "proto_mismatch": "ric_remote_proto_mismatch",
                "stale_epoch": "ric_remote_stale_epoch",
            }
            for stat, counter in fold.items():
                delta = after[stat] - before[stat]
                setattr(counters, counter, getattr(counters, counter) + delta)
        return result

    def publish_records(self, counters: Counters | None = None) -> int:
        """Extract the last run's per-script records and put them into
        :attr:`record_store` (local or remote), returning how many were
        published.  With a ``counters``, remote traffic is folded in."""
        if self.record_store is None:
            raise RuntimeError("engine has no record_store to publish into")
        session = self._require_last_run()
        if counters is None:
            counters = Counters()  # throwaway sink; remote stats still tally
        return self._store_roundtrip(
            counters, lambda: session.publish_records(self.record_store)
        )

    # -- extraction ---------------------------------------------------------

    def _require_last_run(self) -> RunSession:
        if self._last_run is None:
            raise RuntimeError("no completed run to extract from; call run() first")
        return self._last_run

    def extract_icrecord(self) -> ICRecord:
        """Run the RIC extraction phase over the most recent execution."""
        return self._require_last_run().extract_icrecord()

    def extract_per_script_records(self) -> dict:
        """Per-file ICRecords from the most recent execution (paper §9:
        RIC information is maintained per JavaScript file and shareable
        across applications).  See :mod:`repro.ric.store`."""
        return self._require_last_run().extract_per_script_records()

    # -- the paper's full measurement protocol ------------------------------

    def measure_workload(
        self, scripts: Scripts | str, name: str = "workload"
    ) -> "WorkloadMeasurement":
        """Run the full Initial → extract → Conventional/RIC protocol."""
        initial = self.run(scripts, name=name)
        record = self.extract_icrecord()
        conventional = self.run(scripts, name=name)
        conventional.mode = "reuse-conventional"
        ric = self.run(scripts, name=name, icrecord=record)
        return WorkloadMeasurement(
            name=name,
            initial=initial,
            conventional=conventional,
            ric=ric,
            record=record,
        )


class WorkloadMeasurement:
    """The three measured runs plus the extracted record for one workload."""

    def __init__(
        self,
        name: str,
        initial: RunProfile,
        conventional: RunProfile,
        ric: RunProfile,
        record: ICRecord,
    ):
        self.name = name
        self.initial = initial
        self.conventional = conventional
        self.ric = ric
        self.record = record

    @property
    def instruction_reduction(self) -> float:
        """Fractional instruction saving of RIC vs Conventional (Figure 8)."""
        base = self.conventional.total_instructions
        if base == 0:
            return 0.0
        return 1.0 - self.ric.total_instructions / base

    @property
    def normalized_instructions(self) -> float:
        base = self.conventional.total_instructions
        if base == 0:
            return 1.0
        return self.ric.total_instructions / base

    @property
    def miss_rate_reduction_pp(self) -> float:
        """Miss-rate drop in percentage points (Table 4 cols 2-3)."""
        return 100.0 * (
            self.initial.ic_miss_rate - self.ric.ic_miss_rate
        )
