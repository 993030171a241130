"""The session layer: all per-run mutable state, behind one object.

A :class:`RunSession` is one execution of one workload.  It owns
everything that must be private to a run — the
:class:`~repro.runtime.context.Runtime` (heap, hidden classes, global
object), the :class:`~repro.ic.icvector.FeedbackState` (IC vectors),
the :class:`~repro.stats.counters.Counters`, the reuse session, the
quickened code, and the budget — and consumes shared, immutable
:class:`~repro.core.artifacts.ScriptArtifact` instances for everything
run-invariant.  Because a session touches no engine-global mutable
state during :meth:`execute` (the code cache is consulted when
artifacts are built, the record store before the session exists), any
number of sessions over the same artifacts can run concurrently.

Construction is the pre-flight: runtime creation, record admission,
quickening, feedback registration, heap charges for bytecode and
reuse-session wiring.  It is the one place a record is admitted and
code is quickened, whether the records came as ``icrecord=`` or from
the record store: a trusted record's ``site_feedback`` and single-slot
field sites rewrite a clone of the artifact's generic tree that belongs
to this session alone, so the VM's deopt patches only that clone.
:meth:`execute` is the measured run (builtins, VM, profile).  Extraction
(:meth:`extract_icrecord`, :meth:`extract_per_script_records`) and
:meth:`publish_records` read the session, so callers never reach into
engine privates — the session *is* the "last run" handle the engine
hands out.
"""

from __future__ import annotations

import time
import typing

from repro.core.budget import CancelToken, ExecutionBudget
from repro.core.config import RICConfig
from repro.core.errors import ExecutionAborted
from repro.ic.icvector import FeedbackState
from repro.ic.miss import ICRuntime
from repro.interpreter.vm import VM
from repro.ric.errors import CorruptRecord
from repro.ric.extraction import extract_icrecord, extract_per_script_records
from repro.ric.icrecord import ICRecord
from repro.ric.reuse import ReuseSession
from repro.ric.validate import validate_record
from repro.runtime.builtins import install_builtins
from repro.runtime.context import Runtime
from repro.specialize.quicken import count_specialized_sites, quicken_code
from repro.stats.counters import Counters
from repro.stats.profile import RunProfile

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.artifacts import ScriptArtifact


def admit_record(
    candidate: "ICRecord | CorruptRecord",
    counters: Counters,
) -> "ICRecord | None":
    """Gate one candidate record before a ReuseSession may be built.

    Returns the record if trustworthy, else None after counting the
    degradation in ``ric_records_corrupt`` or ``ric_records_rejected``.
    A bad record is never fatal here; a caller for whom it is reads
    ``counters.ric_records_degraded``.
    """
    if isinstance(candidate, CorruptRecord):
        counters.ric_records_corrupt += 1
        return None
    if not isinstance(candidate, ICRecord):
        raise TypeError(
            "icrecord entries must be ICRecord or CorruptRecord, "
            f"got {type(candidate).__name__}"
        )
    if validate_record(candidate):
        counters.ric_records_rejected += 1
        return None
    return candidate


class RunSession:
    """One run's mutable world, built over shared immutable artifacts.

    ``artifacts`` is a sequence of ``(artifact, frontend_skipped)``
    pairs as returned by
    :meth:`~repro.core.artifacts.ArtifactCache.get_or_build`; the flags
    become this run's ``bytecode_cache_hits``/``misses`` counters (a
    per-session tally — global cache deltas are meaningless once runs
    overlap).
    """

    def __init__(
        self,
        artifacts: "typing.Sequence[tuple[ScriptArtifact, bool]]",
        config: RICConfig,
        seed: int,
        name: str = "workload",
        icrecord: (
            "ICRecord | CorruptRecord | "
            "typing.Sequence[ICRecord | CorruptRecord] | None"
        ) = None,
        counters: Counters | None = None,
        tracer=None,
        time_source: typing.Callable[[], float] | None = None,
        budget: ExecutionBudget | None = None,
        cancel_token: CancelToken | None = None,
    ):
        self.config = config
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.time_source = time_source
        self.budget = budget
        self.cancel_token = cancel_token
        self.counters = counters if counters is not None else Counters()
        self.artifacts = [artifact for artifact, _ in artifacts]
        self.scripts = [(a.filename, a.source) for a in self.artifacts]
        #: Per-session frontend-skip accounting (the cache-hit flags of
        #: this run's artifacts, in script order).
        self.code_cache_hits = sum(1 for _, hit in artifacts if hit)
        self.code_cache_misses = sum(1 for _, hit in artifacts if not hit)
        self.profile: RunProfile | None = None
        self._executed = False

        counters_ = self.counters
        self.runtime = Runtime(seed=seed)
        self.feedback = FeedbackState()

        self._reuse_session: ReuseSession | None = None

        def on_hidden_class_created(hc) -> None:
            counters_.hidden_classes_created += 1
            if tracer is not None:
                from repro.stats.tracing import HC_CREATED

                tracer.emit(
                    HC_CREATED, site_key=hc.creation_key, hc_index=hc.index
                )
            if self._reuse_session is not None:
                self._reuse_session.on_hidden_class_created(hc)

        self.runtime.hidden_classes.on_created = on_hidden_class_created

        self.mode = "reuse-ric" if icrecord is not None else "initial"

        # Candidate records are admitted (structurally validated) first:
        # both the quickening pass and the reuse preloader below may only
        # consume trusted records.  A corrupt or invalid record degrades
        # to cold-start for that record only.
        admitted: list[ICRecord] = []
        if icrecord is not None:
            if isinstance(icrecord, (ICRecord, CorruptRecord)):
                candidates = [icrecord]
            else:
                candidates = list(icrecord)
            admitted = [
                record
                for candidate in candidates
                if (record := admit_record(candidate, counters_))
                is not None
            ]

        # Pick each script's executable tree: when specialization is on
        # and trusted records cover this script, quicken a clone private
        # to this session.  The artifact's generic tree is never
        # touched; deopt patches the clone back, one site at a time.
        self.script_keys: list[str] = [a.key for a in self.artifacts]
        self.exec_codes = []
        for artifact in self.artifacts:
            code = artifact.code
            if config.specialize and admitted:
                trusted_records = [
                    record
                    for record in admitted
                    if artifact.key in record.script_keys
                ]
                if trusted_records:
                    code, _ = quicken_code(code, trusted_records)
            self.exec_codes.append(code)

        # Register every script's feedback vectors *before* builtins are
        # created: builtin validation may preload sites anywhere in the
        # workload.  The bytecode heap charge is the artifact's
        # (quickening is 1:1, so a clone books the same bytes).
        for artifact, code in zip(self.artifacts, self.exec_codes):
            self.feedback.register_script(code)
            self.runtime.heap.charge("bytecode", artifact.bytecode_heap_bytes)
        counters_.specialized_sites = sum(
            count_specialized_sites(code) for code in self.exec_codes
        )

        # The reuse session consumes the admitted records, one whole-run
        # record or per-file ones (see repro.ric.store), now that this
        # run's script keys are known: a record's file-bound state only
        # applies to files whose content matches what it was extracted
        # from.
        if admitted:
            self._reuse_session = ReuseSession(
                admitted,
                self.feedback,
                counters_,
                config,
                tracer=tracer,
                trusted_script_keys=set(self.script_keys),
            )

    # -- execution ----------------------------------------------------------

    def execute(self) -> RunProfile:
        """Run the workload once; a session is single-use.

        On a budget/cancellation abort the partial profile rides on the
        exception as ``error.profile`` and the session stays extractable
        (abort points are dispatch boundaries — heap, hidden classes and
        feedback vectors are never left mid-transition).
        """
        if self._executed:
            raise RuntimeError(
                "RunSession.execute() called twice; sessions are single-use"
            )
        self._executed = True
        counters = self.counters
        runtime = self.runtime

        start = time.perf_counter()
        install_builtins(runtime)
        ic_runtime = ICRuntime(
            runtime, counters, self._reuse_session, tracer=self.tracer
        )
        vm = VM(
            runtime,
            counters,
            ic_runtime,
            self.feedback,
            time_source=self.time_source,
            budget=self.budget,
            cancel_token=self.cancel_token,
        )
        try:
            for code in self.exec_codes:
                # Uncaught guest exceptions surface from run_code as
                # JSLRuntimeError with a guest stack trace attached.
                vm.run_code(code)
        except ExecutionAborted as aborted:
            counters.record_abort(aborted.reason)
            counters.bytecode_cache_hits = self.code_cache_hits
            counters.bytecode_cache_misses = self.code_cache_misses
            aborted.profile = RunProfile(
                name=self.name,
                mode=self.mode + "-aborted",
                counters=counters,
                wall_time_ms=(time.perf_counter() - start) * 1000.0,
                heap_bytes=runtime.heap.bytes_allocated,
                console_output=list(runtime.console_output),
                scripts=self.script_keys,
                code_cache_hits=self.code_cache_hits,
                code_cache_misses=self.code_cache_misses,
            )
            self.profile = aborted.profile
            raise
        wall_time_ms = (time.perf_counter() - start) * 1000.0

        counters.bytecode_cache_hits = self.code_cache_hits
        counters.bytecode_cache_misses = self.code_cache_misses

        self.profile = RunProfile(
            name=self.name,
            mode=self.mode,
            counters=counters,
            wall_time_ms=wall_time_ms,
            heap_bytes=runtime.heap.bytes_allocated,
            console_output=list(runtime.console_output),
            scripts=self.script_keys,
            code_cache_hits=self.code_cache_hits,
            code_cache_misses=self.code_cache_misses,
        )
        return self.profile

    # -- extraction ---------------------------------------------------------

    def extract_icrecord(self) -> ICRecord:
        """Run the RIC extraction phase over this session's state."""
        return extract_icrecord(
            self.runtime,
            self.feedback,
            config=self.config,
            script_keys=self.script_keys,
        )

    def extract_per_script_records(self) -> dict:
        """Per-file ICRecords from this session (paper §9)."""
        records = extract_per_script_records(
            self.runtime, self.feedback, config=self.config
        )
        # Stamp each record with its script's content identity so reuse
        # can refuse records whose source has changed.
        hash_by_filename = {
            key.split(":", 1)[0]: key for key in self.script_keys
        }
        for filename, record in records.items():
            if filename in hash_by_filename:
                record.script_keys = [hash_by_filename[filename]]
        return records

    def publish_records(self, store) -> int:
        """Extract this session's per-script records and put each into
        ``store`` (any :class:`~repro.ric.store.RecordStoreProtocol`)
        under the source it ran; returns how many were published."""
        records = self.extract_per_script_records()
        source_by_filename = dict(self.scripts)
        published = 0
        for filename, record in records.items():
            source = source_by_filename.get(filename)
            if source is not None:
                store.put(filename, source, record)
                published += 1
        return published
