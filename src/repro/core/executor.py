"""The executor layer: many isolated sessions over one artifact cache.

The ROADMAP's north star is heavy traffic from many users reusing one
warmed artifact.  :class:`EngineExecutor` is that shape in miniature: a
thread pool of fully isolated :class:`~repro.core.session.RunSession`
instances that share exactly three things, all thread-safe by contract
(INTERNALS §11) —

* the engine's :class:`~repro.core.artifacts.ArtifactCache` (immutable
  compiled scripts, single-flight compiles: N concurrent cold starts of
  one source cost one compile);
* the :class:`~repro.bytecode.cache.CodeCache` beneath it (locked);
* the engine's record store, when requests ask for one: each such
  request fetches its records with ``records_for``, as ``Engine.run``
  does (:class:`~repro.server.client.RemoteRecordStore` GETs are
  single-flighted per script and its circuit breaker is shared, so
  concurrent requests share one GET per script and a dead daemon costs
  the *fleet* one timeout, not one per session).

Everything else — heap, hidden classes, feedback vectors, counters,
reuse sessions, quickened code, budgets — is per-session, so a
session's results are bit-identical to the same request run solo, and
to ``Engine.run`` with the same seed and records (the concurrency
stress suite enforces this differentially).

Failure isolation: one session's guest error, abort, or even compile
failure is captured in its :class:`RunOutcome`; the other sessions run
to completion regardless.

Determinism: requests without an explicit seed draw from the engine's
seed stream *at submission time, in request order* — so a seeded engine
produces the same per-request seeds whatever the pool's interleaving.

Per-run ``ric_remote_*`` counters are a sequential-only feature (they
fold global store-stat deltas); the executor leaves them at zero, and
aggregate remote traffic stays available via ``record_store.status()``.
"""

from __future__ import annotations

import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.budget import CancelToken, ExecutionBudget
from repro.core.errors import ExecutionAborted
from repro.core.session import RunSession
from repro.lang.errors import JSLError
from repro.stats.profile import RunProfile

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Engine

#: A workload: list of (filename, source) scripts executed in order.
Scripts = typing.Sequence[typing.Tuple[str, str]]


@dataclass
class RunRequest:
    """One unit of work for :meth:`EngineExecutor.run_many`."""

    scripts: "Scripts | str"
    name: str = "workload"
    icrecord: object = None
    #: Explicit sub-seed; None draws from the engine's seed stream at
    #: submission time (deterministic for a seeded engine).
    seed: "int | None" = None
    #: Fetch this workload's records from the engine's record store
    #: (one ``records_for`` per request, when ``icrecord`` is None);
    #: the session admits and quickens them like explicit records.
    use_store: bool = False
    budget: "ExecutionBudget | None" = None
    cancel_token: "CancelToken | None" = None

    def normalized_scripts(self) -> "list[tuple[str, str]]":
        if isinstance(self.scripts, str):
            return [("<script>", self.scripts)]
        return [(filename, source) for filename, source in self.scripts]


@dataclass
class RunOutcome:
    """What one request produced: a profile, or a captured failure."""

    request: RunRequest
    profile: "RunProfile | None" = None
    error: "BaseException | None" = None
    session: "RunSession | None" = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None and self.profile is not None


class EngineExecutor:
    """Runs many isolated sessions concurrently over one engine's
    shared artifact cache and record store."""

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def run_many(
        self,
        requests: "typing.Sequence[RunRequest]",
        jobs: int = 1,
    ) -> "list[RunOutcome]":
        """Execute every request, ``jobs`` at a time; outcomes come back
        in request order.  ``jobs=1`` degenerates to a sequential loop
        through the same code path (the benchmark baseline)."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        engine = self.engine
        # Draw missing seeds now, in request order, so the pool's
        # interleaving cannot perturb a seeded engine's determinism.
        seeds = [
            request.seed if request.seed is not None else engine.draw_seed()
            for request in requests
        ]
        if jobs == 1:
            return [
                self._run_one(request, seed)
                for request, seed in zip(requests, seeds)
            ]
        with ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="ric-session"
        ) as pool:
            futures = [
                pool.submit(self._run_one, request, seed)
                for request, seed in zip(requests, seeds)
            ]
            return [future.result() for future in futures]

    def _run_one(self, request: RunRequest, seed: int) -> RunOutcome:
        engine = self.engine
        session: "RunSession | None" = None
        try:
            scripts = request.normalized_scripts()
            icrecord = request.icrecord
            if (
                request.use_store
                and icrecord is None
                and engine.record_store is not None
            ):
                icrecord = engine.record_store.records_for(scripts) or None
            artifacts = engine.artifacts.get_many(scripts)
            session = RunSession(
                artifacts,
                config=engine.config,
                seed=seed,
                name=request.name,
                icrecord=icrecord,
                budget=request.budget,
                cancel_token=request.cancel_token,
            )
            profile = session.execute()
            return RunOutcome(request=request, profile=profile, session=session)
        except ExecutionAborted as aborted:
            return RunOutcome(
                request=request,
                profile=aborted.profile,
                error=aborted,
                session=session,
            )
        except JSLError as error:
            return RunOutcome(request=request, error=error, session=session)
