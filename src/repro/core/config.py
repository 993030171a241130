"""Configuration switches for RIC, including the ablation knobs."""

from __future__ import annotations

import os
from dataclasses import dataclass


def _specialize_default() -> bool:
    """Default for ``RICConfig.specialize``: on, unless the environment
    forces it off.  ``RIC_SPECIALIZE=0`` lets CI run whole suites (the
    differential wall in particular) with quickening disabled without
    threading a config through every fixture."""
    return os.environ.get("RIC_SPECIALIZE", "1") != "0"


@dataclass(frozen=True)
class RICConfig:
    """Controls how RIC behaves; defaults reproduce the paper's setup.

    The non-default combinations implement the ablations indexed in
    DESIGN.md §6:

    * ``enable_linking=False`` — no Triggering→Dependent linking; the
      ICRecord is effectively ignored during the Reuse run (Conventional).
    * ``enable_handler_reuse=False`` — linking still preloads slots, but
      each preload pays the handler-generation cost again instead of reusing
      the saved handler (isolates idea 1 of the paper's Table 2).
    * ``validate=False`` — the *naive* persistence scheme: hidden classes
      are matched by creation order with no address validation.  Unsound
      under divergence; exists to demonstrate why validation is necessary.
    * ``include_global_ics=True`` — lifts the paper's §6 exclusion of
      global-object ICs (order-sensitive; breaks cross-website reuse).

    Robustness knob (not an ablation — it controls how the engine treats
    persisted records that fail integrity/structural validation):

    * ``strict_validation=True`` — a corrupt or structurally invalid
      record raises :class:`~repro.ric.errors.RecordFormatError` at
      ``Engine.run`` instead of silently degrading that record to
      cold-start.  Default False: degrade, count, keep running.

    Interpreter knob:

    * ``specialize=False`` — disable the bytecode quickening pass
      (repro/specialize/): persisted ``site_feedback`` is still recorded
      and extracted, but never spent rewriting opcodes, so every run
      executes the generic instruction stream.  Specialized and generic
      runs must be observationally identical (the differential wall
      enforces it); the knob is the ``ric-run --no-specialize`` flag and
      the CI forced-off sweep (``RIC_SPECIALIZE=0``).

    Remote record-store knobs (the cross-process sharing daemon,
    :mod:`repro.server`):

    * ``remote_socket`` — endpoint spec(s) of the ``ricd`` daemon(s)
      (``ric-serve``): a unix-socket path, a ``HOST:PORT`` /
      ``tcp://HOST:PORT`` TCP spec, or *several* endpoints (a tuple, or
      one comma-separated string) for a sharded fleet.  When set, an
      :class:`Engine` without an explicit ``record_store`` builds a
      consistent-hash :class:`~repro.server.client.RemoteRecordStore`
      over them with a local in-memory fallback; ``None`` (default)
      keeps the store local.
    * ``remote_replication`` — replica count R: every record is PUT to
      its R ring owners and a GET fails over down that preference list.
      Clamped to the fleet size, so a single endpoint has R=1.
    * ``remote_timeout_s`` — per-request socket timeout.  Deliberately
      small: a slow daemon must cost milliseconds, not stall a run.
    * ``remote_retry_s`` — circuit-breaker hold-off after a transport
      failure; until it elapses every request goes straight to the
      local fallback.
    * ``remote_retries`` — transient transport failures absorbed per
      request (with jittered backoff) before the failure surfaces and
      the circuit breaker opens.
    * ``remote_backoff_s`` — base of the jittered exponential backoff
      between those retries.
    * ``remote_deadline_s`` — overall per-request deadline across all
      retry attempts; the retry budget never extends a request past it.

    Execution-governance knobs (defaults for runs on this engine; an
    explicit ``budget=`` passed to ``Engine.run`` wins.  ``None``
    disables a dimension — the all-``None`` default is ungoverned and
    pays zero dispatch-loop overhead):

    * ``max_steps`` — dispatch-step ceiling per run.
    * ``max_heap_bytes`` / ``max_heap_objects`` — simulated-heap
      ceilings per run.
    * ``max_frame_depth`` — guest call-depth ceiling per run.
    * ``deadline_ms`` — wall-clock allowance per run.
    * ``budget_check_stride`` — dispatches between governance checks
      (amortization stride; see ``repro.core.budget``).
    """

    enable_linking: bool = True
    enable_handler_reuse: bool = True
    validate: bool = True
    include_global_ics: bool = False
    strict_validation: bool = False
    specialize: bool = _specialize_default()
    remote_socket: "str | tuple | None" = None
    remote_replication: int = 2
    remote_timeout_s: float = 0.5
    remote_retry_s: float = 1.0
    remote_retries: int = 1
    remote_backoff_s: float = 0.05
    remote_deadline_s: float = 2.0
    max_steps: int | None = None
    max_heap_bytes: int | None = None
    max_heap_objects: int | None = None
    max_frame_depth: int | None = None
    deadline_ms: float | None = None
    budget_check_stride: int | None = None

    def execution_budget(self):
        """The :class:`~repro.core.budget.ExecutionBudget` these knobs
        describe, or ``None`` when every dimension is unlimited (so the
        VM has no meter and its governance check never runs)."""
        if (
            self.max_steps is None
            and self.max_heap_bytes is None
            and self.max_heap_objects is None
            and self.max_frame_depth is None
            and self.deadline_ms is None
        ):
            return None
        from repro.core.budget import DEFAULT_CHECK_STRIDE, ExecutionBudget

        return ExecutionBudget(
            max_steps=self.max_steps,
            max_heap_bytes=self.max_heap_bytes,
            max_heap_objects=self.max_heap_objects,
            max_frame_depth=self.max_frame_depth,
            deadline_ms=self.deadline_ms,
            check_stride=self.budget_check_stride or DEFAULT_CHECK_STRIDE,
        )
