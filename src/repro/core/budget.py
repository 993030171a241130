"""Execution budgets and cooperative cancellation for the VM.

A production engine serving many users cannot let one runaway or
adversarial program (infinite loop, allocation bomb, unbounded
recursion) pin an :class:`~repro.core.engine.Engine` forever.  This
module supplies the governance half of that contract:

* :class:`ExecutionBudget` — an immutable per-run resource envelope:
  max dispatch steps, max simulated-heap bytes/objects (read from the
  run's :class:`~repro.runtime.heap.Heap` accounting), max guest frame
  depth, and a wall-clock deadline.
* :class:`CancelToken` — thread-safe cooperative cancellation: any
  thread may call :meth:`CancelToken.cancel`; the VM notices at its
  next governance check and aborts with
  :class:`~repro.core.errors.Cancelled`.
* :class:`BudgetMeter` — the per-run mutable enforcement state the VM
  consults.  The dispatch loop checks it on an **amortized stride**
  (every ``check_stride`` dispatched bytecodes, see
  ``VM._execute``), so the hot path pays one integer compare
  per dispatch and the full check (clock read, heap read, token read)
  only every N dispatches.  Frame depth is checked eagerly at call
  setup, where a comparison already exists.

Enforcement is therefore amortized: a program may overrun ``max_steps``
or its deadline by up to one stride of dispatches before the abort
lands.  Counter accounting stays exact — governed and ungoverned runs
of the same program charge identical instruction counts (the
differential suite asserts this).
"""

from __future__ import annotations

import threading
import time
import typing
from dataclasses import dataclass

from repro.core.errors import (
    Cancelled,
    DeadlineExceeded,
    HeapBudgetExceeded,
    StepBudgetExceeded,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.heap import Heap

#: Default governance-check stride (dispatches between full checks).
#: Chosen by ``benchmarks/bench_budget.py``: large enough that the
#: amortized check cost disappears (< 3% dispatch-loop overhead on the
#: BENCH_interp workloads), small enough that a deadline overrun is
#: bounded by a few thousand bytecodes (well under a millisecond).
DEFAULT_CHECK_STRIDE = 2048


class CancelToken:
    """A latch another thread (or a signal handler) can set to stop a run.

    Cooperative: the VM polls it at governance checks, so cancellation
    latency is bounded by the check stride, not instantaneous.  Tokens
    are single-shot but reusable across runs until cancelled.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        return self._reason

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise Cancelled(self._reason or "cancelled")


@dataclass(frozen=True)
class ExecutionBudget:
    """Immutable resource envelope for one (or many) governed runs.

    ``None`` disables a dimension.  A budget with every dimension
    ``None`` is legal and only buys cancellation polling.

    * ``max_steps`` — dispatch-step ceiling (bytecodes executed).
    * ``max_heap_bytes`` — ceiling on ``Heap.bytes_allocated`` (which
      starts at the baseline isolate footprint, ~1.4 MB — budgets below
      that abort immediately by design).
    * ``max_heap_objects`` — ceiling on ``Heap.allocation_count``.
    * ``max_frame_depth`` — guest call-frame ceiling.  Checked eagerly
      at call setup.  Values at or above the VM's own
      ``MAX_CALL_DEPTH`` never fire (the guest RangeError wins).
    * ``deadline_ms`` — wall-clock allowance for the run, armed when
      the VM is built (i.e. at ``Engine.run`` execution start).
    * ``check_stride`` — dispatches between amortized governance checks.
    """

    max_steps: int | None = None
    max_heap_bytes: int | None = None
    max_heap_objects: int | None = None
    max_frame_depth: int | None = None
    deadline_ms: float | None = None
    check_stride: int = DEFAULT_CHECK_STRIDE

    def __post_init__(self) -> None:
        if self.check_stride < 1:
            raise ValueError("check_stride must be >= 1")
        for name in (
            "max_steps",
            "max_heap_bytes",
            "max_heap_objects",
            "max_frame_depth",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 or None")

    @property
    def is_unlimited(self) -> bool:
        """True when no dimension is bounded (cancellation-only budget)."""
        return (
            self.max_steps is None
            and self.max_heap_bytes is None
            and self.max_heap_objects is None
            and self.max_frame_depth is None
            and self.deadline_ms is None
        )


class BudgetMeter:
    """Per-run enforcement state: what the governed dispatch loop consults.

    Built by the VM from an :class:`ExecutionBudget` and/or a
    :class:`CancelToken`; one meter governs one run (the deadline is
    armed at construction).  ``note_steps`` is the amortized entry
    point; :meth:`check` is the full check, also called from the frame
    unwinder so aborts cannot be outrun by deep ``try`` nesting.
    """

    __slots__ = (
        "budget",
        "token",
        "heap",
        "stride",
        "steps_used",
        "deadline_at",
        "_clock",
    )

    def __init__(
        self,
        budget: ExecutionBudget | None,
        token: CancelToken | None,
        heap: "Heap",
        clock: typing.Callable[[], float] = time.monotonic,
    ):
        self.budget = budget if budget is not None else ExecutionBudget()
        self.token = token
        self.heap = heap
        self.stride = self.budget.check_stride
        self.steps_used = 0
        self._clock = clock
        self.deadline_at: float | None = None
        if self.budget.deadline_ms is not None:
            self.deadline_at = clock() + self.budget.deadline_ms / 1000.0

    def note_steps(self, steps: int) -> None:
        """Credit ``steps`` dispatches and run the full governance check."""
        self.steps_used += steps
        self.check()

    def note_steps_quiet(self, steps: int) -> None:
        """Credit dispatches without checking — used while an exception is
        already unwinding (a check there would mask the original error)."""
        self.steps_used += steps

    def check(self) -> None:
        """The full governance check; raises the typed abort on violation.

        Ordering is deliberate: cancellation first (an operator's stop
        beats any budget message), then the cheap integer budgets, then
        the clock read.
        """
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(token.reason or "cancelled")
        budget = self.budget
        if budget.max_steps is not None and self.steps_used > budget.max_steps:
            raise StepBudgetExceeded(
                f"dispatch-step budget exceeded: {self.steps_used} > "
                f"{budget.max_steps} (amortized, stride {self.stride})"
            )
        heap = self.heap
        if (
            budget.max_heap_bytes is not None
            and heap.bytes_allocated > budget.max_heap_bytes
        ):
            raise HeapBudgetExceeded(
                f"heap byte budget exceeded: {heap.bytes_allocated} > "
                f"{budget.max_heap_bytes}"
            )
        if (
            budget.max_heap_objects is not None
            and heap.allocation_count > budget.max_heap_objects
        ):
            raise HeapBudgetExceeded(
                f"heap object budget exceeded: {heap.allocation_count} > "
                f"{budget.max_heap_objects}"
            )
        if self.deadline_at is not None and self._clock() > self.deadline_at:
            raise DeadlineExceeded(
                f"wall-clock deadline of {budget.deadline_ms} ms exceeded"
            )
