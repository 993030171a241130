"""Execution counters: guest instructions, IC events, miss attribution.

One :class:`Counters` instance accompanies each execution.  Guest
instructions are grouped into the categories the paper's Figure 5 plots
("IC Miss Handling" vs "Rest of the Work"), IC accesses/hits/misses feed
Tables 1 and 4, and the reuse-run miss attribution implements Table 4's
Handler / Global / Other breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Instruction categories.  IC_MISS is the paper's "IC Miss Handling";
#: everything else is "Rest of the Work".
CATEGORY_EXECUTE = "execute"
CATEGORY_IC_MISS = "ic_miss"
CATEGORY_RUNTIME_OTHER = "runtime_other"
CATEGORY_RIC = "ric"

#: Reuse-run miss attribution buckets (paper Table 4).
MISS_HANDLER = "handler"
MISS_GLOBAL = "global"
MISS_OTHER = "other"


@dataclass
class Counters:
    """Mutable counters for one execution."""

    instructions: dict[str, int] = field(
        default_factory=lambda: {
            CATEGORY_EXECUTE: 0,
            CATEGORY_IC_MISS: 0,
            CATEGORY_RUNTIME_OTHER: 0,
            CATEGORY_RIC: 0,
        }
    )

    #: Raw count of bytecodes dispatched by the VM (the denominator for
    #: per-instruction dispatch overhead in BENCH_interp.json; the *cost*
    #: of those dispatches is charged to ``instructions["execute"]``).
    dispatches: int = 0

    ic_accesses: int = 0
    ic_hits: int = 0
    ic_misses: int = 0
    #: Hits on slots RIC preloaded = misses averted by RIC.
    ic_hits_on_preloaded: int = 0

    #: Per-tier hit attribution for *named* property sites (GET_PROP /
    #: SET_PROP).  ``mono``/``poly`` split ICVector slot hits by the
    #: site's state at hit time; ``mega`` counts megamorphic stub-cache
    #: hits.  Keyed-element and global hits stay untiered, although the
    #: VM now probes them inline too: nothing reads a tier split for them,
    #: and one would change every counter golden and baseline.  So these
    #: three do *not* sum to ``ic_hits``.
    ic_hits_mono: int = 0
    ic_hits_poly: int = 0
    ic_hits_mega: int = 0
    #: IC tier transitions: ``poly`` counts MONO→POLY (a second shape
    #: installed at a site), ``mega`` counts →MEGA (the slot list
    #: overflowed POLY_LIMIT and was dumped).  Counted wherever slots are
    #: installed — the IC miss path and RIC preloading — never in the
    #: VM's inline probe or the quickened slot ops, which only probe.
    ic_poly_transitions: int = 0
    ic_mega_transitions: int = 0

    #: Miss attribution (populated during Reuse runs).
    misses_by_reason: dict[str, int] = field(
        default_factory=lambda: {MISS_HANDLER: 0, MISS_GLOBAL: 0, MISS_OTHER: 0}
    )

    hidden_classes_created: int = 0
    handlers_generated: int = 0
    handlers_generated_context_independent: int = 0

    #: RIC reuse bookkeeping.
    ric_validations: int = 0
    ric_preloads: int = 0
    ric_toast_lookups: int = 0
    ric_divergences: int = 0

    #: Degradation bookkeeping: records offered to a Reuse run that were
    #: refused before any session was built.  ``corrupt`` = failed at
    #: load (unreadable, checksum/version mismatch — a
    #: :class:`~repro.ric.errors.CorruptRecord` placeholder); ``rejected``
    #: = parsed but failed structural validation.  Either way that record
    #: cold-starts while the rest of the page still reuses.
    ric_records_corrupt: int = 0
    ric_records_rejected: int = 0

    #: Bytecode code-cache traffic for this run (hit = frontend skipped).
    #: Mirrors ``RunProfile.code_cache_hits/misses`` so cache efficacy is
    #: visible wherever counters are reported.
    bytecode_cache_hits: int = 0
    bytecode_cache_misses: int = 0

    #: Remote record-store traffic for this run (daemon-backed stores
    #: only; all zero otherwise).  ``hits``/``misses`` are daemon
    #: answers, ``fallbacks`` are requests the transport failed and the
    #: local store absorbed — the degradation ladder's visible rung —
    #: and ``evictions`` is the daemon-reported eviction total this
    #: run's PUTs triggered.
    ric_remote_hits: int = 0
    ric_remote_misses: int = 0
    ric_remote_fallbacks: int = 0
    ric_remote_evictions: int = 0
    #: Fleet-mode extras (sharded stores only; all zero otherwise).
    #: ``failovers`` counts GET replica hops after a dead/refusing
    #: primary, ``proto_mismatch`` clean refusals from daemons speaking
    #: another protocol dialect (mixed-fleet rolling upgrades), and
    #: ``stale_epoch`` records refused by epoch fencing — a hit or PUT
    #: that predates a fleet-wide ``--bump-epoch`` invalidation.
    ric_remote_failovers: int = 0
    ric_remote_proto_mismatch: int = 0
    ric_remote_stale_epoch: int = 0

    #: Bytecode specialization (repro/specialize/).  ``specialized_sites``
    #: is how many instructions the quickening pass rewrote in the code
    #: this run executed; ``specialized_hits`` counts typed-opcode guard
    #: successes; ``deopts`` counts guard failures and
    #: ``despecialized_sites`` the in-place demotions they triggered
    #: (equal unless a site deopts after the instruction was already
    #: patched by another session sharing the artifact).  These are the
    #: only counters allowed to differ — along with the execute/ric
    #: instruction charges they discount — between ``specialize`` on and
    #: off (the differential wall in tests/test_differential.py).
    specialized_sites: int = 0
    specialized_hits: int = 0
    deopts: int = 0
    despecialized_sites: int = 0

    #: Governance aborts: how this run was stopped, if it was.  At most
    #: one of these is 1 for a given run (a run aborts once); they are
    #: separate counters rather than a single tag so report aggregation
    #: can sum them across many runs.  ``steps``/``heap``/``depth``/
    #: ``deadline`` map to the :class:`~repro.core.errors.BudgetExceeded`
    #: subclasses; ``cancelled`` to :class:`~repro.core.errors.Cancelled`.
    budget_aborts_steps: int = 0
    budget_aborts_heap: int = 0
    budget_aborts_depth: int = 0
    budget_aborts_deadline: int = 0
    budget_aborts_cancelled: int = 0

    # -- charging ------------------------------------------------------------

    def charge(self, category: str, amount: int) -> None:
        self.instructions[category] += amount

    # -- derived metrics -------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    @property
    def ic_miss_rate(self) -> float:
        """Fraction of IC accesses that missed (paper Table 4)."""
        if self.ic_accesses == 0:
            return 0.0
        return self.ic_misses / self.ic_accesses

    @property
    def ic_miss_handling_fraction(self) -> float:
        """Fraction of instructions spent handling IC misses (Figure 5)."""
        total = self.total_instructions
        if total == 0:
            return 0.0
        return self.instructions[CATEGORY_IC_MISS] / total

    @property
    def context_independent_handler_fraction(self) -> float:
        """Fraction of generated handlers that are reusable (Table 1)."""
        if self.handlers_generated == 0:
            return 0.0
        return (
            self.handlers_generated_context_independent / self.handlers_generated
        )

    def miss_rate_contribution(self, reason: str) -> float:
        """Contribution of one attribution bucket to the miss rate, in the
        same units as :attr:`ic_miss_rate` (Table 4 columns 4-6)."""
        if self.ic_accesses == 0:
            return 0.0
        return self.misses_by_reason[reason] / self.ic_accesses

    def record_miss(self, reason: str) -> None:
        self.ic_misses += 1
        self.misses_by_reason[reason] += 1

    def record_abort(self, reason: str) -> None:
        """Count one governance abort by its typed ``reason`` tag."""
        field_name = f"budget_aborts_{reason}"
        if not hasattr(self, field_name):
            raise ValueError(f"unknown abort reason {reason!r}")
        setattr(self, field_name, getattr(self, field_name) + 1)

    @property
    def budget_aborts_total(self) -> int:
        """All governance aborts (budget dimensions + cancellation)."""
        return (
            self.budget_aborts_steps
            + self.budget_aborts_heap
            + self.budget_aborts_depth
            + self.budget_aborts_deadline
            + self.budget_aborts_cancelled
        )

    def as_dict(self) -> dict:
        """Plain-data snapshot for reports and tests."""
        return {
            "instructions": dict(self.instructions),
            "total_instructions": self.total_instructions,
            "dispatches": self.dispatches,
            "ic_accesses": self.ic_accesses,
            "ic_hits": self.ic_hits,
            "ic_misses": self.ic_misses,
            "ic_hits_on_preloaded": self.ic_hits_on_preloaded,
            "ic_hits_mono": self.ic_hits_mono,
            "ic_hits_poly": self.ic_hits_poly,
            "ic_hits_mega": self.ic_hits_mega,
            "ic_poly_transitions": self.ic_poly_transitions,
            "ic_mega_transitions": self.ic_mega_transitions,
            "ic_miss_rate": self.ic_miss_rate,
            "misses_by_reason": dict(self.misses_by_reason),
            "hidden_classes_created": self.hidden_classes_created,
            "handlers_generated": self.handlers_generated,
            "handlers_generated_context_independent": (
                self.handlers_generated_context_independent
            ),
            "ric_validations": self.ric_validations,
            "ric_preloads": self.ric_preloads,
            "ric_divergences": self.ric_divergences,
            "ric_records_corrupt": self.ric_records_corrupt,
            "ric_records_rejected": self.ric_records_rejected,
            "ric_records_degraded": self.ric_records_degraded,
            "specialized_sites": self.specialized_sites,
            "specialized_hits": self.specialized_hits,
            "deopts": self.deopts,
            "despecialized_sites": self.despecialized_sites,
            "bytecode_cache_hits": self.bytecode_cache_hits,
            "bytecode_cache_misses": self.bytecode_cache_misses,
            "ric_remote_hits": self.ric_remote_hits,
            "ric_remote_misses": self.ric_remote_misses,
            "ric_remote_fallbacks": self.ric_remote_fallbacks,
            "ric_remote_evictions": self.ric_remote_evictions,
            "ric_remote_failovers": self.ric_remote_failovers,
            "ric_remote_proto_mismatch": self.ric_remote_proto_mismatch,
            "ric_remote_stale_epoch": self.ric_remote_stale_epoch,
            "budget_aborts_steps": self.budget_aborts_steps,
            "budget_aborts_heap": self.budget_aborts_heap,
            "budget_aborts_depth": self.budget_aborts_depth,
            "budget_aborts_deadline": self.budget_aborts_deadline,
            "budget_aborts_cancelled": self.budget_aborts_cancelled,
            "budget_aborts_total": self.budget_aborts_total,
        }

    @property
    def ric_records_degraded(self) -> int:
        """Records that fell back to cold-start (corrupt + rejected)."""
        return self.ric_records_corrupt + self.ric_records_rejected
