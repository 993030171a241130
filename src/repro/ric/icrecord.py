"""The ICRecord: RIC's persisted, context-independent IC information.

This is the paper's Figure 6 structure, produced by the extraction phase
after an Initial run and consumed by Reuse runs:

* **HCVT** (Hidden Class Validation Table): one row per hidden class of the
  Initial run, identified by a small integer ``hcid`` (creation order).
  Each row lists the Dependent sites to preload once the hidden class is
  validated, with the reusable handler to install.  The runtime fields of
  the paper's HCVT (``HCAddr``, ``V``) live in the Reuse session, not here —
  they are per-execution by definition.
* **TOAST** (Triggering Object Access Site Table): keyed by the stable
  identity of whatever creates hidden classes — a triggering object access
  site (file:line:col), a builtin name, or a constructor key — mapping to
  ``(incoming hcid, transition property, outgoing hcid)`` entries.
* **handler store**: deduplicated serialized context-independent handlers,
  referenced by index from HCVT dependent entries.

Everything in this module is context-independent plain data; nothing here
ever holds a heap address.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def filename_of_creation_key(key: str) -> str | None:
    """Which script file a creation key / site key belongs to.

    None for file-unbound keys (builtins, natives).  Site keys look like
    ``file.jsl:12:3:named_store``; constructor keys like
    ``ctor:file.jsl:4:1#Name:0``.
    """
    if key.startswith("builtin:") or key.startswith("native:"):
        return None
    if key.startswith("ctor:"):
        key = key[len("ctor:"):].split("#", 1)[0]
    parts = key.split(":")
    if len(parts) < 3:
        return None
    return parts[0]


@dataclass(frozen=True)
class DependentEntry:
    """One (Dependent site, handler) tuple of an HCVT row."""

    site_key: str
    handler_id: int


@dataclass
class HCVTRow:
    """Static part of one HCVT entry (paper Figure 6a).

    ``cd_dependent_sites`` are sites that encountered this hidden class but
    whose handler was context-dependent (other than transitioning stores):
    RIC cannot preload them, and their Reuse-run misses are attributed to
    Table 4's "Handler" column.
    """

    hcid: int
    dependents: list[DependentEntry] = field(default_factory=list)
    cd_dependent_sites: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SiteSlot:
    """One persisted ICVector slot: ``(hidden class, handler)`` by id.

    ``hcid`` is record-local (an HCVT row index), ``handler_id`` indexes
    the record's handler store.  A site's slot list is stored in the
    probe (MRU) order the Initial run converged on, capped at
    ``POLY_LIMIT`` entries — the persisted form of a MONO or POLY
    ICVector site (format v4; see ``ICRecord.site_slots``).
    """

    hcid: int
    handler_id: int


#: ``SiteFeedback.types`` bitmask values (operand classes observed at an
#: arithmetic site).  Mirrored by repro/specialize/feedback.py, which owns
#: the classification; persisted here so the record format is
#: self-contained.
FEEDBACK_INT = 1
FEEDBACK_FLOAT = 2
FEEDBACK_STR = 4
FEEDBACK_BOOL = 8
FEEDBACK_OBJ = 16
FEEDBACK_OTHER = 32
FEEDBACK_TYPE_MASK = (
    FEEDBACK_INT
    | FEEDBACK_FLOAT
    | FEEDBACK_STR
    | FEEDBACK_BOOL
    | FEEDBACK_OBJ
    | FEEDBACK_OTHER
)

#: ``SiteFeedback.kind`` values.
FEEDBACK_ARITH = "arith"
FEEDBACK_PROP_LOAD = "prop_load"
FEEDBACK_PROP_STORE = "prop_store"
FEEDBACK_KINDS = (FEEDBACK_ARITH, FEEDBACK_PROP_LOAD, FEEDBACK_PROP_STORE)


@dataclass(frozen=True)
class SiteFeedback:
    """One persisted type-feedback entry (format v5; ``site_feedback``).

    For ``arith`` entries the key is ``{decl_key}@{pc}:arith`` (the code
    object's declaration key plus the instruction's pc in the optimized
    stream — stable because compilation and optimization are
    deterministic for a given source, and the record is only trusted for
    content-matched scripts) and ``types`` is the observed operand-class
    bitmask.  For ``prop_load``/``prop_store`` entries the key is the
    site's IC ``site_key`` and ``hcid``/``offset`` pin the persistently
    monomorphic hidden class (record-local id, remapped per file exactly
    like ``site_slots``) and its field offset.

    ``mega`` is the tombstone: the site thrashed (megamorphic, mixed
    operand types, or demoted by a guard failure) and must never be
    re-specialized — persisting the *negative* result is what stops a
    reuse chain from re-learning a deopt every execution.
    """

    kind: str
    op: int = 0  # BinOp value for arith entries, 0 otherwise
    types: int = 0  # operand-class bitmask for arith entries
    hcid: int = -1  # record-local hidden-class id for mono prop entries
    offset: int = -1  # field offset for mono prop entries
    mega: bool = False  # tombstone: never re-specialize this site


@dataclass(frozen=True)
class ToastPair:
    """One (incoming, outgoing) entry of a TOAST row (Figure 6b).

    ``incoming_hcid`` is None for builtins and constructor initial classes
    ("Entries for built-in objects have no incoming hidden class").
    ``transition_property`` pins the added property so keyed/triggering
    sites that add different properties on different iterations validate
    only the matching transition.
    """

    incoming_hcid: int | None
    transition_property: str | None
    outgoing_hcid: int


@dataclass
class ICRecord:
    """The full persisted RIC artifact for one initialization workload."""

    #: Source scripts this record was extracted from (filenames + hashes),
    #: for cache-style integrity checking.
    script_keys: list[str] = field(default_factory=list)
    hcvt: list[HCVTRow] = field(default_factory=list)
    toast: dict[str, list[ToastPair]] = field(default_factory=dict)
    #: Deduplicated context-independent handlers (serialized form).
    handlers: list[dict] = field(default_factory=list)
    #: Per-site ordered slot sets (format v4): ``site_key -> [SiteSlot,
    #: ...]`` for every named load/store site that ended the Initial run
    #: with at least one context-independent slot.  ``hcvt[...].dependents``
    #: remains the per-hidden-class preload index (each (site, hc,
    #: handler) link appears there too); this table adds the *per-site*
    #: view — polymorphic degree and converged probe order — which reuse
    #: applies after preloading so a warmed site probes in the same order
    #: it did at extraction time.
    site_slots: dict[str, list[SiteSlot]] = field(default_factory=dict)
    #: Per-site type feedback (format v5): ``feedback key ->``
    #: :class:`SiteFeedback` for arithmetic sites with a stable operand
    #: profile, persistently monomorphic property sites, and tombstoned
    #: thrash sites.  Spent by the quickening pass (repro/specialize/) at
    #: session pre-flight; ignored by everything else.
    site_feedback: dict[str, SiteFeedback] = field(default_factory=dict)
    #: Extraction wall-clock time in milliseconds (paper §7.3).
    extraction_time_ms: float = 0.0

    def row(self, hcid: int) -> HCVTRow:
        return self.hcvt[hcid]

    @property
    def num_hidden_classes(self) -> int:
        return len(self.hcvt)

    @property
    def num_dependent_links(self) -> int:
        return sum(len(row.dependents) for row in self.hcvt)

    def stats(self) -> dict:
        """Summary counts used by reports and tests."""
        return {
            "hidden_classes": len(self.hcvt),
            "toast_entries": len(self.toast),
            "toast_pairs": sum(len(pairs) for pairs in self.toast.values()),
            "dependent_links": self.num_dependent_links,
            "cd_dependent_links": sum(
                len(row.cd_dependent_sites) for row in self.hcvt
            ),
            "handlers": len(self.handlers),
            "slot_sites": len(self.site_slots),
            "poly_slot_sites": sum(
                1 for slots in self.site_slots.values() if len(slots) > 1
            ),
            "site_slot_entries": sum(
                len(slots) for slots in self.site_slots.values()
            ),
            "feedback_sites": len(self.site_feedback),
            "feedback_tombstones": sum(
                1 for fb in self.site_feedback.values() if fb.mega
            ),
            "extraction_time_ms": self.extraction_time_ms,
        }
