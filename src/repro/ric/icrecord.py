"""The ICRecord: RIC's persisted, context-independent IC information.

This is the paper's Figure 6 structure, produced by the extraction phase
after an Initial run and consumed by Reuse runs:

* **HCVT** (Hidden Class Validation Table): one row per hidden class of the
  Initial run, identified by a small integer ``hcid`` (creation order).
  The paper's row lists the Dependent sites to preload once the hidden
  class is validated; here those links are stored once, per site, in
  ``ICRecord.site_slots``, and the Reuse session builds the per-class view
  from them once per run, so a row persists only its count and any
  context-dependent sites.  The runtime fields of the paper's HCVT
  (``HCAddr``, ``V``) live in the Reuse session, not here — they are
  per-execution by definition.
* **TOAST** (Triggering Object Access Site Table): keyed by the stable
  identity of whatever creates hidden classes — a triggering object access
  site (file:line:col), a builtin name, or a constructor key — mapping to
  ``(incoming hcid, transition property, outgoing hcid)`` entries.
* **handler store**: deduplicated serialized context-independent handlers,
  referenced by index from ``site_slots`` entries.

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
class SiteSlot:
    """One persisted ICVector slot: ``(hidden class, handler)`` by id.

    ``hcid`` is record-local (an HCVT row index), ``handler_id`` indexes
    the record's handler store.  Each slot is one Dependent link of the
    paper's HCVT: once ``hcid`` is validated, its site is preloaded with
    the handler.  A site's slot list is stored in the probe (MRU) order
    the Initial run ended with, capped at ``POLY_LIMIT`` entries (see
    ``ICRecord.site_slots``).
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
    """One persisted type-feedback entry (``site_feedback``, format v8).

    For ``arith`` entries the key is ``{decl_key}@{pc}:arith`` (the code
    object's declaration key plus the instruction's pc in the optimized
    stream — stable because compilation and optimization are
    deterministic for a given source, and the record is only trusted for
    content-matched scripts) and ``types`` is the observed operand-class
    bitmask.  ``prop_load``/``prop_store`` entries are keyed by the
    site's IC ``site_key`` and are always tombstones: what a property
    site quickens to is read from its one ``site_slots`` slot.

    ``mega`` is the tombstone: the site thrashed (megamorphic, mixed
    operand types, kept one of several runtime slots, or demoted by a
    guard failure) and must never be re-specialized — persisting the
    *negative* result is what stops a reuse chain from re-learning a
    deopt every execution.
    """

    kind: str
    op: int = 0  # BinOp value for arith entries, 0 otherwise
    types: int = 0  # operand-class bitmask for arith entries
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
    #: The HCVT's rows are the hcids ``range(num_hidden_classes)``.
    num_hidden_classes: int = 0
    #: Its rows with context-dependent sites, and only those: hcid -> keys
    #: of the sites whose handler for that class was context-dependent
    #: (not a transitioning store).  RIC cannot preload them; their
    #: Reuse-run misses are Table 4's "Handler" column.
    cd_dependent_sites: dict[int, list[str]] = field(default_factory=dict)
    toast: dict[str, list[ToastPair]] = field(default_factory=dict)
    #: Deduplicated context-independent handlers (serialized form).
    handlers: list[dict] = field(default_factory=list)
    #: The record's one link table (format v6): ``site_key -> [SiteSlot,
    #: ...]`` for every named load/store site that ended the Initial run
    #: with at least one context-independent slot, in site order.  Every
    #: (site, hidden class, handler) Dependent link is stored here, once;
    #: :class:`~repro.ric.reuse.ReuseSession` groups the links by hcid
    #: when a run starts, so a validated hidden class preloads its sites
    #: in site order.
    site_slots: dict[str, list[SiteSlot]] = field(default_factory=dict)
    #: Per-site type feedback (format v8): ``feedback key ->``
    #: :class:`SiteFeedback` for arithmetic sites with a stable operand
    #: profile and tombstoned thrash sites.  Spent, with the single-slot
    #: field sites of ``site_slots``, by the quickening pass
    #: (repro/specialize/) at session pre-flight; ignored by everything
    #: else.
    site_feedback: dict[str, SiteFeedback] = field(default_factory=dict)
    #: Extraction wall-clock time in milliseconds (paper §7.3).
    extraction_time_ms: float = 0.0

    @property
    def num_dependent_links(self) -> int:
        return sum(len(slots) for slots in self.site_slots.values())

    def stats(self) -> dict:
        """Summary counts used by reports and tests."""
        return {
            "hidden_classes": self.num_hidden_classes,
            "toast_entries": len(self.toast),
            "toast_pairs": sum(len(pairs) for pairs in self.toast.values()),
            "dependent_links": self.num_dependent_links,
            "cd_dependent_links": sum(
                len(sites) for sites in self.cd_dependent_sites.values()
            ),
            "handlers": len(self.handlers),
            "slot_sites": len(self.site_slots),
            "poly_slot_sites": sum(
                1 for slots in self.site_slots.values() if len(slots) > 1
            ),
            "feedback_sites": len(self.site_feedback),
            "feedback_tombstones": sum(
                1 for fb in self.site_feedback.values() if fb.mega
            ),
            "extraction_time_ms": self.extraction_time_ms,
        }
