"""RIC extraction phase (paper §5.2.1).

Runs off-line after an Initial execution completes.  It walks two data
sources:

1. the :class:`~repro.runtime.hidden_class.HiddenClassRegistry` — every
   hidden class of the run, in creation order, with its creator (builtin
   name, constructor key, or triggering site) — to build the TOAST and
   assign HCIDs; and
2. the final :class:`~repro.ic.icvector.FeedbackState` (the ICVectors) — to
   find, for each site, the hidden classes it encountered and the
   handlers it used, which become the record's one link table,
   ``site_slots`` (each slot is one Dependent link of the paper's HCVT).

One routine, :func:`_extract`, builds both record kinds.  They differ
only in which hidden classes become HCVT rows and which sites are read:

* a **whole-run** record (:func:`extract_icrecord`) has a row for every
  hidden class, numbered by creation index, and reads every site;
* a **per-file** record (:func:`extract_per_script_records`, paper §9)
  has rows for the builtins, the file's own classes and the native
  transitions they pull in, renumbered record-locally (global creation
  indices are an artifact of one page's load order and would not
  transfer), and reads only the file's sites — cross-file links are
  dropped, a sound and conservative choice.

Global-object state is excluded (paper §6), as are hidden classes whose
creation key is ambiguous within the run: a key that made more than one
class for the same (incoming, property) cannot identify any of them, so
none enters the TOAST and no site is linked to any of them.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.bytecode.code import SiteKinds
from repro.core.config import RICConfig
from repro.ic.handlers import StoreTransitionHandler
from repro.ic.icvector import FeedbackState, ICStates
from repro.ric.icrecord import (
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    ICRecord,
    SiteFeedback,
    SiteSlot,
    ToastPair,
    filename_of_creation_key,
)
from repro.runtime.context import Runtime
from repro.runtime.hidden_class import HiddenClass
from repro.specialize.feedback import collect_arith_feedback, demotion_tombstones

#: Creation-key prefixes that are never reusable across executions.
_EXCLUDED_KEY_PREFIXES = ("builtin:thrown:", "builtin:Dictionary")


def extract_icrecord(
    runtime: Runtime,
    feedback: FeedbackState,
    config: RICConfig | None = None,
    script_keys: list[str] | None = None,
) -> ICRecord:
    """Build a whole-run :class:`ICRecord` from a completed Initial run."""
    start = time.perf_counter()
    classes = runtime.hidden_classes.all_classes
    record = _extract(classes, feedback, _reusable(feedback, config or RICConfig()))
    record.script_keys = list(script_keys or [])
    record.extraction_time_ms = (time.perf_counter() - start) * 1000.0
    return record


def extract_per_script_records(
    runtime: Runtime,
    feedback: FeedbackState,
    config: RICConfig | None = None,
) -> dict[str, ICRecord]:
    """Split a completed run's IC information into per-file records."""
    classes = runtime.hidden_classes.all_classes
    reusable = _reusable(feedback, config or RICConfig())
    filenames = sorted(
        {
            name
            for hc in classes
            if (name := filename_of_creation_key(hc.creation_key)) is not None
        }
    )
    return {
        filename: _extract(
            _file_classes(filename, classes, reusable),
            feedback,
            reusable,
            filename,
        )
        for filename in filenames
    }


def _reusable(feedback: FeedbackState, config: RICConfig):
    """Predicate: may this hidden class's creation key enter a TOAST?

    Unless ``config.include_global_ics``, the global object and the
    classes global-access sites made are excluded (paper §6)."""
    global_keys: set[str] = set()
    if not config.include_global_ics:
        global_keys.add("builtin:global")
        global_keys.update(
            site.info.site_key
            for site in feedback.all_sites()
            if site.info.kind in (SiteKinds.GLOBAL_LOAD, SiteKinds.GLOBAL_STORE)
        )

    def reusable(hc: HiddenClass) -> bool:
        key = hc.creation_key
        return not key.startswith(_EXCLUDED_KEY_PREFIXES) and key not in global_keys

    return reusable


def _file_classes(
    filename: str, classes: list[HiddenClass], reusable
) -> list[HiddenClass]:
    """The rows of one file's record, in creation order.

    Builtins and this file's creations seed the set; native-created
    transitions join when their incoming class already did (e.g.
    Object.assign extending this file's objects).  An incoming class is
    always created before its transitions, so one pass in creation order
    closes the set.
    """
    chosen: set[int] = set()
    rows: list[HiddenClass] = []
    for hc in classes:
        if not reusable(hc):
            continue
        if hc.creation_key.startswith("native:"):
            keep = hc.incoming is not None and hc.incoming.index in chosen
        else:
            owner = filename_of_creation_key(hc.creation_key)
            keep = owner is None or owner == filename
        if keep:
            chosen.add(hc.index)
            rows.append(hc)
    return rows


def _extract(
    rows: list[HiddenClass],
    feedback: FeedbackState,
    reusable,
    filename: str | None = None,
) -> ICRecord:
    """Build one record whose HCVT row ``i`` is ``rows[i]``.

    ``filename`` restricts the sites and arithmetic profiles read to
    that file's (a per-file record); ``None`` reads them all.
    """
    local_id = {hc.index: local for local, hc in enumerate(rows)}
    record = ICRecord(script_keys=[filename] if filename is not None else [])
    record.num_hidden_classes = len(rows)

    # ---- TOAST -------------------------------------------------------------
    # Rows no TOAST entry may name, and so no site may be linked to.
    excluded: set[int] = set()
    pairs_by_key: dict[str, list[ToastPair]] = {}
    for hc in rows:
        local = local_id[hc.index]
        if not reusable(hc):
            excluded.add(local)
            continue
        if hc.creation_kind in ("builtin", "ctor"):
            pair = ToastPair(None, None, local)
        else:
            assert hc.incoming is not None
            incoming = local_id.get(hc.incoming.index)
            if incoming is None:
                continue  # incoming outside this record: unlinkable
            pair = ToastPair(incoming, hc.transition_property, local)
        pairs_by_key.setdefault(hc.creation_key, []).append(pair)

    for key, pairs in pairs_by_key.items():
        # A key that produced more than one class for the same
        # (incoming, property) is ambiguous: every such class is dropped.
        signatures = Counter(
            (pair.incoming_hcid, pair.transition_property) for pair in pairs
        )
        kept = []
        for pair in pairs:
            if signatures[(pair.incoming_hcid, pair.transition_property)] > 1:
                excluded.add(pair.outgoing_hcid)
            else:
                kept.append(pair)
        if kept:
            record.toast[key] = kept

    # ---- site_slots: the Dependent links (scan the ICVectors) ------------------
    handler_ids: dict[tuple, int] = {}

    def intern_handler(serialized: dict) -> int:
        key = tuple(serialized.items())  # each kind writes its fields in one order
        handler_id = handler_ids.get(key)
        if handler_id is None:
            handler_id = len(record.handlers)
            handler_ids[key] = handler_id
            record.handlers.append(serialized)
        return handler_id

    for site in feedback.all_sites():
        info = site.info
        if not info.reusable:
            continue  # keyed + global sites are not linked (paper §6)
        if filename is not None and info.position.filename != filename:
            continue
        # site.slots is in final probe (MRU) order, and is persisted in
        # that order.  Megamorphic sites hold no slots and thus persist
        # nothing — they re-learn, by design.  Shapes without a row here
        # (another file's) drop out: a per-file record persists the
        # polymorphic degree its file can re-validate on its own.
        slot_entries: list[SiteSlot] = []
        for hc, handler in site.slots:
            local = local_id.get(hc.index)
            if local is None or local in excluded:
                continue
            if handler.is_context_independent:
                serialized = handler.serialize()
                assert serialized is not None
                slot_entries.append(SiteSlot(local, intern_handler(serialized)))
            elif not isinstance(handler, StoreTransitionHandler):
                # Context-dependent non-transitioning handler: RIC cannot
                # preload this site, and its Reuse miss is attributed to the
                # "Handler" bucket of Table 4.  Transitioning stores are the
                # Triggering sites themselves ("Other" by construction).
                record.cd_dependent_sites.setdefault(local, []).append(info.site_key)
        if slot_entries:
            record.site_slots[info.site_key] = slot_entries
        # A site the quickener must not rewrite from its one persisted
        # slot is tombstoned: it went megamorphic, or it keeps one of
        # several runtime slots (the others are context-dependent or
        # unlinkable here), so a typed op guarding on that one class
        # would deopt.
        if site.state is ICStates.MEGAMORPHIC or (
            len(site.slots) > len(slot_entries) == 1
        ):
            record.site_feedback[info.site_key] = SiteFeedback(
                kind=(
                    FEEDBACK_PROP_LOAD
                    if info.kind is SiteKinds.NAMED_LOAD
                    else FEEDBACK_PROP_STORE
                ),
                mega=True,
            )

    # ---- site_feedback: arithmetic profiles + demotions ---------------------
    # Property tombstones were emitted site-by-site above; arithmetic
    # masks come from the ICVectors' recorder lists, and sites whose
    # typed guard failed during this run override everything with a
    # tombstone.  Both key shapes start with the declaring filename,
    # which is what the per-file filters cut on.
    record.site_feedback.update(collect_arith_feedback(feedback, filename=filename))
    demoted = demotion_tombstones(feedback.demoted_sites, filename=filename)
    record.site_feedback.update(demoted)
    return record
