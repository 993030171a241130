"""RIC Reuse-execution machinery (paper §5.2.2).

A :class:`ReuseSession` is attached to a fresh execution before builtins are
installed, over every record the run admitted: one whole-run record, or
per-file records that compose on a page (paper §9, :mod:`repro.ric.store`).
Each record keeps its own HCID namespace, so the session's per-run state
is keyed by (record, hcid).  It observes every hidden-class creation of
the run, and for each record:

* builtin / constructor hidden classes are validated immediately on
  creation (their construction is deterministic — paper §4);
* a hidden class created by a transitioning site is validated iff its
  TOAST entry matches: same creation key, same transition property, and an
  *incoming* hidden class that is itself validated and whose current
  address matches the one recorded when it was validated earlier this run.

Validation of hidden class ``h`` preloads the ICVector slots of all of
``h``'s Dependent sites with (``h``'s address, saved handler) — averting
the IC miss each of those sites would otherwise take.  The session reads
each record's link table (``ICRecord.site_slots``) once, when the run
starts, into the paper's per-class view: hcid -> [(site, handler id)], in
site order, holding only links to sites this run loaded from
content-matched files.  If validation fails (the Reuse run diverged from
the Initial run, Figure 7(e)), nothing is preloaded and execution
proceeds correctly, just without the speedup.
"""

from __future__ import annotations

import typing

from repro.core.config import RICConfig
from repro.ic.handlers import Handler, deserialize_handler
from repro.ic.icvector import POLY_LIMIT, FeedbackState, ICSite, ICStates
from repro.interpreter import cost_model as cost
from repro.ric.icrecord import ICRecord, ToastPair, filename_of_creation_key
from repro.runtime.hidden_class import HiddenClass
from repro.stats.counters import CATEGORY_RIC, MISS_HANDLER, MISS_OTHER, Counters


class ReuseSession:
    """Per-Reuse-execution RIC state: the runtime HCVT columns.

    The paper's HCVT has per-run fields (``HCAddr``, the ``V`` bit) next to
    the persisted ones; here the persisted part is the run's read-only
    :class:`~repro.ric.icrecord.ICRecord` list and the per-run part lives
    in this session, one map per record.
    """

    __slots__ = (
        "tracer",
        "records",
        "feedback",
        "counters",
        "config",
        "_valid_files",
        "_toast_index",
        "address_by_hcid",
        "_links",
        "_cd_sites_by_address",
        "_handler_caches",
    )

    def __init__(
        self,
        records: "typing.Sequence[ICRecord]",
        feedback: FeedbackState,
        counters: Counters,
        config: RICConfig | None = None,
        tracer=None,
        trusted_script_keys: "set[str] | None" = None,
    ):
        self.tracer = tracer
        self.records = records
        self.feedback = feedback
        self.counters = counters
        self.config = config or RICConfig()
        # Content-identity gate: a record's file-bound information (site
        # transitions, constructor classes, links) is only valid for
        # files whose *content* matches the one the record was extracted
        # from — same discipline as the bytecode cache.  Source positions
        # alone are not identity: two different scripts can share a
        # filename and coincidentally aligned positions, and preloading
        # across them would read wrong slots (caught by the program
        # fuzzer).  ``trusted_script_keys`` holds this run's
        # "filename:source-hash" keys; None (unit-test construction)
        # trusts everything.
        self._valid_files: "list[set[str]] | None" = None
        if trusted_script_keys is not None:
            self._valid_files = [
                {
                    key.split(":", 1)[0]
                    for key in record.script_keys
                    if key in trusted_script_keys
                }
                for record in records
            ]
        #: creation key -> [(record index, TOAST pairs)], in record order:
        #: a new hidden class is matched only against the records that
        #: have a TOAST entry for it.
        self._toast_index: dict[str, list[tuple[int, list[ToastPair]]]] = {}
        for index, record in enumerate(records):
            for key, pairs in record.toast.items():
                self._toast_index.setdefault(key, []).append((index, pairs))
        #: Per record: hcid -> address of the hidden class validated for it
        #: this run (HCAddr).  A key is the V bit.
        self.address_by_hcid: list[dict[int, int]] = [{} for _ in records]
        #: Per record: hcid -> [(site, handler id)], the Dependent links
        #: a validation of that hidden class preloads, in site order.
        self._links: list[dict[int, list[tuple[ICSite, int]]]] = [
            self._resolve_links(index, record) if self.config.enable_linking else {}
            for index, record in enumerate(records)
        ]
        #: Address of a validated hidden class -> the site keys whose
        #: handler for it was context-dependent in a record, for Table 4
        #: "Handler" attribution.
        self._cd_sites_by_address: dict[int, set[str]] = {}
        #: Per record: materialized handlers, by handler_id (lazy).
        self._handler_caches: list[dict[int, Handler]] = [{} for _ in records]

    def _resolve_links(
        self, index: int, record: ICRecord
    ) -> "dict[int, list[tuple[ICSite, int]]]":
        """Group record ``index``'s ``site_slots`` by hcid, keeping only
        the sites it may preload in this run."""
        valid_files = None if self._valid_files is None else self._valid_files[index]
        feedback = self.feedback
        links: dict[int, list[tuple[ICSite, int]]] = {}
        for site_key, slots in record.site_slots.items():
            if valid_files is not None:
                owner = filename_of_creation_key(site_key)
                if owner is not None and owner not in valid_files:
                    continue  # site belongs to a changed/unknown script
            site = feedback.site_by_key(site_key)
            if site is None:
                continue  # site's script not loaded in this run
            if not site.info.reusable:
                # A global or keyed site, which extraction never links:
                # the VM's inline probes there trust that every slot holds
                # a handler their own miss path installed.
                continue
            for slot in slots:
                links.setdefault(slot.hcid, []).append((site, slot.handler_id))
        return links

    # -- hook wired into HiddenClassRegistry.on_created ------------------------

    def on_hidden_class_created(self, hc: HiddenClass) -> None:
        """Validate (or not) a hidden class the Reuse run just created,
        against every record.  Each record is charged one TOAST lookup."""
        counters = self.counters
        lookups = len(self.records)
        counters.ric_toast_lookups += lookups
        counters.charge(CATEGORY_RIC, lookups * cost.RIC_TOAST_LOOKUP)

        if not self.config.validate:
            for index, record in enumerate(self.records):
                self._naive_match(index, record, hc)
            return

        entries = self._toast_index.get(hc.creation_key)
        if entries is None:
            return
        valid_files = self._valid_files
        owner = (
            None if valid_files is None else filename_of_creation_key(hc.creation_key)
        )
        for index, pairs in entries:
            if owner is not None and owner not in valid_files[index]:
                continue
            self._match(index, pairs, hc)

    def _match(self, index: int, pairs: "list[ToastPair]", hc: HiddenClass) -> None:
        """Match ``hc`` against one record's TOAST pairs for its key."""
        if hc.creation_kind in ("builtin", "ctor"):
            for pair in pairs:
                if pair.incoming_hcid is None:
                    self._validate(index, pair.outgoing_hcid, hc)
                    return
            return
        incoming = hc.incoming
        if incoming is None:  # pragma: no cover - site transitions always have one
            return
        counters = self.counters
        addresses = self.address_by_hcid[index]
        for pair in pairs:
            if pair.transition_property != hc.transition_property:
                continue
            if pair.incoming_hcid is None:
                continue
            counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
            if addresses.get(pair.incoming_hcid) == incoming.address:
                self._validate(index, pair.outgoing_hcid, hc)
                return
        counters.ric_divergences += 1
        if self.tracer is not None:
            from repro.stats.tracing import RIC_DIVERGENCE

            self.tracer.emit(
                RIC_DIVERGENCE, site_key=hc.creation_key, hc_index=hc.index
            )

    def _naive_match(self, index: int, record: ICRecord, hc: HiddenClass) -> None:
        """The unsound ablation: trust creation order, skip validation."""
        if hc.index < record.num_hidden_classes:
            self._validate(index, hc.index, hc)

    def _validate(self, index: int, hcid: int, hc: HiddenClass) -> None:
        counters = self.counters
        counters.ric_validations += 1
        counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
        if self.tracer is not None:
            from repro.stats.tracing import RIC_VALIDATED

            self.tracer.emit(
                RIC_VALIDATED, hc_index=hc.index, detail=f"hcid={hcid}"
            )
        self.address_by_hcid[index][hcid] = hc.address
        cd_sites = self.records[index].cd_dependent_sites.get(hcid)
        if cd_sites:
            self._cd_sites_by_address.setdefault(hc.address, set()).update(
                cd_sites
            )
        for site, handler_id in self._links[index].get(hcid, ()):
            self._preload(index, site, hc, handler_id)

    def _preload(
        self, index: int, site: ICSite, hc: HiddenClass, handler_id: int
    ) -> None:
        """Fill one Dependent site's ICVector slot (the paper's key step).

        Polymorphic slot sets preload in full: each validated hidden
        class fills its own slot, one install per Dependent link, up to
        all ``POLY_LIMIT`` slots of a POLY site.  The capacity guard
        below only refuses installs *beyond* the limit — a preload must
        never be the install that dumps a site to MEGA (that would make
        record reuse degrade a site the Reuse run might have kept
        polymorphic).  Megamorphic sites likewise stay untouched: the
        record stores no slots for them and they re-learn through the
        stub cache.
        """
        if site.state is ICStates.MEGAMORPHIC or len(site.slots) >= POLY_LIMIT:
            return
        if site.lookup(hc) is not None:
            return
        handler = self._materialize_handler(index, handler_id)
        self.counters.charge(CATEGORY_RIC, cost.RIC_PRELOAD_SLOT)
        if not self.config.enable_handler_reuse:
            # Ablation: linking without handler reuse — the slot is still
            # preloaded but the handler must be regenerated, paying the
            # generation cost the full design avoids.
            self.counters.charge(CATEGORY_RIC, cost.HANDLER_GENERATE)
        before = site.state
        site.install(hc, handler, preloaded=True)
        if site.state is ICStates.POLYMORPHIC and before is not ICStates.POLYMORPHIC:
            self.counters.ic_poly_transitions += 1
        self.counters.ric_preloads += 1
        if self.tracer is not None:
            from repro.stats.tracing import RIC_PRELOADED

            self.tracer.emit(
                RIC_PRELOADED,
                site_key=site.info.site_key,
                hc_index=hc.index,
                detail=handler.describe(),
            )

    def _materialize_handler(self, index: int, handler_id: int) -> Handler:
        cache = self._handler_caches[index]
        handler = cache.get(handler_id)
        if handler is None:
            handler = deserialize_handler(self.records[index].handlers[handler_id])
            cache[handler_id] = handler
        return handler

    # -- miss attribution (Table 4) ------------------------------------------------

    def classify_miss(self, site: ICSite, hc: HiddenClass) -> str:
        """Attribute a named-site Reuse miss to Handler or Other.

        "Handler": the Initial run saw this (site, hidden class) pair but
        its handler was context-dependent, so RIC could not preload it.
        Everything else — triggering sites, divergence, first-seen classes,
        megamorphic sites — is "Other".  (Global misses are classified at
        the IC layer before reaching here.)
        """
        cd_sites = self._cd_sites_by_address.get(hc.address)
        if cd_sites is not None and site.info.site_key in cd_sites:
            return MISS_HANDLER
        return MISS_OTHER
