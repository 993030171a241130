"""RIC Reuse-execution machinery (paper §5.2.2).

A :class:`ReuseSession` is attached to a fresh execution before builtins are
installed.  It observes every hidden-class creation of the run:

* builtin / constructor hidden classes are validated immediately on
  creation (their construction is deterministic — paper §4);
* a hidden class created by a transitioning site is validated iff its
  TOAST entry matches: same creation key, same transition property, and an
  *incoming* hidden class that is itself validated and whose current
  address matches the one recorded when it was validated earlier this run.

Validation of hidden class ``h`` preloads the ICVector slots of all of
``h``'s Dependent sites with (``h``'s address, saved handler) — averting
the IC miss each of those sites would otherwise take.  If validation fails
(the Reuse run diverged from the Initial run, Figure 7(e)), nothing is
preloaded and execution proceeds correctly, just without the speedup.
"""

from __future__ import annotations

from repro.core.config import RICConfig
from repro.ic.handlers import Handler, deserialize_handler
from repro.ic.icvector import POLY_LIMIT, FeedbackState, ICSite, ICState
from repro.interpreter import cost_model as cost
from repro.ric.icrecord import ICRecord, filename_of_creation_key
from repro.runtime.hidden_class import HiddenClass
from repro.stats.counters import CATEGORY_RIC, MISS_HANDLER, MISS_OTHER, Counters


class ReuseSession:
    """Per-Reuse-execution RIC state: the runtime HCVT columns.

    The paper's HCVT has per-run fields (``HCAddr``, the ``V`` bit) next to
    the persisted ones; here the persisted part is the read-only
    :class:`~repro.ric.icrecord.ICRecord` and the per-run part lives in
    this session.
    """

    __slots__ = (
        "tracer",
        "record",
        "feedback",
        "counters",
        "config",
        "_valid_files",
        "address_by_hcid",
        "hcid_by_address",
        "validated",
        "_handler_cache",
        "_cd_sites_by_hcid",
        "_slot_plan",
    )

    def __init__(
        self,
        record: ICRecord,
        feedback: FeedbackState,
        counters: Counters,
        config: RICConfig | None = None,
        tracer=None,
        trusted_script_keys: "set[str] | None" = None,
    ):
        self.tracer = tracer
        self.record = record
        self.feedback = feedback
        self.counters = counters
        self.config = config or RICConfig()
        # Content-identity gate: a record's file-bound information (site
        # transitions, constructor classes, dependents) is only valid for
        # files whose *content* matches the one the record was extracted
        # from — same discipline as the bytecode cache.  Source positions
        # alone are not identity: two different scripts can share a
        # filename and coincidentally aligned positions, and preloading
        # across them would read wrong slots (caught by the program
        # fuzzer).  ``trusted_script_keys`` holds this run's
        # "filename:source-hash" keys; None (unit-test construction)
        # trusts everything.
        if trusted_script_keys is None:
            self._valid_files: "set[str] | None" = None
        else:
            self._valid_files = {
                key.split(":", 1)[0]
                for key in record.script_keys
                if key in trusted_script_keys
            }
        #: hcid -> address of the validated hidden class this run (HCAddr).
        self.address_by_hcid: dict[int, int] = {}
        #: address -> hcid, for miss classification.
        self.hcid_by_address: dict[int, int] = {}
        #: The V bits.
        self.validated: set[int] = set()
        #: Materialized handlers, by handler_id (lazy).
        self._handler_cache: dict[int, Handler] = {}
        #: cd_dependent site keys per hcid, for Table 4 "Handler" attribution.
        self._cd_sites_by_hcid = {
            row.hcid: set(row.cd_dependent_sites)
            for row in record.hcvt
            if row.cd_dependent_sites
        }
        #: Recorded probe order per site (format v4 ``site_slots``):
        #: site_key -> {hcid: position}.  As a polymorphic site's slots
        #: preload one hidden class at a time (in whatever order this
        #: run happens to validate them), :meth:`_preload` re-sorts the
        #: preloaded slots to this recorded order, so a warmed site
        #: starts probing hottest-shape-first exactly as the Initial run
        #: left it.  Slot order never affects results or counters (the
        #: probe charge is flat) — only which compare hits first.
        self._slot_plan: dict[str, dict[int, int]] = {
            site_key: {
                slot.hcid: position for position, slot in enumerate(slots)
            }
            for site_key, slots in record.site_slots.items()
        }

    # -- hook wired into HiddenClassRegistry.on_created ------------------------

    def on_hidden_class_created(self, hc: HiddenClass) -> None:
        """Validate (or not) a hidden class the Reuse run just created."""
        counters = self.counters
        counters.ric_toast_lookups += 1
        counters.charge(CATEGORY_RIC, cost.RIC_TOAST_LOOKUP)

        if not self.config.validate:
            self._naive_match(hc)
            return

        if not self._file_trusted(hc.creation_key):
            return
        pairs = self.record.toast.get(hc.creation_key)
        if pairs is None:
            return
        if hc.creation_kind in ("builtin", "ctor"):
            for pair in pairs:
                if pair.incoming_hcid is None:
                    self._validate(pair.outgoing_hcid, hc)
                    return
            return
        incoming = hc.incoming
        if incoming is None:  # pragma: no cover - site transitions always have one
            return
        for pair in pairs:
            if pair.transition_property != hc.transition_property:
                continue
            if pair.incoming_hcid is None:
                continue
            counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
            if (
                pair.incoming_hcid in self.validated
                and self.address_by_hcid.get(pair.incoming_hcid) == incoming.address
            ):
                self._validate(pair.outgoing_hcid, hc)
                return
        counters.ric_divergences += 1
        if self.tracer is not None:
            from repro.stats.tracing import RIC_DIVERGENCE

            self.tracer.emit(
                RIC_DIVERGENCE, site_key=hc.creation_key, hc_index=hc.index
            )

    def _file_trusted(self, key: str) -> bool:
        """Whether file-bound record information for ``key`` may be used."""
        if self._valid_files is None:
            return True
        owner = filename_of_creation_key(key)
        return owner is None or owner in self._valid_files

    def _naive_match(self, hc: HiddenClass) -> None:
        """The unsound ablation: trust creation order, skip validation."""
        if hc.index < len(self.record.hcvt):
            self._validate(hc.index, hc)

    def _validate(self, hcid: int, hc: HiddenClass) -> None:
        counters = self.counters
        counters.ric_validations += 1
        counters.charge(CATEGORY_RIC, cost.RIC_VALIDATE)
        if self.tracer is not None:
            from repro.stats.tracing import RIC_VALIDATED

            self.tracer.emit(
                RIC_VALIDATED, hc_index=hc.index, detail=f"hcid={hcid}"
            )
        self.validated.add(hcid)
        self.address_by_hcid[hcid] = hc.address
        self.hcid_by_address[hc.address] = hcid
        if not self.config.enable_linking:
            return
        row = self.record.hcvt[hcid]
        for dependent in row.dependents:
            if not self._file_trusted(dependent.site_key):
                continue  # dependent belongs to a changed/unknown script
            site = self.feedback.site_by_key(dependent.site_key)
            if site is None:
                continue  # site's script not loaded in this run
            if not site.info.reusable:
                # A global or keyed site, which extraction never links:
                # the VM's inline probes there trust that every slot holds
                # a handler their own miss path installed.
                continue
            self._preload(site, hc, dependent.handler_id)

    def _preload(self, site: ICSite, hc: HiddenClass, handler_id: int) -> None:
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
        if site.state is ICState.MEGAMORPHIC or len(site.slots) >= POLY_LIMIT:
            return
        if site.lookup(hc) is not None:
            return
        handler = self._materialize_handler(handler_id)
        self.counters.charge(CATEGORY_RIC, cost.RIC_PRELOAD_SLOT)
        if not self.config.enable_handler_reuse:
            # Ablation: linking without handler reuse — the slot is still
            # preloaded but the handler must be regenerated, paying the
            # generation cost the full design avoids.
            self.counters.charge(CATEGORY_RIC, cost.HANDLER_GENERATE)
        before = site.state
        site.install(hc, handler, preloaded=True)
        if site.state is ICState.POLYMORPHIC and before is not ICState.POLYMORPHIC:
            self.counters.ic_poly_transitions += 1
        self.counters.ric_preloads += 1
        self._apply_slot_plan(site)
        if self.tracer is not None:
            from repro.stats.tracing import RIC_PRELOADED

            self.tracer.emit(
                RIC_PRELOADED,
                site_key=site.info.site_key,
                hc_index=hc.index,
                detail=handler.describe(),
            )

    def _apply_slot_plan(self, site: ICSite) -> None:
        """Restore the recorded probe order on a fully-preloaded site.

        Only applied while *every* slot is a preload: once the run
        installs anything organically, MRU reordering owns the site and
        imposing extraction-time order would fight it.
        """
        plan = self._slot_plan.get(site.info.site_key)
        slots = site.slots
        if plan is None or len(slots) < 2:
            return
        preloaded = site.preloaded_addresses
        if any(entry[0].address not in preloaded for entry in slots):
            return
        hcid_of = self.hcid_by_address
        slots.sort(
            key=lambda entry: plan.get(
                hcid_of.get(entry[0].address, -1), POLY_LIMIT
            )
        )

    def _materialize_handler(self, handler_id: int) -> Handler:
        handler = self._handler_cache.get(handler_id)
        if handler is None:
            handler = deserialize_handler(self.record.handlers[handler_id])
            self._handler_cache[handler_id] = handler
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
        hcid = self.hcid_by_address.get(hc.address)
        if hcid is not None and hcid in self.validated:
            cd_sites = self._cd_sites_by_hcid.get(hcid)
            if cd_sites and site.info.site_key in cd_sites:
                return MISS_HANDLER
        return MISS_OTHER


class MultiReuseSession:
    """Several per-script ReuseSessions acting as one (see
    :mod:`repro.ric.store`).

    Each underlying session owns its record's local HCID namespace and its
    own validation table; a hidden-class creation event is offered to all
    of them.  This is how per-file records extracted by *different
    applications* compose on a single page load.

    Offering an event to a session whose record has no TOAST entry for
    the creation key only counts one TOAST lookup there, so the event is
    dispatched through a TOAST-key index to the sessions that can match,
    and the others' lookups are counted in one step: every counter reads
    as if all sessions had been visited.  The naive-match ablation
    (``validate=False``) ignores the TOAST and visits every session.
    """

    __slots__ = ("sessions", "_by_key", "_counters")

    def __init__(self, sessions: list[ReuseSession]):
        self.sessions = sessions
        #: creation key -> sessions whose record has a TOAST entry for it,
        #: in session order; None when every session must be visited.
        self._by_key: "dict[str, list[ReuseSession]] | None" = None
        self._counters = sessions[0].counters if sessions else None
        if all(
            session.config.validate and session.counters is self._counters
            for session in sessions
        ):
            by_key: dict[str, list[ReuseSession]] = {}
            for session in sessions:
                for key in session.record.toast:
                    by_key.setdefault(key, []).append(session)
            self._by_key = by_key

    def on_hidden_class_created(self, hc: HiddenClass) -> None:
        if self._by_key is None:
            for session in self.sessions:
                session.on_hidden_class_created(hc)
            return
        matching = self._by_key.get(hc.creation_key, ())
        skipped = len(self.sessions) - len(matching)
        if skipped:
            counters = self._counters
            counters.ric_toast_lookups += skipped
            counters.charge(CATEGORY_RIC, skipped * cost.RIC_TOAST_LOOKUP)
        for session in matching:
            session.on_hidden_class_created(hc)

    def classify_miss(self, site: ICSite, hc: HiddenClass) -> str:
        for session in self.sessions:
            if session.classify_miss(site, hc) == MISS_HANDLER:
                return MISS_HANDLER
        return MISS_OTHER
