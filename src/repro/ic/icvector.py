"""The ICVector: per-function out-of-line inline-cache state (paper §2.3).

One :class:`ICVector` exists per function per execution; it has one
:class:`ICSite` per object access site, each holding up to
:data:`POLY_LIMIT` ``(hidden class, handler)`` slots.  The vector is
*context-dependent* state: V8 — and this reproduction — throws it away at
the end of every execution, which is precisely the waste RIC recovers.
"""

from __future__ import annotations

import enum
import typing
from types import SimpleNamespace

from repro.bytecode.code import CodeObject, FeedbackSlotInfo

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ic.handlers import Handler
    from repro.runtime.hidden_class import HiddenClass

#: Max hidden classes cached per site before it goes megamorphic (V8 uses 4).
POLY_LIMIT = 4


class ICState(enum.Enum):
    """Lifecycle of one IC site."""

    UNINITIALIZED = "uninitialized"
    MONOMORPHIC = "monomorphic"
    POLYMORPHIC = "polymorphic"
    MEGAMORPHIC = "megamorphic"


#: The members of :class:`ICState` as plain attributes (``ICStates.MONOMORPHIC
#: is ICState.MONOMORPHIC``), for code that runs per site or per IC access
#: (docs/INTERNALS.md §8).
ICStates = SimpleNamespace(**ICState.__members__)


class ICSite:
    """IC state for a single object access site."""

    __slots__ = ("info", "slots", "state", "preloaded_addresses")

    def __init__(self, info: FeedbackSlotInfo):
        self.info = info
        #: Up to POLY_LIMIT (hidden class, handler) pairs.
        self.slots: list[tuple["HiddenClass", "Handler"]] = []
        self.state = ICStates.UNINITIALIZED
        #: Addresses of hidden classes whose slot was preloaded by RIC, used
        #: to attribute averted misses.
        self.preloaded_addresses: set[int] = set()

    def lookup(self, hidden_class: "HiddenClass") -> "Handler | None":
        """Probe: the dispatch the specialised site code does.

        Linear scan over at most :data:`POLY_LIMIT` slots with
        move-to-front (MRU) reordering: a polymorphic site keeps its
        hottest shape first so the common case pays one compare.  The
        VM's global and keyed-element probes compare the front slot
        inline and call this only on a mismatch; named property sites
        inline the whole scan (``VM._op_get_prop``/``_op_set_prop``); RIC
        preloading checks a slot with it.  Every hit path therefore
        reorders slots the same way.
        """
        slots = self.slots
        for index, entry in enumerate(slots):
            if entry[0] is hidden_class:
                if index:
                    del slots[index]
                    slots.insert(0, entry)
                return entry[1]
        return None

    def install(
        self,
        hidden_class: "HiddenClass",
        handler: "Handler",
        preloaded: bool = False,
    ) -> bool:
        """Add a slot for ``hidden_class``; returns False once megamorphic.

        Re-installing for a hidden class already present replaces its
        handler (used when a prototype-chain handler is invalidated).
        """
        if self.state is ICStates.MEGAMORPHIC:
            return False
        for index, (cached_hc, _) in enumerate(self.slots):
            if cached_hc is hidden_class:
                self.slots[index] = (hidden_class, handler)
                return True
        if len(self.slots) >= POLY_LIMIT:
            self.slots.clear()
            self.preloaded_addresses.clear()
            self.state = ICStates.MEGAMORPHIC
            return False
        self.slots.append((hidden_class, handler))
        if preloaded:
            self.preloaded_addresses.add(hidden_class.address)
        self.state = (
            ICStates.MONOMORPHIC if len(self.slots) == 1 else ICStates.POLYMORPHIC
        )
        return True

    def was_preloaded(self, hidden_class: "HiddenClass") -> bool:
        return hidden_class.address in self.preloaded_addresses

    def __repr__(self) -> str:
        return (
            f"<ICSite {self.info.site_key} {self.state.value} "
            f"slots={len(self.slots)}>"
        )


class ICVector:
    """All IC sites of one function (paper Figure 3)."""

    __slots__ = ("code", "sites", "arith")

    def __init__(self, code: CodeObject):
        self.code = code
        self.sites = [ICSite(info) for info in code.feedback_slots]
        #: Per-pc operand-type bitmask accumulated by the VM's arithmetic
        #: handlers (repro/specialize/feedback.py defines the bits).  Like
        #: the sites, this is per-execution feedback — recorded cheaply on
        #: the hot path, read only at extraction time.
        self.arith: list[int] = [0] * len(code.instructions)

    def __getitem__(self, slot_index: int) -> ICSite:
        return self.sites[slot_index]

    def __len__(self) -> int:
        return len(self.sites)


class FeedbackState:
    """Per-execution registry of every ICVector.

    Also maintains the site-key index RIC's reuse machinery uses to preload
    slots for Dependent sites that may live in *other* functions than the
    Triggering one.  Vectors are created eagerly when a script is loaded so
    preloads can always find their target site.
    """

    __slots__ = ("_vectors", "_vector_list", "_sites_by_key", "demoted_sites")

    def __init__(self) -> None:
        self._vectors: dict[int, ICVector] = {}
        self._vector_list: list[ICVector] = []
        self._sites_by_key: dict[str, ICSite] = {}
        #: Persisted-feedback keys of sites whose typed-opcode guard failed
        #: this run (repro/specialize/).  Extraction turns each into a
        #: ``site_feedback`` tombstone so the demotion outlives the run.
        self.demoted_sites: set[str] = set()

    def register_script(self, toplevel_code: CodeObject) -> None:
        """Create ICVectors for a script's top level and every nested
        function."""
        for code in toplevel_code.iter_code_objects():
            if id(code) in self._vectors:
                continue
            vector = ICVector(code)
            self._vectors[id(code)] = vector
            self._vector_list.append(vector)
            for site in vector.sites:
                key = site.info.site_key
                # First registration wins; duplicate keys cannot occur for
                # distinct sites by construction (see Compiler.feedback).
                self._sites_by_key.setdefault(key, site)

    def vector_for(self, code: CodeObject) -> ICVector:
        return self._vectors[id(code)]

    def site_by_key(self, site_key: str) -> ICSite | None:
        return self._sites_by_key.get(site_key)

    def all_vectors(self) -> list[ICVector]:
        return list(self._vector_list)

    def all_sites(self) -> typing.Iterator[ICSite]:
        for vector in self._vector_list:
            yield from vector.sites
