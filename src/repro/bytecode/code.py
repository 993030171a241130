"""Compiled-code containers: :class:`CodeObject` and feedback-slot metadata.

A :class:`CodeObject` is the context-independent compilation artifact: it is
what the code cache persists across executions (paper §8.1).  All
context-dependent feedback (the ``ICVector``) lives outside of it, in
per-execution state — that separation is exactly what lets V8 (and us) cache
bytecode while still rebuilding IC state every run, which RIC then fixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.lang.errors import SourcePosition


class SiteKind(enum.Enum):
    """What sort of object access a feedback slot belongs to.

    The distinction matters to RIC: NAMED_* sites are eligible for
    linking/preloading; GLOBAL_* sites are excluded (paper §6 disables RIC
    for global objects); KEYED_* sites are excluded because the accessed
    property is not determined by the site.
    """

    NAMED_LOAD = "named_load"
    NAMED_STORE = "named_store"
    KEYED_LOAD = "keyed_load"
    KEYED_STORE = "keyed_store"
    GLOBAL_LOAD = "global_load"
    GLOBAL_STORE = "global_store"


@dataclass(frozen=True)
class FeedbackSlotInfo:
    """Static metadata for one object access site.

    ``position`` is the stable cross-execution identity of the site (paper
    §5.1: file name + line + position in line).  ``name`` is the accessed
    property for named/global sites, ``None`` for keyed sites.
    """

    kind: SiteKind
    position: SourcePosition
    name: str | None
    #: The stable string key used by the TOAST and HCVT.  Includes the
    #: site kind so that e.g. the load and store halves of a compound
    #: assignment (same source position) stay distinct.  Derived from
    #: the fields above once per slot: site registration, quickening and
    #: IC misses that create hidden classes all read it.
    site_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "site_key", f"{self.position}:{self.kind.value}")

    @property
    def reusable(self) -> bool:
        """Whether RIC may link/preload this site at all."""
        return self.kind in (SiteKind.NAMED_LOAD, SiteKind.NAMED_STORE)


@dataclass
class CodeObject:
    """Bytecode plus pools for one jsl function (or the script top level)."""

    name: str
    filename: str
    params: list[str]
    position: SourcePosition
    instructions: list[tuple[int, int, int]] = field(default_factory=list)
    #: (line, column) per instruction — the statement each op belongs to;
    #: drives positioned runtime errors and guest stack traces.
    positions: list[tuple[int, int]] = field(default_factory=list)
    constants: list[object] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    local_names: list[str] = field(default_factory=list)
    feedback_slots: list[FeedbackSlotInfo] = field(default_factory=list)
    #: Stable identity of this function across executions: the declaration
    #: position.  Used to key constructor hidden classes in the TOAST.
    decl_key: str = ""
    #: Specialization side table, populated only on quickened clones
    #: (repro/specialize/quicken.py): GET_PROP_SLOT/SET_PROP_SLOT carry an
    #: index into this list, each entry a ``(name_index, offset)`` pair —
    #: the original name-pool operand (for deopt back to the generic
    #: opcode) and the monomorphic field offset the guard authorizes.
    #: Always empty on compiler/optimizer output and on cached bytecode;
    #: quickened clones never enter the code cache.
    spec_table: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.decl_key:
            self.decl_key = f"{self.position}#{self.name}"

    @property
    def num_locals(self) -> int:
        return len(self.local_names)

    def position_at(self, pc: int) -> SourcePosition:
        """Source position of the instruction at ``pc``."""
        if 0 <= pc < len(self.positions):
            line, column = self.positions[pc]
            return SourcePosition(self.filename, line, column)
        return self.position

    def iter_code_objects(self):
        """Yield this code object and, recursively, every nested one."""
        yield self
        for constant in self.constants:
            if isinstance(constant, CodeObject):
                yield from constant.iter_code_objects()

    def __repr__(self) -> str:
        return (
            f"<CodeObject {self.name!r} at {self.position} "
            f"ops={len(self.instructions)} slots={len(self.feedback_slots)}>"
        )
