"""The quickening pass: rewrite generic bytecode into typed variants.

Runs at session pre-flight (:class:`~repro.core.session.RunSession`),
never during execution.  Given a code tree and the run's trusted
records for it, it produces a **clone** of the tree in which every site
with a stable persisted profile carries its typed opcode:

* ``BINARY ADD/SUB/MUL`` whose operand mask stayed within the numeric
  bits becomes ``ADD_INT`` (integral-only ADD) or ``ADD_NUM`` /
  ``SUB_NUM`` / ``MUL_NUM``;
* fused ``CMP_JUMP_IF_*`` with a numeric mask becomes its
  ``CMP_INT_JUMP_IF_*`` / ``CMP_NUM_JUMP_IF_*`` twin (stacking on the
  superinstruction fusion — one dispatch, typed guard, compare, branch);
* ``GET_PROP`` / ``SET_PROP`` at a site a record persisted exactly one
  ``site_slots`` slot for, with a ``load_field`` / ``store_field``
  handler, become ``GET_PROP_SLOT`` / ``SET_PROP_SLOT``: direct-offset
  accesses guarded by one hidden-class identity check.  The offset is
  that handler's, the one RIC preloads into the slot the typed op
  guards on; the original name operand is parked beside it in the
  clone's ``spec_table`` for deopt.  Stores to ``prototype`` stay
  generic.

Arithmetic profiles come from the records' merged ``site_feedback``
(:func:`merge_site_feedback`), and a tombstone there keeps any site,
arithmetic or property, generic.

The rewrite is strictly 1:1 and in place: instruction count, pcs, jump
targets, source positions and feedback-slot numbering are all preserved,
which is what makes the run-time deopt a single-element patch.  Shared
pools (names, positions, feedback_slots) are aliased, not copied; the
instruction list is fresh wherever a typed opcode landed (it is the one
thing deopt mutates).  A tree with nothing to specialize is returned
unchanged — callers can compare identity to detect a no-op.

Quickened clones never enter the bytecode disk cache or an artifact;
each belongs to the one session that made it, rebuilt from (cached
code, records) every run, so a deopt patches no other run's program.
"""

from __future__ import annotations

import typing

from repro.bytecode.code import CodeObject
from repro.bytecode.opcodes import BinOp, BinOps, Op, Ops
from repro.ric.icrecord import FEEDBACK_ARITH, FEEDBACK_INT, SiteFeedback
from repro.specialize.feedback import (
    ARITH_BINOPS,
    CMP_BINOPS,
    NUMERIC_MASK,
    arith_site_key,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.ric.icrecord import ICRecord

#: Every opcode the quickening pass can emit.
TYPED_OPS = frozenset(
    (
        int(Op.ADD_INT),
        int(Op.ADD_NUM),
        int(Op.SUB_NUM),
        int(Op.MUL_NUM),
        int(Op.CMP_INT_JUMP_IF_FALSE),
        int(Op.CMP_INT_JUMP_IF_TRUE),
        int(Op.CMP_NUM_JUMP_IF_FALSE),
        int(Op.CMP_NUM_JUMP_IF_TRUE),
        int(Op.GET_PROP_SLOT),
        int(Op.SET_PROP_SLOT),
    )
)

#: Typed opcode -> the generic opcode its deopt patches back in.  (The
#: prop ops additionally restore their name operand from ``spec_table``;
#: see the VM's deopt helpers.)
GENERIC_FORM: dict[int, int] = {
    int(Op.ADD_INT): int(Op.BINARY),
    int(Op.ADD_NUM): int(Op.BINARY),
    int(Op.SUB_NUM): int(Op.BINARY),
    int(Op.MUL_NUM): int(Op.BINARY),
    int(Op.CMP_INT_JUMP_IF_FALSE): int(Op.CMP_JUMP_IF_FALSE),
    int(Op.CMP_INT_JUMP_IF_TRUE): int(Op.CMP_JUMP_IF_TRUE),
    int(Op.CMP_NUM_JUMP_IF_FALSE): int(Op.CMP_JUMP_IF_FALSE),
    int(Op.CMP_NUM_JUMP_IF_TRUE): int(Op.CMP_JUMP_IF_TRUE),
    int(Op.GET_PROP_SLOT): int(Op.GET_PROP),
    int(Op.SET_PROP_SLOT): int(Op.SET_PROP),
}

_NUM_ARITH_OP = {
    int(BinOp.ADD): int(Op.ADD_NUM),
    int(BinOp.SUB): int(Op.SUB_NUM),
    int(BinOp.MUL): int(Op.MUL_NUM),
}

_CMP_VARIANTS = {
    # generic fused op -> (INT variant, NUM variant)
    int(Op.CMP_JUMP_IF_FALSE): (
        int(Op.CMP_INT_JUMP_IF_FALSE),
        int(Op.CMP_NUM_JUMP_IF_FALSE),
    ),
    int(Op.CMP_JUMP_IF_TRUE): (
        int(Op.CMP_INT_JUMP_IF_TRUE),
        int(Op.CMP_NUM_JUMP_IF_TRUE),
    ),
}

_BINARY = int(Op.BINARY)
_GET_PROP = int(Op.GET_PROP)
_SET_PROP = int(Op.SET_PROP)
_GET_PROP_SLOT = int(Op.GET_PROP_SLOT)
_SET_PROP_SLOT = int(Op.SET_PROP_SLOT)

#: The only opcodes :func:`_rewrite` can replace; it passes over every
#: other instruction after one set probe.
_REWRITABLE_OPS = frozenset((_BINARY, _GET_PROP, _SET_PROP, *_CMP_VARIANTS))

#: Handler kind of a site's one persisted slot -> the generic op it lets
#: the pass rewrite, and that op's typed form.
_FIELD_OPS = {
    "load_field": (_GET_PROP, _GET_PROP_SLOT),
    "store_field": (_SET_PROP, _SET_PROP_SLOT),
}


def merge_site_feedback(
    records: "typing.Iterable[ICRecord]",
) -> dict[str, SiteFeedback]:
    """Union the feedback maps of several trusted records.

    Keys are globally unique (they embed file:line:col), so per-file
    records are disjoint by construction; on a genuine collision a
    tombstone wins — a site any record demoted stays demoted.
    """
    merged: dict[str, SiteFeedback] = {}
    for record in records:
        for key, fb in record.site_feedback.items():
            if fb.mega or key not in merged:
                merged[key] = fb
    return merged


def _field_sites(
    records: "typing.Iterable[ICRecord]",
) -> dict[str, tuple[int, int, int]]:
    """``site key -> (generic op, typed op, offset)`` for every site a
    record persisted exactly one ``load_field``/``store_field`` slot for.

    Where two records hold such a slot for one site, the first wins.
    """
    fields: dict[str, tuple[int, int, int]] = {}
    for record in records:
        handlers = record.handlers
        for key, slots in record.site_slots.items():
            if len(slots) == 1 and key not in fields:
                handler = handlers[slots[0].handler_id]
                ops = _FIELD_OPS.get(handler["kind"])
                if ops is not None:
                    fields[key] = (*ops, handler["offset"])
    return fields


def _arith_replacement(binop: int, mask: int) -> int | None:
    if not mask or mask & ~NUMERIC_MASK:
        return None
    if binop == BinOps.ADD and not mask & ~FEEDBACK_INT:
        return int(Ops.ADD_INT)
    return _NUM_ARITH_OP.get(binop)


def _rewrite(
    code: CodeObject,
    feedback: dict[str, SiteFeedback],
    fields: dict[str, tuple[int, int, int]],
) -> "tuple[list[tuple[int, int, int]] | None, list[tuple[int, int]], int]":
    """One code object's rewritten instruction list (None if untouched),
    its spec table, and the number of sites specialized."""
    new_instructions: list[tuple[int, int, int]] | None = None
    spec_table: list[tuple[int, int]] = []
    count = 0
    slots = code.feedback_slots
    for pc, (op, a, b) in enumerate(code.instructions):
        if op not in _REWRITABLE_OPS:
            continue
        replacement: tuple[int, int, int] | None = None
        if op == _BINARY:
            if a not in ARITH_BINOPS:
                continue
            fb = feedback.get(arith_site_key(code, pc))
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_ARITH
                and fb.op == a
            ):
                typed = _arith_replacement(a, fb.types)
                if typed is not None:
                    replacement = (typed, a, b)
        elif op in _CMP_VARIANTS:
            if b not in CMP_BINOPS:
                continue
            fb = feedback.get(arith_site_key(code, pc))
            if (
                fb is not None
                and not fb.mega
                and fb.kind == FEEDBACK_ARITH
                and fb.op == b
                and fb.types
                and not fb.types & ~NUMERIC_MASK
            ):
                int_only = not fb.types & ~FEEDBACK_INT
                replacement = (_CMP_VARIANTS[op][0 if int_only else 1], a, b)
        else:  # GET_PROP / SET_PROP
            site_key = slots[b].site_key
            field = fields.get(site_key)
            if (
                field is not None
                and field[0] == op
                # A record tombstoned the site (a property site's
                # feedback is only ever a tombstone).
                and site_key not in feedback
                # Prototype stores invalidate constructor hidden classes;
                # the typed store skips that check, so never specialize
                # them (the plain SET_PROP stays).
                and not (op == _SET_PROP and code.names[a] == "prototype")
            ):
                spec_table.append((a, field[2]))
                replacement = (field[1], len(spec_table) - 1, b)
        if replacement is not None:
            if new_instructions is None:
                new_instructions = list(code.instructions)
            new_instructions[pc] = replacement
            count += 1
    return new_instructions, spec_table, count


def quicken_code(
    code: CodeObject, records: "typing.Sequence[ICRecord]"
) -> "tuple[CodeObject, int]":
    """Quicken a code tree against the run's trusted records for it.

    Returns ``(quickened clone, sites specialized)``; the original tree
    is returned (count 0 possible per subtree) whenever nothing applies,
    and is never mutated.
    """
    feedback = merge_site_feedback(records)
    fields = _field_sites(records)
    if not feedback and not fields:
        return code, 0
    total = 0

    def walk(node: CodeObject) -> CodeObject:
        nonlocal total
        new_instructions, spec_table, count = _rewrite(node, feedback, fields)
        new_constants: list[object] | None = None
        for index, constant in enumerate(node.constants):
            if isinstance(constant, CodeObject):
                quickened = walk(constant)
                if quickened is not constant:
                    if new_constants is None:
                        new_constants = list(node.constants)
                    new_constants[index] = quickened
        if count == 0 and new_constants is None:
            return node
        total += count
        return CodeObject(
            name=node.name,
            filename=node.filename,
            params=node.params,
            position=node.position,
            # A fresh list only where a typed op landed: deopt patches
            # instruction lists in place, and only lists that hold typed
            # ops can ever be patched.
            instructions=(
                new_instructions
                if new_instructions is not None
                else node.instructions
            ),
            positions=node.positions,
            constants=(
                new_constants if new_constants is not None else node.constants
            ),
            names=node.names,
            local_names=node.local_names,
            feedback_slots=node.feedback_slots,
            decl_key=node.decl_key,
            spec_table=spec_table,
        )

    quickened = walk(code)
    return quickened, total


def count_specialized_sites(code: CodeObject) -> int:
    """How many typed opcodes a (possibly quickened) tree currently holds.

    Counts live sites only: a deopt patch removes the typed opcode, so
    re-counting after a run shows the surviving specialization degree.
    """
    return sum(
        1
        for node in code.iter_code_objects()
        for op, _, _ in node.instructions
        if op in TYPED_OPS
    )
