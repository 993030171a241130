"""Structural validation of ICRecords before they are trusted.

The serializer guarantees a record *parses*; this pass guarantees it is
*internally consistent* — the property the reuse machinery actually
relies on when it trusts hcids and indexes ``record.handlers``
unchecked on the hot path.  It runs on every load and again in
``Engine.run`` before any :class:`~repro.ric.reuse.ReuseSession` is
constructed, so a record that would index out of range, preload a
context-dependent handler, or reference a nonexistent row is rejected
*before* it can influence execution.

The checks are deliberately a flat linear scan (no allocation beyond the
problem list): the <10% load-overhead budget is asserted by
``benchmarks/test_validation_overhead.py``.
"""

from __future__ import annotations

from repro.ic.icvector import POLY_LIMIT
from repro.ric.errors import RecordFormatError
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_KINDS,
    FEEDBACK_TYPE_MASK,
    ICRecord,
)
from repro.bytecode.opcodes import BinOp

#: Schema of every handler kind that may legally appear in a persisted
#: handler store: kind -> required extra fields.  Context-dependent kinds
#: (store_transition, load_proto_chain, the global handlers, ...) are
#: absent on purpose — a record claiming to persist one is corrupt or
#: hostile, and preloading it could change program results.
REUSABLE_HANDLER_SCHEMAS: dict[str, tuple[str, ...]] = {
    "load_field": ("offset",),
    "store_field": ("offset",),
    "load_array_length": (),
    "load_element": (),
    "store_element": (),
}


def validate_record(record: ICRecord) -> list[str]:
    """Return every structural problem found (empty list = trustworthy)."""
    problems: list[str] = []

    if not isinstance(record.script_keys, list) or not all(
        isinstance(key, str) for key in record.script_keys
    ):
        problems.append("script_keys must be a list of strings")

    num_rows = record.num_hidden_classes
    if not isinstance(num_rows, int) or isinstance(num_rows, bool) or num_rows < 0:
        problems.append("num_hidden_classes must be a non-negative int")
        num_rows = 0
    num_handlers = len(record.handlers) if isinstance(record.handlers, list) else 0

    # -- handler store: every entry schema-checked against known kinds ------
    if isinstance(record.handlers, list):
        for handler_id, handler in enumerate(record.handlers):
            if not isinstance(handler, dict):
                problems.append(f"handler {handler_id} is not a dict")
                continue
            kind = handler.get("kind")
            required = (
                REUSABLE_HANDLER_SCHEMAS.get(kind)
                if isinstance(kind, str)
                else None
            )
            if required is None:
                problems.append(
                    f"handler {handler_id} has non-reusable kind {kind!r}"
                )
                continue
            for field_name in required:
                value = handler.get(field_name)
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    problems.append(
                        f"handler {handler_id} ({kind}) field "
                        f"{field_name!r} must be a non-negative int"
                    )
    else:
        problems.append("handlers must be a list")

    # -- HCVT: the rows that have context-dependent sites -------------------
    if isinstance(record.cd_dependent_sites, dict):
        for hcid, sites in record.cd_dependent_sites.items():
            if (
                not isinstance(hcid, int)
                or isinstance(hcid, bool)
                or not 0 <= hcid < num_rows
                or not isinstance(sites, list)
                or not sites
                or not all(isinstance(site_key, str) for site_key in sites)
            ):
                problems.append(
                    f"cd_dependent_sites[{hcid!r}] needs an hcid in [0, "
                    f"{num_rows}) and a non-empty list of site keys"
                )
    else:
        problems.append("cd_dependent_sites must be a dict")

    # -- TOAST: every pair references a valid row ---------------------------
    if isinstance(record.toast, dict):
        for key, pairs in record.toast.items():
            if not isinstance(key, str):
                problems.append(f"toast key {key!r} is not a string")
                continue
            for pair in pairs:
                if (
                    not isinstance(pair.outgoing_hcid, int)
                    or isinstance(pair.outgoing_hcid, bool)
                    or not 0 <= pair.outgoing_hcid < num_rows
                ):
                    problems.append(
                        f"toast {key!r} outgoing hcid {pair.outgoing_hcid!r} "
                        f"outside [0, {num_rows})"
                    )
                incoming = pair.incoming_hcid
                if incoming is not None and (
                    not isinstance(incoming, int)
                    or isinstance(incoming, bool)
                    or not 0 <= incoming < num_rows
                ):
                    problems.append(
                        f"toast {key!r} incoming hcid {incoming!r} "
                        f"outside [0, {num_rows})"
                    )
                if pair.transition_property is not None and not isinstance(
                    pair.transition_property, str
                ):
                    problems.append(
                        f"toast {key!r} transition property is not a string"
                    )
    else:
        problems.append("toast must be a dict")

    # -- site_slots, the link table: bounded, duplicate-free, in range -----
    if isinstance(record.site_slots, dict):
        for site_key, slots in record.site_slots.items():
            if not isinstance(site_key, str):
                problems.append(f"site_slots key {site_key!r} is not a string")
                continue
            if not isinstance(slots, list):
                problems.append(f"site_slots[{site_key!r}] is not a list")
                continue
            if not slots:
                problems.append(f"site_slots[{site_key!r}] is empty")
            if len(slots) > POLY_LIMIT:
                problems.append(
                    f"site_slots[{site_key!r}] holds {len(slots)} slots "
                    f"(POLY_LIMIT is {POLY_LIMIT})"
                )
            seen_hcids = set()
            for slot in slots:
                hcid = getattr(slot, "hcid", None)
                handler_id = getattr(slot, "handler_id", None)
                if (
                    not isinstance(hcid, int)
                    or isinstance(hcid, bool)
                    or not 0 <= hcid < num_rows
                ):
                    problems.append(
                        f"site_slots[{site_key!r}] hcid {hcid!r} "
                        f"outside [0, {num_rows})"
                    )
                else:
                    if hcid in seen_hcids:
                        problems.append(
                            f"site_slots[{site_key!r}] duplicates hcid {hcid}"
                        )
                    seen_hcids.add(hcid)
                if (
                    not isinstance(handler_id, int)
                    or isinstance(handler_id, bool)
                    or not 0 <= handler_id < num_handlers
                ):
                    problems.append(
                        f"site_slots[{site_key!r}] references handler "
                        f"{handler_id!r} outside [0, {num_handlers})"
                    )
    else:
        problems.append("site_slots must be a dict")

    # -- site_feedback: known kinds, legal masks, property tombstones only --
    if isinstance(record.site_feedback, dict):
        valid_ops = {int(op) for op in BinOp}
        for key, fb in record.site_feedback.items():
            if not isinstance(key, str):
                problems.append(f"site_feedback key {key!r} is not a string")
                continue
            kind = getattr(fb, "kind", None)
            if kind not in FEEDBACK_KINDS:
                problems.append(
                    f"site_feedback[{key!r}] has unknown kind {kind!r}"
                )
                continue
            if not isinstance(fb.mega, bool):
                problems.append(
                    f"site_feedback[{key!r}] mega flag is not a bool"
                )
            if fb.mega:
                continue  # tombstone: op/types are advisory
            if kind != FEEDBACK_ARITH:
                # A property site quickens on its one site_slots slot;
                # its feedback can only forbid that.
                problems.append(
                    f"site_feedback[{key!r}] ({kind}) must be a tombstone"
                )
                continue
            if (
                not isinstance(fb.op, int)
                or isinstance(fb.op, bool)
                or fb.op not in valid_ops
            ):
                problems.append(
                    f"site_feedback[{key!r}] has invalid BinOp {fb.op!r}"
                )
            if (
                not isinstance(fb.types, int)
                or isinstance(fb.types, bool)
                or fb.types <= 0
                or fb.types & ~FEEDBACK_TYPE_MASK
            ):
                problems.append(
                    f"site_feedback[{key!r}] type mask {fb.types!r} "
                    f"outside known bits"
                )
    else:
        problems.append("site_feedback must be a dict")

    if (
        not isinstance(record.extraction_time_ms, (int, float))
        or isinstance(record.extraction_time_ms, bool)
        or record.extraction_time_ms < 0
        or record.extraction_time_ms != record.extraction_time_ms  # NaN
    ):
        problems.append("extraction_time_ms must be a non-negative number")

    return problems


def check_record(record: ICRecord) -> ICRecord:
    """Raise :class:`RecordFormatError` unless ``record`` validates."""
    problems = validate_record(record)
    if problems:
        raise RecordFormatError(
            f"invalid ICRecord ({len(problems)} problems): " + "; ".join(problems[:5])
        )
    return record
