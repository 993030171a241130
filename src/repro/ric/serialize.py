"""ICRecord persistence: JSON serialization, disk round-trip, integrity.

The ICRecord is the artifact RIC persists between executions — unlike the
snapshot approach the paper compares against (§9), it is per-script, can be
shared between applications, and contains no heap state, so it stays valid
under nondeterministic initialization.

Because a *later* execution acts on this artifact, the on-disk and wire
form is a hardened envelope around the payload text (:func:`payload_text`)::

    {"checksum": "<sha256 of the payload text>",
     "record": "{\"version\":8,\"script_keys\":[...],...}"}

* the **checksum**, checked before the text is parsed, rejects
  truncation, bit-flips, and any hand-edit;
* the **format version** (inside the payload, covered by the checksum)
  rejects records written by an incompatible engine;
* :func:`record_from_json` re-raises every structural surprise as one
  typed :class:`~repro.ric.errors.RecordFormatError`;
* loaded records additionally pass
  :func:`~repro.ric.validate.check_record` before being returned.

Writes go through :func:`~repro.ric.atomicio.atomic_write_text`, so a
crash mid-save leaves the previous record intact rather than a prefix of
the new one.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.ric.atomicio import atomic_write_text
from repro.ric.errors import CorruptRecord, RecordFormatError
from repro.ric.icrecord import (
    FEEDBACK_ARITH,
    FEEDBACK_PROP_LOAD,
    FEEDBACK_PROP_STORE,
    ICRecord,
    SiteFeedback,
    SiteSlot,
    ToastPair,
)
from repro.ric.validate import check_record

#: Bump when the on-disk format changes.  v3: integrity envelope
#: (payload checksum) and structural validation on load.  v4: per-site
#: ordered slot sets (``site_slots``) — persisted polymorphic ICVector
#: state, ``site_key -> [[hcid, handler_id], ...]`` capped at POLY_LIMIT.
#: v5: per-site type feedback (``site_feedback``) — spent by the
#: quickening pass.  v6: ``site_slots`` is the one link table; HCVT rows
#: no longer repeat each link as ``dependents``.  v7: the HCVT is a row
#: count plus its rows with context-dependent sites, and the envelope
#: checksums the payload text.  v8: a property site quickens on its one
#: ``site_slots`` slot, so ``site_feedback`` holds arithmetic profiles
#: and tombstones only.  Older records are refused like any other
#: version mismatch and re-extracted.  A ``site_feedback`` value is a
#: short list (kinds are small ints on the wire: 0=arith, 1=prop_load,
#: 2=prop_store): ``[k]`` is a kind-``k`` tombstone and ``[0, op,
#: types]`` an arith entry.
ICRECORD_FORMAT_VERSION = 8

#: Wire encoding of feedback kinds (strings in memory, ints on disk).
_FEEDBACK_KIND_TO_WIRE = {
    FEEDBACK_ARITH: 0,
    FEEDBACK_PROP_LOAD: 1,
    FEEDBACK_PROP_STORE: 2,
}
_WIRE_TO_FEEDBACK_KIND = {v: k for k, v in _FEEDBACK_KIND_TO_WIRE.items()}


def _feedback_to_wire(fb: SiteFeedback) -> list:
    """Compact wire form of one feedback entry."""
    kind = _FEEDBACK_KIND_TO_WIRE.get(fb.kind)
    if kind is None:
        # Unknown kind: keep a self-describing tuple so the round trip
        # stays lossless; validate_record is the wall that rejects it,
        # not the serializer.
        return [fb.kind, fb.op, fb.types, fb.mega]
    if fb.mega:
        return [kind]
    return [kind, fb.op, fb.types]


def _feedback_from_wire(entry: list) -> SiteFeedback:
    """Inverse of :func:`_feedback_to_wire` (raises on malformed shapes).

    A property entry that is not a tombstone decodes as one, and
    :func:`~repro.ric.validate.validate_record` refuses it.
    """
    head = entry[0]
    if isinstance(head, str):
        kind, op, types, mega = entry
        return SiteFeedback(kind, op, types, bool(mega))
    kind = _WIRE_TO_FEEDBACK_KIND[head]
    if len(entry) == 1:
        return SiteFeedback(kind=kind, mega=True)
    # Positional (kind, op, types): the decoder builds thousands of these
    # per page, and keywords cost a quarter more.
    _, op, types = entry
    return SiteFeedback(kind, op, types)


def _list(value, what: str) -> list:
    """A copy of a list the payload holds; anything else is refused
    (``list()`` would turn a string into its characters)."""
    if not isinstance(value, list):
        raise RecordFormatError(
            f"{what} must be a list, got {type(value).__name__}"
        )
    return list(value)


def record_to_json(record: ICRecord) -> dict:
    """Serialize an ICRecord to JSON-compatible plain data (the payload)."""
    return {
        "version": ICRECORD_FORMAT_VERSION,
        "script_keys": record.script_keys,
        "hidden_classes": record.num_hidden_classes,
        "cd_dependent_sites": [
            [hcid, keys] for hcid, keys in sorted(record.cd_dependent_sites.items())
        ],
        "toast": {
            key: [
                [pair.incoming_hcid, pair.transition_property, pair.outgoing_hcid]
                for pair in pairs
            ]
            for key, pairs in record.toast.items()
        },
        # Copied, not aliased: callers legitimately mutate payloads (fault
        # injectors, envelope extras) and must never reach back into the
        # live record through the serialized form.
        "handlers": [dict(handler) for handler in record.handlers],
        "site_slots": {
            site_key: [[slot.hcid, slot.handler_id] for slot in slots]
            for site_key, slots in record.site_slots.items()
        },
        "site_feedback": {
            key: _feedback_to_wire(fb) for key, fb in record.site_feedback.items()
        },
        "extraction_time_ms": record.extraction_time_ms,
    }


def record_from_json(data: dict) -> ICRecord:
    """Inverse of :func:`record_to_json`.

    Any structural surprise — wrong version, missing key, wrong type,
    wrong arity — raises :class:`RecordFormatError`, never a bare
    ``KeyError``/``TypeError``, so callers have one exception to catch.
    """
    if not isinstance(data, dict):
        raise RecordFormatError(f"ICRecord payload must be a dict, got {type(data).__name__}")
    if data.get("version") != ICRECORD_FORMAT_VERSION:
        raise RecordFormatError(
            f"unsupported ICRecord version {data.get('version')!r} "
            f"(expected {ICRECORD_FORMAT_VERSION})"
        )
    try:
        # Entries are built positionally, in dataclass field order (see
        # _feedback_from_wire).
        record = ICRecord(
            _list(data["script_keys"], "script_keys"), data["hidden_classes"]
        )
        for hcid, keys in data["cd_dependent_sites"]:
            if hcid in record.cd_dependent_sites:
                raise RecordFormatError(f"cd_dependent_sites repeats hcid {hcid!r}")
            record.cd_dependent_sites[hcid] = _list(
                keys, f"cd_dependent_sites[{hcid!r}]"
            )
        record.toast = {
            key: [
                ToastPair(incoming, prop, outgoing)
                for incoming, prop, outgoing in pairs
            ]
            for key, pairs in data["toast"].items()
        }
        record.handlers = [dict(handler) for handler in data["handlers"]]
        record.site_slots = {
            site_key: [SiteSlot(hcid, handler_id) for hcid, handler_id in slots]
            for site_key, slots in data["site_slots"].items()
        }
        record.site_feedback = {
            key: _feedback_from_wire(entry)
            for key, entry in data["site_feedback"].items()
        }
        record.extraction_time_ms = float(data.get("extraction_time_ms", 0.0))
    except RecordFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise RecordFormatError(
            f"malformed ICRecord payload: {type(exc).__name__}: {exc}"
        ) from exc
    return record


def payload_text(payload: dict) -> str:
    """The payload as an envelope carries it: compact JSON, ASCII."""
    return json.dumps(payload, separators=(",", ":"))


def payload_checksum(text: str) -> str:
    """SHA-256 of a record's payload text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_to_envelope(record: ICRecord, extra: dict | None = None) -> dict:
    """Wrap a record's payload text in the checksummed on-disk envelope.

    ``extra`` adds sibling fields (e.g. the store's ``"key"``) that live
    outside the checksum — they are addressing, not trusted content.
    """
    text = payload_text(record_to_json(record))
    envelope = dict(extra or {})
    envelope["checksum"] = payload_checksum(text)
    envelope["record"] = text
    return envelope


def record_from_envelope(data: dict) -> ICRecord:
    """Verify and unwrap an envelope: checksum, version, structure.

    Raises :class:`RecordFormatError` on any integrity or format failure.
    """
    if not isinstance(data, dict):
        raise RecordFormatError(
            f"ICRecord envelope must be a dict, got {type(data).__name__}"
        )
    if "record" not in data or "checksum" not in data:
        raise RecordFormatError("ICRecord envelope missing 'record'/'checksum'")
    text = data["record"]
    if not isinstance(text, str) or not text.isascii():  # v6 held an object
        raise RecordFormatError("ICRecord envelope 'record' must be payload text")
    expected = data["checksum"]
    actual = payload_checksum(text)
    if expected != actual:
        raise RecordFormatError(
            f"ICRecord checksum mismatch (stored {str(expected)[:12]!r}..., "
            f"computed {actual[:12]!r}...)"
        )
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise RecordFormatError(f"ICRecord payload is not valid JSON: {exc}") from exc
    return check_record(record_from_json(payload))


def record_size_bytes(record: ICRecord) -> int:
    """Payload text size, as stored and sent — the paper §7.3 metric."""
    return len(payload_text(record_to_json(record)))


def save_icrecord(record: ICRecord, path: str | Path) -> None:
    """Persist an ICRecord to disk atomically (tmpfile + ``os.replace``)."""
    atomic_write_text(path, json.dumps(record_to_envelope(record)))


def load_icrecord(path: str | Path) -> ICRecord:
    """Load a previously saved ICRecord, verifying integrity and structure.

    Raises :class:`RecordFormatError` for every corruption mode (bad JSON,
    bad checksum, wrong version, structural damage).  ``OSError`` still
    propagates for genuinely missing/unreadable files.
    """
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise RecordFormatError(f"ICRecord is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise RecordFormatError(f"ICRecord is not valid JSON: {exc}") from exc
    return record_from_envelope(data)


def try_load_icrecord(path: str | Path) -> "ICRecord | CorruptRecord":
    """Degrading load: a corrupt or unreadable record becomes a
    :class:`CorruptRecord` placeholder instead of raising.

    ``Engine.run`` accepts the placeholder and cold-starts that one
    record while the rest of the page still reuses.
    """
    try:
        return load_icrecord(path)
    except (OSError, RecordFormatError) as exc:
        return CorruptRecord(source=str(path), error=str(exc))
