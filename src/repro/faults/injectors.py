"""Corruption injectors for persisted ICRecords.

Each injector takes the serialized on-disk bytes of a record (the
checksummed envelope written by :func:`repro.ric.serialize.save_icrecord`
or :meth:`repro.ric.store.RecordStore.put`) and returns a damaged
version.  Two families, matching the two defense layers:

* **byte-level** faults (truncation, bit flips, handler swaps *without*
  re-checksumming) model crashes and storage rot — the checksum layer
  must catch them;
* **semantic** faults re-dump the mutated payload text *with a fresh,
  correct checksum* (``_rewrap``) — they model records written by a buggy
  or incompatible engine, and only the structural validation layer
  (:func:`repro.ric.validate.validate_record` or the version gate) can
  catch them.

All injectors are deterministic given the supplied ``random.Random`` so
chaos runs are replayable from a seed.
"""

from __future__ import annotations

import json
import random
import typing

from repro.ric.serialize import payload_checksum, payload_text

#: Signature shared by every injector.
Injector = typing.Callable[[bytes, random.Random], bytes]


def _unwrap(data: bytes) -> "tuple[dict, dict]":
    """The envelope and its parsed payload."""
    envelope = json.loads(data.decode("utf-8"))
    if not isinstance(envelope, dict) or not isinstance(envelope.get("record"), str):
        raise ValueError("injector needs a well-formed envelope to mutate")
    return envelope, json.loads(envelope["record"])


def _rewrap(envelope: dict, payload: dict) -> bytes:
    """Re-dump a mutated payload with a *correct* checksum, so only
    structural validation can reject it."""
    envelope["record"] = payload_text(payload)
    envelope["checksum"] = payload_checksum(envelope["record"])
    return json.dumps(envelope).encode("utf-8")


def truncate(data: bytes, rng: random.Random) -> bytes:
    """Crash mid-write on a non-atomic filesystem: keep only a prefix."""
    if len(data) < 2:
        return b""
    return data[: rng.randrange(1, len(data))]


def flip_bits(data: bytes, rng: random.Random, count: int = 8) -> bytes:
    """Storage rot: flip ``count`` random bits anywhere in the file."""
    if not data:
        return data
    damaged = bytearray(data)
    for _ in range(count):
        position = rng.randrange(len(damaged))
        damaged[position] ^= 1 << rng.randrange(8)
    return bytes(damaged)


def handler_swap(data: bytes, rng: random.Random) -> bytes:
    """Swap two handler-store entries *without* fixing the checksum: the
    record still parses and is structurally plausible, but preloading it
    would install the wrong handler at a site — only the checksum layer
    stands between this fault and wrong program results."""
    envelope, payload = _unwrap(data)
    handlers = payload.get("handlers")
    if isinstance(handlers, list) and len(handlers) >= 2:
        first, second = rng.sample(range(len(handlers)), 2)
        handlers[first], handlers[second] = handlers[second], handlers[first]
    else:
        # Too few handlers to swap: smuggle in a context-dependent one.
        payload.setdefault("handlers", []).append(
            {"kind": "store_transition", "offset": 0}
        )
    envelope["record"] = payload_text(payload)
    return json.dumps(envelope).encode("utf-8")


def field_mutation(data: bytes, rng: random.Random) -> bytes:
    """A buggy writer: mutate one structural field and re-checksum, so
    only ``validate_record`` can reject the result."""
    envelope, payload = _unwrap(data)
    mutations = [
        lambda: payload.pop("cd_dependent_sites", None),
        lambda: payload.__setitem__("hidden_classes", "not-an-int"),
    ]
    if payload.get("handlers"):
        mutations.append(
            lambda: payload["handlers"][0].__setitem__("kind", "load_proto_chain")
        )
    mutations.append(lambda: payload.__setitem__("extraction_time_ms", -1.0))
    rng.choice(mutations)()
    return _rewrap(envelope, payload)


def stale_version(data: bytes, rng: random.Random) -> bytes:
    """A record from an older engine: version field behind the current
    format, checksum otherwise intact."""
    envelope, payload = _unwrap(data)
    payload["version"] = 1
    return _rewrap(envelope, payload)


def out_of_range_hcid(data: bytes, rng: random.Random) -> bytes:
    """A TOAST pair pointing past the HCVT's rows — would index out of
    bounds at validation time if trusted."""
    envelope, payload = _unwrap(data)
    toast = payload.get("toast") or {}
    rows = payload["hidden_classes"]
    for pairs in toast.values():
        if pairs:
            pairs[0][2] = rows + rng.randrange(1, 100)
            break
    else:
        payload["toast"] = {"builtin:EmptyObject": [[None, None, rows + 7]]}
    return _rewrap(envelope, payload)


def out_of_range_handler_id(data: bytes, rng: random.Random) -> bytes:
    """A ``site_slots`` link referencing a handler the store doesn't hold."""
    envelope, payload = _unwrap(data)
    num_handlers = len(payload.get("handlers") or [])
    bogus = num_handlers + rng.randrange(1, 100)
    site_slots = payload.get("site_slots")
    if isinstance(site_slots, dict) and site_slots:
        next(iter(site_slots.values()))[0][1] = bogus
    else:
        payload["site_slots"] = {"x.jsl:1:1:named_load": [[0, bogus]]}
    return _rewrap(envelope, payload)


#: Every fault class the chaos suite must prove harmless, by name.
FAULTS: dict[str, Injector] = {
    "truncation": truncate,
    "bit_flip": flip_bits,
    "field_mutation": field_mutation,
    "stale_version": stale_version,
    "handler_swap": handler_swap,
    "out_of_range_hcid": out_of_range_hcid,
    "out_of_range_handler_id": out_of_range_handler_id,
}


def inject_fault(path, fault: "str | Injector", rng: random.Random) -> None:
    """Corrupt the record file at ``path`` in place with ``fault``."""
    from pathlib import Path

    injector = FAULTS[fault] if isinstance(fault, str) else fault
    target = Path(path)
    target.write_bytes(injector(target.read_bytes(), rng))
