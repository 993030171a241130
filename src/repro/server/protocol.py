"""The ricd wire protocol: length-prefixed JSON frames over a stream socket.

A frame is a 4-byte big-endian unsigned length followed by exactly that
many bytes of UTF-8 JSON::

    +----------------+---------------------------+
    | length (u32 BE)| JSON body (length bytes)  |
    +----------------+---------------------------+

The framing is transport-agnostic: the same v1 frames flow over a unix
domain socket (one box) or a TCP connection (a record-store fleet); see
:func:`parse_endpoint` for how an endpoint spec selects the transport.

Requests carry ``{"v": PROTOCOL_VERSION, "op": <verb>, ...}``; responses
``{"v": ..., "ok": true, ...}`` or ``{"v": ..., "ok": false, "error":
"..."}``.  The verbs:

``GET``
    ``{"key": [filename, source_hash, record_format_version]}`` →
    ``{"ok": true, "hit": true, "envelope": {...}}`` or ``hit: false``.
    The envelope is the one the ``PUT`` carried: the *same checksummed
    envelope* the on-disk store uses, payload text and all
    (:func:`repro.ric.serialize.record_to_envelope`), so integrity
    travels end-to-end: the client re-verifies checksum + structure.
``PUT``
    ``{"key": [...], "envelope": {...}}`` → ``{"ok": true, "stored":
    true, "evicted": n}``.  The daemon admits the envelope only through
    :func:`~repro.ric.serialize.record_from_envelope` (checksum and one
    :func:`~repro.ric.validate.validate_record` pass); a failing record
    is refused (``stored: false``), counted, and never served.
``STAT``
    ``{}`` → ``{"ok": true, "cache": {...}, "store": {...}}`` — LRU
    counters plus the backing store's
    :meth:`~repro.ric.store.RecordStore.status`.
``EVICT``
    ``{"key": [...]}`` or ``{"all": true}`` → ``{"ok": true,
    "evicted": n}``.
``EVICT_EPOCH``
    ``{"epoch": n}`` → ``{"ok": true, "epoch": n', "evicted": m}``.
    Fleet-wide invalidation: raises the daemon's epoch to ``n`` (if
    higher) and drops every record admitted under an older epoch, in
    memory *and* in the write-through store — a record is a bundle of
    code + execution state and must die with its code.

Epoch gossip: ``GET``/``PUT`` requests may carry ``"epoch": n`` (the
client's known fleet epoch) and every response echoes the daemon's
current ``"epoch"``; either side seeing a higher epoch adopts it, so a
shard that missed an ``EVICT_EPOCH`` broadcast self-invalidates on the
first request from an up-to-date client, and a client that talked to an
up-to-date shard refuses stale hits from a lagging replica.

Both sides treat every inbound frame as hostile: oversized lengths,
short reads, non-JSON bodies, and schema surprises all raise the single
typed :class:`ProtocolError` (server: error response + connection close;
client: fall back to the local store).
"""

from __future__ import annotations

import json
import socket
import struct

#: Bump when the frame schema changes; both sides refuse other versions.
#: (New *verbs* and optional fields do not bump it — an old daemon
#: answers an unknown verb with a clean error the client counts as a
#: ``proto_mismatch``, which is what makes mixed-fleet rolling upgrades
#: safe.)
PROTOCOL_VERSION = 1

#: Upper bound on one frame's body.  Generous for ICRecords (the §7.3
#: overhead benchmark puts them in the tens of KB) while bounding what a
#: garbage length prefix can make either side allocate.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: The verbs the daemon understands.
VERBS = ("GET", "PUT", "STAT", "EVICT", "EVICT_EPOCH", "PING")


class ProtocolError(Exception):
    """Any violation of the frame format or message schema."""


# -- endpoints ---------------------------------------------------------------
#
# One spec grammar covers both transports, so every CLI flag, config knob
# and ring entry is just a string:
#
#   ``tcp://HOST:PORT``   explicit TCP
#   ``unix://PATH``       explicit unix socket
#   ``HOST:PORT``         TCP, when PORT is all digits and the spec has
#                         no path separator (bare paths win ambiguity)
#   anything else         a unix socket path


def parse_endpoint(spec) -> "tuple[str, object]":
    """Classify an endpoint spec: ``("tcp", (host, port))`` or
    ``("unix", path)``.  Raises :class:`ProtocolError` on a malformed
    explicit ``tcp://`` spec."""
    text = str(spec)
    if text.startswith("tcp://"):
        host, sep, port = text[len("tcp://"):].rpartition(":")
        if not sep or not port.isdigit():
            raise ProtocolError(f"malformed tcp endpoint {text!r}")
        return ("tcp", (host or "127.0.0.1", int(port)))
    if text.startswith("unix://"):
        return ("unix", text[len("unix://"):])
    host, sep, port = text.rpartition(":")
    if sep and host and port.isdigit() and "/" not in text and "\\" not in text:
        return ("tcp", (host, int(port)))
    return ("unix", text)


def format_endpoint(kind: str, address) -> str:
    """Render a parsed endpoint back to its canonical dialable spec."""
    if kind == "tcp":
        host, port = address[0], address[1]
        return f"{host}:{port}"
    return str(address)


def connect_endpoint(spec, timeout_s: float | None = None) -> socket.socket:
    """Dial an endpoint spec; returns a connected stream socket with the
    timeout applied.  ``OSError`` propagates (the client's degradation
    ladder owns transport trouble)."""
    kind, address = parse_endpoint(spec)
    if kind == "tcp":
        return socket.create_connection(address, timeout=timeout_s)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout_s)
        sock.connect(str(address))
    except BaseException:
        # Never leak the half-made socket: a refused connect must not
        # cost a file descriptor.
        sock.close()
        raise
    return sock


def cache_key(filename: str, src_hash: str, version: int) -> str:
    """The daemon-side cache key for one record.

    ``(filename, source_hash)`` is the store identity; the record format
    version rides along so engines speaking different ICRecord formats
    can share one daemon without ever deserializing each other's bytes.
    """
    return f"{filename}:{src_hash}:v{version}"


def key_fields(message: dict) -> tuple[str, str, int]:
    """Extract and schema-check the ``key`` triple of a request."""
    key = message.get("key")
    if (
        not isinstance(key, (list, tuple))
        or len(key) != 3
        or not isinstance(key[0], str)
        or not isinstance(key[1], str)
        or not isinstance(key[2], int)
        or isinstance(key[2], bool)
    ):
        raise ProtocolError(f"malformed key {key!r}")
    return key[0], key[1], key[2]


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds limit")
    return _LENGTH.pack(len(body)) + body


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ProtocolError`.

    A clean EOF at a frame boundary returns ``b""`` only via
    :func:`read_frame`; EOF *inside* a frame is a protocol violation.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on clean EOF before any length byte.

    Raises :class:`ProtocolError` for truncation, oversized lengths,
    undecodable bodies, or a non-object payload.  ``socket.timeout`` and
    ``OSError`` propagate — transport trouble is the caller's concern
    (the client's degradation ladder, the server's per-connection guard).
    """
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exactly(sock, _LENGTH.size - 1)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = _recv_exactly(sock, length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


def write_frame(sock: socket.socket, message: dict) -> None:
    """Serialize and send one message."""
    sock.sendall(encode_frame(message))


def check_version(message: dict) -> None:
    """Refuse messages from a different protocol version."""
    if message.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {message.get('v')!r} "
            f"(expected {PROTOCOL_VERSION})"
        )


def request(op: str, **fields) -> dict:
    """Build a request message."""
    return {"v": PROTOCOL_VERSION, "op": op, **fields}


def ok_response(**fields) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": True, **fields}


def error_response(error: str) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "error": error}
