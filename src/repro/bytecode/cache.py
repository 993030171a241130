"""Code cache: persist compiled bytecode across executions (paper §8.1).

V8 lets the host cache the bytecode result of parsing+compiling a script so
that re-executions skip the frontend entirely; both the paper's Conventional
and RIC configurations run on top of this.  Our cache keys
:class:`~repro.bytecode.code.CodeObject` trees by the script's filename and
a content hash, and can round-trip them through disk as one ``marshal``
entry per script.  ``marshal`` is only safe for trusted data: the engine
writes the cache directory and reads it back on the same host, the trust
model of CPython's ``.pyc`` files.  ICRecords, which cross process and host
boundaries, keep their checksummed JSON.  An entry that does not decode to
the expected shape is a cache miss, never an error.

Within one entry, equal instruction and position tuples are written as one
shared object, so ``marshal`` stores the repeats as back-references and a
load builds each distinct tuple once.  That keeps a page load's allocations
(and with them CPython's cyclic-GC collections) down; tuples are immutable,
so nothing that reads the code can tell a shared one from a copy.
"""

from __future__ import annotations

import hashlib
import marshal
import threading
from itertools import chain
from pathlib import Path

from repro.bytecode.code import CodeObject, FeedbackSlotInfo, SiteKind
from repro.lang.errors import SourcePosition

#: Bump when the serialized form changes; mismatching entries are ignored.
#: v5: the optimizer emits fused superinstructions, so cached streams
#: from earlier versions would execute unfused and skew dispatch counts.
#: v6: one ``marshal`` blob per script replaces the JSON entry.
CACHE_FORMAT_VERSION = 6

#: ``marshal`` format the entries are written in.  Pinned, so that a newer
#: Python writes entries that an older one can still read.
MARSHAL_VERSION = 4

_SITE_KINDS = {kind.value: kind for kind in SiteKind}
_SCALAR_CONSTANTS = (float, str)


def source_hash(source: str) -> str:
    """Content hash used to key and invalidate cache entries."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def _position(position: SourcePosition) -> tuple:
    return (position.filename, position.line, position.column)


def _shared(items: list[tuple], table: dict) -> list[tuple]:
    """``items`` with every tuple replaced by the first equal one in
    ``table``, the entry's intern table (``marshal`` back-references only
    reach within one ``dumps``).  Only lists of exact-int tuples share:
    dict keys merge ``True`` with ``1`` and ``-0.0`` with ``0.0``, so any
    other list is written as it is."""
    if not set(map(type, chain.from_iterable(items))) <= {int}:
        return items
    return [table.setdefault(item, item) for item in items]


def _code_to_tuple(code: CodeObject, table: dict) -> tuple:
    """A fixed-arity tuple in :class:`CodeObject` field order.  The list
    fields stay lists (instructions and positions of ``(op, a, b)`` and
    ``(line, col)`` tuples, equal ones shared through ``table``), which
    ``marshal`` rebuilds as fresh lists."""
    return (
        code.name, code.filename, code.params, _position(code.position),
        _shared(code.instructions, table), _shared(code.positions, table),
        tuple(
            _code_to_tuple(constant, table) if isinstance(constant, CodeObject) else constant
            for constant in code.constants
        ),
        code.names, code.local_names,
        tuple(
            (slot.kind._value_, *_position(slot.position), slot.name)
            for slot in code.feedback_slots
        ),
        code.decl_key,
    )


def _code_from_tuple(data: tuple) -> CodeObject:
    if type(data) is not tuple:
        raise TypeError(f"not a code tuple: {type(data).__name__}")
    (name, filename, params, position, instructions, positions, constants,
     names, local_names, slots, decl_key) = data
    return CodeObject(
        name, filename, params, SourcePosition(*position), instructions, positions,
        [c if type(c) in _SCALAR_CONSTANTS else _code_from_tuple(c) for c in constants],
        names, local_names,
        [
            FeedbackSlotInfo(_SITE_KINDS[kind], SourcePosition(file, line, column), slot_name)
            for kind, file, line, column, slot_name in slots
        ],
        decl_key,
    )


def encode_entry(key: str, code: CodeObject) -> bytes:
    """Serialize one script's code tree (recursively) as a cache entry."""
    return marshal.dumps((CACHE_FORMAT_VERSION, key, _code_to_tuple(code, {})), MARSHAL_VERSION)


def decode_entry(data: bytes, key: str) -> CodeObject | None:
    """Inverse of :func:`encode_entry`; ``None`` for an entry that is
    unreadable, truncated, of another format version, stored under
    another key or of the wrong shape."""
    try:
        version, stored_key, code = marshal.loads(data)
        if version == CACHE_FORMAT_VERSION and stored_key == key:
            return _code_from_tuple(code)
    except (EOFError, ValueError, TypeError, KeyError):
        pass
    return None


class CodeCache:
    """In-memory code cache with optional disk persistence.

    The cache models the V8 host API: the embedder asks for a script's
    compiled form; on a hit the frontend is skipped.  ``hits``/``misses``
    are exposed so benchmarks can assert the Reuse run never re-compiles.
    With a ``cache_dir``, every stored script is also written there as one
    :func:`encode_entry` blob and read back by later caches on a miss.

    Thread-safety contract: the cache is shared by every concurrent
    :class:`~repro.core.session.RunSession` of an engine, so lookups,
    insertions and the hit/miss counters are atomic under one lock.  The
    cached :class:`~repro.bytecode.code.CodeObject` trees themselves are
    immutable after the optimizer runs (the VM threads them into
    per-VM caches, never in place), so handing one instance to many
    sessions is safe.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self._entries: dict[str, CodeObject] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        if self._cache_dir is not None:
            self._cache_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _key(filename: str, source: str) -> str:
        return f"{filename}:{source_hash(source)}"

    def lookup(self, filename: str, source: str) -> CodeObject | None:
        """Return the cached code for (filename, source) or None."""
        key = self._key(filename, source)
        with self._lock:
            code = self._entries.get(key)
            if code is None and self._cache_dir is not None:
                code = self._load_from_disk(key)
                if code is not None:
                    self._entries[key] = code
            if code is None:
                self.misses += 1
                return None
            self.hits += 1
            return code

    def note_hit(self) -> None:
        """Count a frontend-skip served *above* this cache.

        The :class:`~repro.core.artifacts.ArtifactCache` satisfies warm
        requests without consulting the code cache at all; it reports them
        here so ``hits``/``misses`` keep meaning "runs that skipped the
        frontend" exactly as before the artifact layer existed.
        """
        with self._lock:
            self.hits += 1

    def store(self, filename: str, source: str, code: CodeObject) -> None:
        key = self._key(filename, source)
        with self._lock:
            self._entries[key] = code
            if self._cache_dir is not None:
                self._disk_path(key).write_bytes(encode_entry(key, code))

    # -- disk persistence ----------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self._cache_dir is not None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return self._cache_dir / f"{digest}.jslcache.v{CACHE_FORMAT_VERSION}"

    def _load_from_disk(self, key: str) -> CodeObject | None:
        try:
            data = self._disk_path(key).read_bytes()
        except OSError:
            return None
        return decode_entry(data, key)
