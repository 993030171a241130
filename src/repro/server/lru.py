"""A thread-safe LRU bounded by entry count *and* total payload bytes.

The daemon's serving tier: envelopes, as ``PUT`` carried them (a small
dict around one payload string), keyed by
:func:`repro.server.protocol.cache_key`.  Both bounds matter — record count
keeps the key space sane, byte budget keeps a few huge records from
evicting everything else.  Eviction is strictly least-recently-used (gets
and puts both refresh recency); evicted entries survive in the daemon's
write-through disk store, so eviction costs a re-load, never data.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUCache:
    """Byte- and count-bounded LRU over ``(envelope, nbytes)`` entries."""

    def __init__(self, max_records: int = 256, max_bytes: int = 64 * 1024 * 1024):
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_records = max_records
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, tuple[dict, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: str, envelope: dict, nbytes: int) -> int:
        """Insert/refresh an entry; returns how many entries were evicted.

        An entry larger than the whole byte budget is refused outright
        (returns -1) rather than evicting the entire cache for nothing.
        """
        if nbytes > self.max_bytes:
            return -1
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes_used -= old[1]
            self._entries[key] = (envelope, nbytes)
            self.bytes_used += nbytes
            evicted = 0
            while (
                len(self._entries) > self.max_records
                or self.bytes_used > self.max_bytes
            ):
                _, (_, freed) = self._entries.popitem(last=False)
                self.bytes_used -= freed
                self.evictions += 1
                evicted += 1
            return evicted

    def evict(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self.bytes_used -= entry[1]
            self.evictions += 1
            return True

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.bytes_used = 0
            self.evictions += count
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "records": len(self._entries),
                "bytes": self.bytes_used,
                "max_records": self.max_records,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
