"""``HashRing`` — consistent-hash placement of records over a ricd fleet.

:class:`~repro.server.client.RemoteRecordStore` places each record's key
on this ring (SHA-1 points, virtual nodes so load stays even at small N)
and treats the first R distinct endpoints clockwise as its owners — the
**preference list**: PUTs fan out to all of them, GETs ask the primary
and fail over down the list.  One endpoint is a ring of one.
"""

from __future__ import annotations

import bisect
import hashlib


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Each endpoint contributes ``vnodes`` points (SHA-1 of
    ``"endpoint#i"``, first 8 bytes); a key hashes to a point and is
    owned by the next ``n`` *distinct* endpoints clockwise.  Virtual
    nodes keep arcs even for small fleets; consistent hashing keeps
    most keys in place when an endpoint joins or leaves (only the
    departed arc remaps — the property that makes a fleet resize cheap
    for a cache).
    """

    def __init__(self, endpoints, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        # De-dup while preserving declaration order (the order only
        # matters for tie-free reproducibility of tests and docs).
        self._endpoints = list(dict.fromkeys(str(spec) for spec in endpoints))
        ring: "list[tuple[int, str]]" = []
        for endpoint in self._endpoints:
            for i in range(vnodes):
                ring.append((self._point(f"{endpoint}#{i}"), endpoint))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha1(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def endpoints(self) -> "list[str]":
        return list(self._endpoints)

    def __len__(self) -> int:
        return len(self._endpoints)

    def preference(self, key: str, n: int) -> "list[str]":
        """The first ``n`` distinct endpoints clockwise from ``key`` —
        replica 0 is the primary.  Returns fewer than ``n`` when the
        ring has fewer endpoints."""
        if not self._ring or n < 1:
            return []
        index = bisect.bisect_right(self._points, self._point(str(key)))
        chosen: "list[str]" = []
        for offset in range(len(self._ring)):
            endpoint = self._ring[(index + offset) % len(self._ring)][1]
            if endpoint not in chosen:
                chosen.append(endpoint)
                if len(chosen) >= n:
                    break
        return chosen

    def primary(self, key: str) -> "str | None":
        owners = self.preference(key, 1)
        return owners[0] if owners else None
