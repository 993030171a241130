"""Cross-process ICRecord sharing: the record-cache daemon and its client.

The paper's §9 argument for RIC over snapshotting is that IC information
is kept *per script file*, so "the IC information for a library can be
shared by different applications".  A private per-process
:class:`~repro.ric.store.RecordStore` realizes that within one machine
account; this package realizes it *across processes*:

* :class:`RecordCacheDaemon` (the ``ricd`` behind ``ric-serve``) serves
  ICRecords to many engine processes over a unix-domain socket, with an
  in-memory LRU bounded by record count and bytes, write-through to an
  on-disk :class:`~repro.ric.store.RecordStore`, and a per-request
  :func:`~repro.ric.validate.validate_record` gate so one client can
  never poison another.
* :class:`RemoteRecordStore` plugs in wherever a ``RecordStore`` does
  (it satisfies :class:`~repro.ric.store.RecordStoreProtocol`) over one
  daemon or a *fleet*: a consistent-hash ring (:class:`HashRing`) of N
  daemons with replication factor R — PUT fan-out, GET failover, and
  epoch-based fleet-wide invalidation (``EVICT_EPOCH`` +
  :class:`EpochClock` gossip) so invalidated records die on every shard
  and replica.  Each daemon is reached through a transport-only
  :class:`EndpointClient` with its own retry budget and circuit
  breaker.  The store degrades gracefully: when no replica answers it
  falls back to a local store, bumps the ``ric_remote_*`` counters,
  and never fails the run.

Wire format and degradation ladder: :mod:`repro.server.protocol` and
docs/INTERNALS.md §9 (daemon and store) / §12 (ring, replicas, epochs).
"""

from repro.server.client import (
    EndpointClient,
    EpochClock,
    RemoteProtoMismatch,
    RemoteRecordStore,
    RemoteStoreError,
    make_record_store,
)
from repro.server.daemon import RecordCacheDaemon
from repro.server.lru import LRUCache
from repro.server.sharding import HashRing
from repro.server.supervisor import Supervisor
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    cache_key,
    connect_endpoint,
    format_endpoint,
    parse_endpoint,
    read_frame,
    write_frame,
)

__all__ = [
    "EndpointClient",
    "EpochClock",
    "HashRing",
    "LRUCache",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecordCacheDaemon",
    "RemoteProtoMismatch",
    "RemoteRecordStore",
    "RemoteStoreError",
    "Supervisor",
    "cache_key",
    "connect_endpoint",
    "format_endpoint",
    "make_record_store",
    "parse_endpoint",
    "read_frame",
    "write_frame",
]
