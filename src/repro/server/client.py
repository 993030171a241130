"""``RemoteRecordStore`` — a RecordStore backed by one or more ricd daemons.

Satisfies :class:`~repro.ric.store.RecordStoreProtocol`, so the engine,
``ric-run`` and the bench harness use it wherever a local
:class:`~repro.ric.store.RecordStore` fits.  Each endpoint is a unix
socket path or a ``HOST:PORT`` TCP spec (see
:func:`repro.server.protocol.parse_endpoint`).

One endpoint or many, the store is the same router: each record's key
is placed on a consistent-hash ring (:class:`~repro.server.sharding.
HashRing`) and owned by the first R distinct endpoints clockwise — the
**preference list**.  PUTs fan out to all R replicas; GETs ask the
primary and fail over down the list, so one dead shard degrades only
its arc of the ring.  A single endpoint is a ring of one (R=1).  Each
endpoint is served by a transport-only :class:`EndpointClient` (one
connection, retry budget, circuit breaker, envelope re-verification,
epoch fencing); the router keeps the store-level state: logical stats,
single-flight GETs, the local fallback and its write-back.

The defining property is the **degradation ladder** (extending the
corrupt-record discipline of INTERNALS §7 to a failing *transport*): a reuse
run pointed at dead, slow, or lying daemons must behave exactly like one
pointed at its local store — never raise, never change program output,
only lose some of the speedup, visibly:

1. remote answer, client-reverified (checksum + ``validate_record``
   via :func:`~repro.ric.serialize.record_from_envelope`) → use it,
   count ``hits``;
2. a live owner answers *miss* → count ``misses``, consult the local
   fallback store;
3. transport or protocol trouble (connect refused, timeout, garbage
   frame, version skew, poisoned envelope) → the endpoint first spends
   its bounded **retry budget**: up to ``retries`` fresh-connection
   attempts with jittered exponential backoff, all inside the
   per-request deadline ``request_deadline_s`` (a blip — daemon
   restart, dropped socket — costs a few milliseconds, not the whole
   sharing win).  An exhausted budget opens that endpoint's circuit
   breaker (for ``retry_after_s`` its requests fail at once, so a dead
   daemon costs one timeout, not one per record) and the GET fails
   over to the next replica, counting ``failovers``.  When no replica
   answers: count ``fallbacks`` and consult the local fallback store.

Remote records are written through to the fallback store on the way
past, so anything learned from the fleet survives its death.  The
``stats`` dict feeds the per-run ``ric_remote_*`` counters
(:class:`~repro.stats.counters.Counters`) via the engine: one outcome
per logical operation, however many replicas were probed, except
``failovers`` (replica hops) and ``retries`` (absorbed transport blips),
which count what happened on the wire.

All endpoint clients share one :class:`EpochClock`, so a fleet epoch
learned from any shard immediately fences stale hits from every other
shard — the property that makes ``--bump-epoch`` safe under partitions.

Thread-safety: one store is shared by every concurrent session of an
engine (executor layer), so ``stats`` mutations sit behind their own
lock (each endpoint's transport lock serializes its wire).  GETs are
**single-flight** per (filename, source hash): when N cold sessions ask
for the same script's record at once, one thread does the network
round-trip and the rest share its result — each joiner still counts the
same ``stats`` outcome, so per-request accounting stays truthful while
the fleet sees one GET.  Circuit breakers are likewise shared: a dead
daemon costs the fleet one timeout, not one per session.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
import typing
from pathlib import Path

from repro.bytecode.cache import source_hash
from repro.ric.errors import RecordFormatError
from repro.ric.icrecord import ICRecord
from repro.ric.serialize import (
    ICRECORD_FORMAT_VERSION,
    record_from_envelope,
    record_to_envelope,
)
from repro.ric.store import RecordStore
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.server.sharding import HashRing

logger = logging.getLogger(__name__)


class RemoteStoreError(Exception):
    """Transport- or protocol-level failure talking to the daemon."""


class RemoteProtoMismatch(RemoteStoreError):
    """The daemon answered cleanly but does not speak this dialect —
    an unknown verb or a different protocol version.  The mixed-fleet
    rolling-upgrade signal: the daemon is *alive* (no breaker trip, no
    retry burn), just older/newer than this client.  Counted as
    ``proto_mismatch`` in :attr:`RemoteRecordStore.stats` and folded
    into the run's ``ric_remote_proto_mismatch`` counter."""


class EpochClock:
    """A thread-safe max-register for the fleet epoch.

    Every daemon response echoes the daemon's epoch; every client
    request carries the highest epoch its clock has seen.  Shared by all
    endpoint clients of a :class:`RemoteRecordStore`, so an epoch
    learned from one shard immediately protects GETs against stale
    replicas of every other shard."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: int = 0):
        self._value = int(value)
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def advance(self, epoch) -> bool:
        """Adopt a higher epoch; returns True if the clock moved.
        Non-int and lower values are ignored (old daemons send none)."""
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            return False
        with self._lock:
            if epoch <= self._value:
                return False
            self._value = epoch
            return True


class _GetFlight:
    """One in-progress GET that concurrent callers can join."""

    __slots__ = ("event", "record", "stat")

    def __init__(self):
        self.event = threading.Event()
        self.record: "ICRecord | None" = None
        self.stat: "str | None" = None


class EndpointClient:
    """The transport to one daemon: a connection, a retry budget and a
    circuit breaker.

    It holds no fallback and no stats of its own.  Its ``remote_*``
    primitives return one outcome per wire exchange and the owning
    :class:`RemoteRecordStore` decides what that outcome means.  The two
    things only the transport sees — retries and dialect refusals — are
    reported through ``count`` as they happen."""

    def __init__(
        self,
        endpoint: str,
        epoch_clock: EpochClock,
        count: typing.Callable[[str], None],
        timeout_s: float,
        retry_after_s: float,
        retries: int,
        backoff_s: float,
        request_deadline_s: float,
    ):
        #: The endpoint spec — a unix socket path or ``HOST:PORT`` /
        #: ``tcp://``/``unix://`` form.
        self.endpoint = endpoint
        self.epoch_clock = epoch_clock
        self._count = count
        self.timeout_s = timeout_s
        self.retry_after_s = retry_after_s
        #: Bounded retry budget: transient transport failures absorbed
        #: per request before the circuit breaker opens.
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.request_deadline_s = request_deadline_s
        self._retry_rng = random.Random()
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._dead_until = 0.0

    @property
    def epoch(self) -> int:
        """Highest fleet epoch this client has learned via gossip."""
        return self.epoch_clock.value

    def _connect(self) -> socket.socket:
        return protocol.connect_endpoint(self.endpoint, self.timeout_s)

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _request(self, message: dict) -> dict:
        """One request/response exchange; raises :class:`RemoteStoreError`
        on any transport or protocol failure.

        Transient transport failures first consume the bounded retry
        budget (``retries`` fresh-connection attempts with jittered
        exponential backoff, all inside ``request_deadline_s``); only an
        exhausted budget surfaces the error and opens the breaker.
        """
        with self._lock:
            if time.monotonic() < self._dead_until:
                raise RemoteStoreError("circuit breaker open")
            deadline = time.monotonic() + self.request_deadline_s
            attempt = 0
            while True:
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    protocol.write_frame(self._sock, message)
                    response = protocol.read_frame(self._sock)
                    if response is None:
                        raise ProtocolError(
                            "daemon closed connection mid-request"
                        )
                    protocol.check_version(response)
                except (OSError, socket.timeout, ProtocolError) as exc:
                    self._close()
                    now = time.monotonic()
                    if attempt < self.retries and now < deadline:
                        # Jittered exponential backoff, clamped to the
                        # per-request deadline so retrying never costs
                        # more time than giving up would.
                        pause = self.backoff_s * (2**attempt)
                        pause *= 1.0 + self._retry_rng.random()
                        pause = min(pause, max(0.0, deadline - now))
                        attempt += 1
                        self._count("retries")
                        if pause > 0:
                            time.sleep(pause)
                        continue
                    self._dead_until = time.monotonic() + self.retry_after_s
                    raise RemoteStoreError(str(exc)) from exc
                if response.get("ok") is not True:
                    # A clean error response is a server-side refusal, not
                    # transport trouble: don't retry, don't trip the
                    # breaker, but do drop the connection (the server
                    # closes after errors).
                    self._close()
                    error = str(response.get("error", "unknown error"))
                    if error.startswith("unknown op") or "protocol version" in error:
                        # Mixed-fleet dialect skew: the daemon is alive but
                        # older/newer than us.  Log-and-count rather than
                        # fail opaquely so rolling upgrades stay observable.
                        self._count("proto_mismatch")
                        logger.warning(
                            "ricd at %s refused %s: %s (protocol mismatch)",
                            self.endpoint,
                            message.get("op"),
                            error,
                        )
                        raise RemoteProtoMismatch(error)
                    raise RemoteStoreError(error)
                self.epoch_clock.advance(response.get("epoch"))
                return response

    # -- remote-only primitives ----------------------------------------------
    #
    # No fallback consult and no stats: one outcome per wire exchange.
    # The outcome is what the router needs to decide failover: "error"
    # (transport/breaker) means try a replica, everything else is an
    # authoritative answer from a live shard.

    def remote_get(
        self, filename: str, source: str
    ) -> "tuple[str, ICRecord | None]":
        """One remote-only GET.  Returns ``(outcome, record)`` where the
        outcome is ``"hit"`` (verified record), ``"miss"``, ``"stale"``
        (the shard served a record admitted before the fleet epoch this
        client knows — a lagging replica must not resurrect it),
        ``"mismatch"`` (dialect skew), or ``"error"`` (transport/breaker
        failure, or an envelope that failed re-verification)."""
        key = [filename, source_hash(source), ICRECORD_FORMAT_VERSION]
        try:
            response = self._request(
                protocol.request("GET", key=key, epoch=self.epoch_clock.value)
            )
        except RemoteProtoMismatch:
            return ("mismatch", None)
        except RemoteStoreError:
            return ("error", None)
        if not response.get("hit"):
            return ("miss", None)
        record_epoch = response.get("record_epoch")
        if (
            isinstance(record_epoch, int)
            and not isinstance(record_epoch, bool)
            and record_epoch < self.epoch_clock.value
        ):
            return ("stale", None)
        try:
            # Never trust the daemon: full checksum + structural
            # re-verification, exactly as if the envelope came off disk.
            record = record_from_envelope(response.get("envelope"))
        except RecordFormatError:
            return ("error", None)
        return ("hit", record)

    def remote_put(
        self, filename: str, source: str, envelope: dict
    ) -> "tuple[str, int | None]":
        """One remote-only PUT of an envelope.  Returns ``(outcome,
        evicted)``: outcome is ``"stored"`` (evicted = daemon-side evictions
        it caused), ``"rejected"`` (admission gate refused the record),
        ``"stale"`` (epoch fencing refused it), ``"mismatch"``, or ``"error"``."""
        key = [filename, source_hash(source), ICRECORD_FORMAT_VERSION]
        try:
            response = self._request(
                protocol.request(
                    "PUT",
                    key=key,
                    envelope=envelope,
                    epoch=self.epoch_clock.value,
                )
            )
        except RemoteProtoMismatch:
            return ("mismatch", None)
        except RemoteStoreError:
            return ("error", None)
        if response.get("stored"):
            evicted = response.get("evicted")
            if isinstance(evicted, int) and not isinstance(evicted, bool):
                return ("stored", max(evicted, 0))
            return ("stored", 0)
        if response.get("stale_epoch"):
            return ("stale", None)
        return ("rejected", None)

    def remote_stat(self) -> "dict | None":
        """One STAT round-trip; ``None`` when the daemon is unreachable
        (itself a useful status).  Advances the epoch clock via gossip."""
        try:
            response = self._request(protocol.request("STAT"))
        except RemoteStoreError:
            return None
        return {
            "cache": response.get("cache"),
            "store": response.get("store"),
            "health": response.get("health"),
            "epoch": response.get("epoch"),
        }

    def remote_len(self) -> "int | None":
        """The daemon's serving-tier record count; ``None`` if down."""
        stat = self.remote_stat()
        if stat is None:
            return None
        cache = stat.get("cache")
        if isinstance(cache, dict) and isinstance(cache.get("records"), int):
            return cache["records"]
        return None

    def bump_epoch(self, epoch: int) -> "int | None":
        """Raise the daemon's fleet epoch to ``epoch``.  Returns the
        daemon's new epoch, or ``None`` if it was unreachable."""
        try:
            response = self._request(
                protocol.request("EVICT_EPOCH", epoch=epoch)
            )
        except RemoteStoreError:
            return None
        new_epoch = response.get("epoch")
        if isinstance(new_epoch, int) and not isinstance(new_epoch, bool):
            return new_epoch
        return None

    def ping(self) -> bool:
        """True iff the daemon answers; never raises."""
        try:
            return bool(self._request(protocol.request("PING")).get("pong"))
        except RemoteStoreError:
            return False

    def evict_all(self) -> int:
        """Ask the daemon to drop its serving tier (admin/testing)."""
        try:
            response = self._request(protocol.request("EVICT", all=True))
        except RemoteStoreError:
            return 0
        evicted = response.get("evicted")
        return evicted if isinstance(evicted, int) else 0

    def close(self) -> None:
        with self._lock:
            self._close()


class RemoteRecordStore:
    """Consistent-hash router over one or more ricd endpoints, with
    replication R and a local fallback store."""

    def __init__(
        self,
        endpoints: "str | Path | typing.Iterable[str | Path]",
        fallback: "RecordStore | None" = None,
        replication: int = 2,
        timeout_s: float = 0.5,
        retry_after_s: float = 1.0,
        retries: int = 1,
        backoff_s: float = 0.05,
        request_deadline_s: float = 2.0,
    ):
        if isinstance(endpoints, (str, os.PathLike)):
            endpoints = [endpoints]
        self.ring = HashRing(endpoints)
        if not len(self.ring):
            raise ValueError("RemoteRecordStore needs at least one endpoint")
        self.fallback = fallback if fallback is not None else RecordStore()
        #: Effective replication factor, clamped to the fleet size.
        self.replication = max(1, min(replication, len(self.ring)))
        #: One fleet-wide epoch register shared by every endpoint client.
        self.epoch_clock = EpochClock()
        #: Logical stats: one outcome per logical op.  hits/misses are
        #: remote answers; fallbacks are requests no replica answered and
        #: the local store absorbed; evictions is the daemon-reported
        #: eviction total our PUTs triggered; failovers counts replica
        #: hops; retries is transient failures the retry budgets absorbed
        #: invisibly; proto_mismatch is clean refusals from a daemon
        #: speaking another dialect; stale_epoch is hits/puts refused by
        #: epoch fencing.
        self.stats: "dict[str, int]" = {
            "hits": 0,
            "misses": 0,
            "fallbacks": 0,
            "evictions": 0,
            "puts": 0,
            "puts_rejected": 0,
            "retries": 0,
            "proto_mismatch": 0,
            "stale_epoch": 0,
            "failovers": 0,
        }
        #: Guards ``stats`` (mutated from every session's thread, and
        #: read by snapshots mid-flight).
        self._stats_lock = threading.Lock()
        #: endpoint spec → its circuit-breakered transport.
        self.clients: "dict[str, EndpointClient]" = {
            spec: EndpointClient(
                spec,
                self.epoch_clock,
                self._count,
                timeout_s=timeout_s,
                retry_after_s=retry_after_s,
                retries=retries,
                backoff_s=backoff_s,
                request_deadline_s=request_deadline_s,
            )
            for spec in self.ring.endpoints
        }
        #: In-progress GETs other threads can join (single-flight).
        self._get_flights: "dict[tuple[str, str], _GetFlight]" = {}
        self._flight_lock = threading.Lock()
        #: Endpoints that missed the most recent :meth:`bump_epoch`
        #: broadcast (unreachable at the time).  Until they are re-bumped
        #: or gossip reaches them, a *fresh* client whose first contact is
        #: such a shard can still be served pre-bump records.
        self.last_bump_missed: "list[str]" = []

    def _count(self, stat: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[stat] += amount

    @property
    def epoch(self) -> int:
        """Highest fleet epoch this store has learned via gossip."""
        return self.epoch_clock.value

    def owners(self, filename: str, src_hash: str) -> "list[EndpointClient]":
        """The preference list for one record: primary first, then the
        failover replicas."""
        key = f"{filename}:{src_hash}"
        return [
            self.clients[spec]
            for spec in self.ring.preference(key, self.replication)
        ]

    # -- the store interface -------------------------------------------------

    def get(self, filename: str, source: str) -> ICRecord | None:
        """Primary-then-replicas GET, single-flighted per record:
        concurrent requests for one script share one network round-trip
        (each still counted in ``stats``)."""
        src_hash = source_hash(source)
        flight_key = (filename, src_hash)
        with self._flight_lock:
            flight = self._get_flights.get(flight_key)
            if flight is None:
                flight = _GetFlight()
                self._get_flights[flight_key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            flight.event.wait()
            if flight.stat is not None:
                self._count(flight.stat)
            return flight.record
        try:
            record, stat = self._get_once(filename, source, src_hash)
            flight.record = record
            flight.stat = stat
            return record
        finally:
            with self._flight_lock:
                self._get_flights.pop(flight_key, None)
            flight.event.set()

    def _get_once(
        self, filename: str, source: str, src_hash: str
    ) -> "tuple[ICRecord | None, str]":
        """One real GET; returns ``(record, stat_key)`` where the stat
        key names the outcome bucket (already counted for the caller)."""
        for hop, client in enumerate(self.owners(filename, src_hash)):
            if hop:
                self._count("failovers")
            outcome, record = client.remote_get(filename, source)
            if outcome == "hit":
                self._count("hits")
                # Write-back: what the fleet taught us survives it.
                self.fallback.put(filename, source, record)
                return record, "hits"
            if outcome == "miss":
                # A live owner's miss is authoritative: replicas hold
                # copies of the same arc, not extra records.  (A replica
                # that restarted empty re-warms via PUT fan-out.)
                self._count("misses")
                return self.fallback.get(filename, source), "misses"
            if outcome == "stale":
                # The fleet invalidated this record's epoch; the local
                # fallback's copy (written back pre-bump) is equally
                # dead, so do NOT consult it — answer "no record".
                self._count("stale_epoch")
                return None, "stale_epoch"
            # "error"/"mismatch": this shard is unusable — try the next
            # replica on the preference list.
        self._count("fallbacks")
        return self.fallback.get(filename, source), "fallbacks"

    def put(self, filename: str, source: str, record: ICRecord) -> None:
        """Write-through local, then fan one envelope out to every replica."""
        self.fallback.put(filename, source, record)
        envelope = record_to_envelope(record)
        stored = 0
        evicted_total = 0
        rejected = stale = False
        for client in self.owners(filename, source_hash(source)):
            outcome, evicted = client.remote_put(filename, source, envelope)
            if outcome == "stored":
                stored += 1
                evicted_total += evicted or 0
            elif outcome == "rejected":
                rejected = True
            elif outcome == "stale":
                stale = True
        # One logical outcome per PUT, best news wins: any replica
        # storing it means the fleet has it.
        if stored:
            self._count("puts")
            if evicted_total:
                self._count("evictions", evicted_total)
        elif stale:
            self._count("stale_epoch")
        elif rejected:
            self._count("puts_rejected")
        else:
            self._count("fallbacks")

    def records_for(self, scripts) -> list[ICRecord]:
        found = []
        for filename, source in scripts:
            record = self.get(filename, source)
            if record is not None:
                found.append(record)
        return found

    def __len__(self) -> int:
        counts = [
            count
            for count in (
                client.remote_len() for client in self.clients.values()
            )
            if count is not None
        ]
        if not counts:
            return len(self.fallback)
        # Replicas hold copies, so a plain sum double-counts; the
        # per-shard maximum is the honest lower bound on distinct
        # records without a full key scan.
        return max(counts)

    def status(self) -> dict:
        """Ring shape, per-shard remote STAT (``None`` for an
        unreachable shard), the logical stats, and the local fallback —
        shape documented in INTERNALS §12."""
        shards = [
            {"endpoint": spec, "remote": client.remote_stat()}
            for spec, client in self.clients.items()
        ]
        return {
            "endpoints": self.ring.endpoints,
            "replication": self.replication,
            "epoch": self.epoch_clock.value,
            "shards": shards,
            "client": self.stats_snapshot(),
            "local": self.fallback.status(),
        }

    # -- extras --------------------------------------------------------------

    @property
    def load_errors(self) -> list:
        return self.fallback.load_errors

    def ping(self) -> bool:
        """True iff at least one shard answers — the fleet is 'up' as
        long as any arc is being served.  Never raises."""
        return any(client.ping() for client in self.clients.values())

    def bump_epoch(self, epoch: "int | None" = None) -> "int | None":
        """Fleet-wide invalidation broadcast (``ric-run --bump-epoch``).

        Learns the fleet's highest epoch (STAT every shard — the shared
        clock gossips it in), targets highest + 1 unless an explicit
        epoch is given, then sends ``EVICT_EPOCH`` to *every* endpoint —
        not just R owners, because every shard holds some arc.  Returns
        the new epoch if at least one shard acknowledged, else ``None``;
        never raises.  A partitioned shard that missed the broadcast
        self-invalidates via gossip on its first contact with an
        up-to-date client — but a *fresh* client (epoch clock still 0)
        whose first contact is the laggard has no epoch to gossip, so
        endpoints that missed the broadcast are recorded in
        :attr:`last_bump_missed` and warned about: the operator should
        send the bump again once they rejoin.
        """
        if epoch is None:
            for client in self.clients.values():
                client.remote_stat()  # advances the shared clock
            epoch = self.epoch_clock.value + 1
        acknowledged: "int | None" = None
        missed: "list[str]" = []
        for spec, client in self.clients.items():
            result = client.bump_epoch(epoch)
            if result is not None:
                acknowledged = max(acknowledged or 0, result)
            else:
                missed.append(spec)
        self.last_bump_missed = missed
        if missed and acknowledged is not None:
            logger.warning(
                "epoch bump to %d missed %d of %d shards (%s); re-run "
                "--bump-epoch when they rejoin or their pre-bump records "
                "may be served to fresh clients",
                acknowledged,
                len(missed),
                len(self.clients),
                ", ".join(missed),
            )
        return acknowledged

    def evict_all(self) -> int:
        """Ask every daemon to drop its serving tier (admin/testing)."""
        return sum(client.evict_all() for client in self.clients.values())

    def close(self) -> None:
        for client in self.clients.values():
            client.close()

    def stats_snapshot(self) -> "dict[str, int]":
        with self._stats_lock:
            return dict(self.stats)


def make_record_store(
    socket_path: "str | Path | list | tuple | None",
    directory: "str | Path | None" = None,
    replication: int = 2,
):
    """Store selection in one place: a plain local store when no
    endpoint is configured, else a :class:`RemoteRecordStore` over the
    endpoints (a list/tuple of specs or one comma-separated string),
    with the local store as its fallback and the client's default
    timeouts and retries.
    """
    local = RecordStore(directory=directory)
    if socket_path is None:
        return local
    if isinstance(socket_path, (list, tuple)):
        endpoints = [str(spec) for spec in socket_path]
    else:
        endpoints = [part.strip() for part in str(socket_path).split(",")]
    endpoints = [spec for spec in endpoints if spec]
    if not endpoints:
        return local
    return RemoteRecordStore(endpoints, fallback=local, replication=replication)


if typing.TYPE_CHECKING:  # the protocol conformance is a type-level claim
    from repro.ric.store import RecordStoreProtocol

    _store: "RecordStoreProtocol" = typing.cast(RemoteRecordStore, None)
