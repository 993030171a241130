"""``ricd`` — the record-cache daemon behind ``ric-serve``.

One daemon process serves ICRecords (and thereby the warm-start they
buy) to many engine processes over a unix-domain socket, a TCP port, or
both at once (``ric-serve --tcp HOST:PORT``) — same length-prefixed v1
frames, same 32 MiB cap, same per-connection deadlines on either
transport.  Layering, top to bottom:

1. **Socket tier** — threaded stream servers speaking the
   length-prefixed JSON protocol of :mod:`repro.server.protocol`.  Each
   connection is one client engine; requests on a connection are handled
   sequentially, connections concurrently.  A malformed frame gets an
   error response and the connection is dropped — one confused client
   must not occupy a thread forever.
2. **Serving tier** — an in-memory :class:`~repro.server.lru.LRUCache`
   of *envelopes* (the checksummed on-disk form), bounded by record
   count and bytes.  A ``GET`` serves the envelope its ``PUT`` carried,
   so no record is re-serialized on the hot path and the daemon never
   vouches for content: the client re-verifies everything.
3. **Admission gate** — a ``PUT`` is deserialized through
   :func:`~repro.ric.serialize.record_from_envelope`: checksum, then
   structure, then one :func:`~repro.ric.validate.validate_record` pass.
   A record failing any is refused and counted (``puts_rejected``) —
   one client can never poison another through the daemon.
4. **Backing tier** — optional write-through to a directory-backed
   :class:`~repro.ric.store.RecordStore`: admitted records survive
   daemon restarts and LRU eviction; on an LRU miss the store is
   consulted before answering ``hit: false``.

Fleet epoch (``EVICT_EPOCH``): the daemon carries a monotonically
increasing ``epoch`` (persisted to ``<dir>/.epoch`` when disk-backed).
Every cached entry remembers the epoch it was admitted under, every
response echoes the current epoch, and a bump — whether delivered by an
explicit ``EVICT_EPOCH`` broadcast or gossiped in on a ``GET``/``PUT``
from a client that learned a higher epoch elsewhere — drops every older
record from memory *and* the write-through store.  A record is a bundle
of code + execution state; when its source changes fleet-wide, it must
die everywhere, including on a shard that was partitioned during the
broadcast (the gossip path heals it on first contact).

Operational hardening (the supervision contract, INTERNALS §10):

* **Health** — ``STAT`` answers a ``health`` blob (uptime, inflight
  request count, draining/ready flags, LRU pressure) so an operator or
  supervisor can distinguish "alive", "loaded", and "shutting down"
  without guessing from traffic.
* **Per-connection I/O deadlines** — reads *and* writes carry socket
  timeouts (``read_timeout_s`` / ``write_timeout_s``), so a stalled or
  malicious client that stops mid-frame loses its connection instead of
  pinning a worker thread forever.
* **Graceful drain** — :meth:`RecordCacheDaemon.drain` (wired to
  SIGTERM in ``ric-serve``) stops accepting new connections, lets every
  in-flight request finish and its response flush, confirms the
  write-through store is durable, and only then tears the socket down.
  Connections idle at a frame boundary are closed; a client mid-frame
  gets its answer.  One bad apple cannot extend the drain forever: the
  drain deadline caps the wait, after which remaining connections are
  cut.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import socketserver
import threading
import time
from pathlib import Path

from repro.ric.errors import RecordFormatError
from repro.ric.serialize import record_from_envelope, record_to_envelope
from repro.ric.store import RecordStore
from repro.server import protocol
from repro.server.lru import LRUCache
from repro.server.protocol import ProtocolError

logger = logging.getLogger(__name__)


class _RicdServerMixin(socketserver.ThreadingMixIn):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by RecordCacheDaemon after construction.
    ricd: "RecordCacheDaemon"


class _UnixServer(_RicdServerMixin, socketserver.UnixStreamServer):
    pass


class _TCPServer(_RicdServerMixin, socketserver.TCPServer):
    pass


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        daemon = self.server.ricd  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        daemon._track_connection(sock)
        try:
            self._serve(daemon, sock)
        finally:
            daemon._untrack_connection(sock)

    def _serve(self, daemon: "RecordCacheDaemon", sock: socket.socket) -> None:
        while True:
            if daemon.draining:
                # Frame boundary during a drain: stop taking new work on
                # this connection (in-flight frames were already
                # answered below).
                return
            sock.settimeout(daemon.read_timeout_s)
            try:
                message = protocol.read_frame(sock)
            except (ProtocolError, socket.timeout, OSError) as exc:
                self._try_send(sock, protocol.error_response(str(exc)))
                return
            if message is None:  # client closed cleanly
                return
            # From here to the response write this connection is
            # *inflight*: a drain waits for it (and only it) to finish.
            daemon._begin_request()
            try:
                try:
                    response = daemon.handle_request(message)
                except ProtocolError as exc:
                    self._try_send(sock, protocol.error_response(str(exc)))
                    return
                except Exception as exc:  # never let one request kill the thread
                    logger.exception("ricd: internal error")
                    self._try_send(
                        sock, protocol.error_response(f"internal error: {exc}")
                    )
                    return
                sock.settimeout(daemon.write_timeout_s)
                try:
                    protocol.write_frame(sock, response)
                except (socket.timeout, OSError):
                    return
            finally:
                daemon._end_request()

    @staticmethod
    def _try_send(sock: socket.socket, message: dict) -> None:
        try:
            protocol.write_frame(sock, message)
        except OSError:
            pass


class RecordCacheDaemon:
    """The shared record cache: LRU serving tier over a write-through store."""

    def __init__(
        self,
        socket_path: str | Path | None = None,
        directory: str | Path | None = None,
        max_records: int = 256,
        max_bytes: int = 64 * 1024 * 1024,
        connection_timeout_s: float = 30.0,
        read_timeout_s: float | None = None,
        write_timeout_s: float | None = None,
        tcp: str | tuple | None = None,
    ):
        self.socket_path = Path(socket_path) if socket_path is not None else None
        #: TCP listen address as ``(host, port)``; accepted as a
        #: ``"HOST:PORT"`` spec too.  Port 0 binds an ephemeral port —
        #: read :attr:`tcp_endpoint` after :meth:`start` for the real one.
        if isinstance(tcp, str):
            kind, address = protocol.parse_endpoint(
                tcp if "://" in tcp else f"tcp://{tcp}"
            )
            if kind != "tcp":
                raise ValueError(f"not a tcp address: {tcp!r}")
            tcp = address
        self.tcp_address: "tuple[str, int] | None" = tuple(tcp) if tcp else None
        if self.socket_path is None and self.tcp_address is None:
            raise ValueError("daemon needs a unix socket path, a tcp address, or both")
        self.connection_timeout_s = connection_timeout_s
        #: Per-connection I/O deadlines; default to the legacy
        #: connection_timeout_s.  Writes get their own (usually shorter)
        #: deadline: a client that stops reading its response is stalled
        #: just like one that stops sending its request.
        self.read_timeout_s = (
            read_timeout_s if read_timeout_s is not None else connection_timeout_s
        )
        self.write_timeout_s = (
            write_timeout_s
            if write_timeout_s is not None
            else connection_timeout_s
        )
        self.cache = LRUCache(max_records=max_records, max_bytes=max_bytes)
        self.store = RecordStore(directory=directory) if directory else None
        #: Fleet epoch: records admitted under an older epoch are dead.
        #: Disk-backed daemons persist it so a restart cannot resurrect
        #: pre-bump records from the write-through directory.
        self.epoch = self._load_epoch()
        #: Request-level counters (the cache keeps its own hit/miss/eviction
        #: tallies; these count what crossed the wire).
        self.requests = 0
        self.puts_accepted = 0
        self.puts_rejected = 0
        self.puts_stale_epoch = 0
        self.epoch_bumps = 0
        self.store_fallback_hits = 0
        #: Specialization-feedback aggregates over accepted PUTs (what the
        #: fleet's records would let a consumer quicken); see health().
        self.feedback_records = 0
        self.feedback_sites = 0
        self.feedback_tombstones = 0
        self._servers: "list[socketserver.BaseServer]" = []
        self._threads: "list[threading.Thread]" = []
        #: Live client connections, so :meth:`kill` can sever them.
        self._connections: "set[socket.socket]" = set()
        self._conn_lock = threading.Lock()
        self._stopped = threading.Event()
        self._lock = threading.Lock()
        #: Supervision state: monotonic birth time, inflight request
        #: count (condition-guarded so drain can wait on it), drain flag.
        self._started_monotonic = time.monotonic()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self.draining = False

    # -- lifecycle -----------------------------------------------------------

    def _bind(self) -> None:
        """Create the listeners for every configured transport."""
        if self._servers:
            raise RuntimeError("daemon already started")
        if self.socket_path is not None:
            if self.socket_path.exists():
                self.socket_path.unlink()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            server: socketserver.BaseServer = _UnixServer(
                str(self.socket_path), _Handler
            )
            server.ricd = self  # type: ignore[attr-defined]
            self._servers.append(server)
        if self.tcp_address is not None:
            tcp_server = _TCPServer(
                (self.tcp_address[0], int(self.tcp_address[1])), _Handler
            )
            tcp_server.ricd = self  # type: ignore[attr-defined]
            # Rebind to the kernel-assigned port so "--tcp HOST:0" is
            # dialable (tests, parallel fleets on one box).
            self.tcp_address = tcp_server.server_address[:2]
            self._servers.append(tcp_server)

    @property
    def tcp_endpoint(self) -> "str | None":
        """Dialable ``HOST:PORT`` spec of the TCP listener, if any."""
        if self.tcp_address is None:
            return None
        return protocol.format_endpoint("tcp", self.tcp_address)

    @property
    def endpoints(self) -> "list[str]":
        """Every spec this daemon is reachable at."""
        specs = []
        if self.socket_path is not None:
            specs.append(str(self.socket_path))
        if self.tcp_endpoint is not None:
            specs.append(self.tcp_endpoint)
        return specs

    def start(self) -> None:
        """Bind all listeners and serve each on a background thread."""
        self._bind()
        self._stopped.clear()
        for server in self._servers:
            thread = threading.Thread(
                target=server.serve_forever, name="ricd", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def serve_forever(self) -> None:
        """Foreground variant for the ``ric-serve`` CLI: serves until
        :meth:`stop`/:meth:`drain` is called (from a signal handler)."""
        if not self._servers:
            self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Immediate stop: close every listener now; in-flight handler
        threads are daemonic and die with the process.  For the graceful
        variant see :meth:`drain`."""
        servers, self._servers = self._servers, []
        threads, self._threads = self._threads, []
        for server in servers:
            server.shutdown()
            server.server_close()
        for thread in threads:
            thread.join(timeout=5.0)
        self._stopped.set()
        if self.socket_path is not None and self.socket_path.exists():
            try:
                self.socket_path.unlink()
            except OSError:  # pragma: no cover - raced removal
                pass

    def kill(self) -> None:
        """Abrupt SIGKILL-equivalent stop for chaos testing: sever every
        live client connection mid-whatever (they see a reset/EOF, not a
        clean error response), then tear down the listeners.  Contrast
        :meth:`drain` (graceful) and :meth:`stop` (listeners only —
        existing in-process connections would keep being served)."""
        with self._conn_lock:
            connections, self._connections = list(self._connections), set()
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self.stop()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        confirm write-through durability, then tear down.

        Returns True when every in-flight request finished inside
        ``timeout_s`` (the SIGTERM → exit-0 path of ``ric-serve``);
        False when the deadline cut stragglers off.  Idempotent:
        concurrent/repeat calls fall through to :meth:`stop`.
        """
        with self._inflight_cond:
            already = self.draining
            self.draining = True
        if not already:
            # Stops the accept loops; existing handler threads continue.
            for server in list(self._servers):
                server.shutdown()
        deadline = time.monotonic() + timeout_s
        drained = True
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    drained = False
                    break
                self._inflight_cond.wait(remaining)
        # Write-through is synchronous (every admitted PUT hit the store
        # before its response went out), so once inflight is zero the
        # backing directory is durable; there is nothing left to flush.
        self.stop()
        return drained

    # -- connection tracking (handler threads) -------------------------------

    def _track_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(sock)

    def _untrack_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._connections.discard(sock)

    # -- inflight accounting (handler threads) --------------------------------

    def _begin_request(self) -> None:
        with self._inflight_cond:
            self._inflight += 1

    def _end_request(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._inflight_cond.notify_all()

    def __enter__(self) -> "RecordCacheDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- epoch --------------------------------------------------------------

    def _epoch_path(self) -> "Path | None":
        if self.store is None or self.store.directory is None:
            return None
        return self.store.directory / ".epoch"

    def _load_epoch(self) -> int:
        path = self._epoch_path()
        if path is None or not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text())
            epoch = payload.get("epoch")
            if isinstance(epoch, int) and not isinstance(epoch, bool) and epoch >= 0:
                return epoch
        except (OSError, ValueError):  # pragma: no cover - corrupt epoch file
            pass
        logger.warning("ricd: unreadable epoch file %s; starting at 0", path)
        return 0

    def _persist_epoch(self) -> None:
        path = self._epoch_path()
        if path is None:
            return
        try:
            from repro.ric.atomicio import atomic_write_text

            atomic_write_text(path, json.dumps({"epoch": self.epoch}))
        except OSError:  # pragma: no cover - epoch persistence best-effort
            logger.warning("ricd: could not persist epoch to %s", path)

    def _maybe_adopt_epoch(self, epoch) -> int:
        """Raise the fleet epoch to ``epoch`` if it is higher, dropping
        every record admitted under an older one (memory *and* disk —
        the write-through store would otherwise resurrect them after a
        restart or an LRU miss).  Returns how many records died."""
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            return 0
        with self._lock:
            if epoch <= self.epoch:
                return 0
            self.epoch = epoch
            self.epoch_bumps += 1
        # All cached entries were admitted under a lower epoch, so the
        # clear is exact, not approximate.
        evicted = self.cache.clear()
        if self.store is not None:
            evicted += self.store.clear()
        self._persist_epoch()
        return evicted

    # -- request dispatch ----------------------------------------------------

    def handle_request(self, message: dict) -> dict:
        protocol.check_version(message)
        op = message.get("op")
        with self._lock:
            self.requests += 1
        if op == "GET":
            return self._handle_get(message)
        if op == "PUT":
            return self._handle_put(message)
        if op == "STAT":
            return self._handle_stat()
        if op == "EVICT":
            return self._handle_evict(message)
        if op == "EVICT_EPOCH":
            return self._handle_evict_epoch(message)
        if op == "PING":
            return protocol.ok_response(pong=True, epoch=self.epoch)
        raise ProtocolError(f"unknown op {op!r}")

    def _handle_get(self, message: dict) -> dict:
        # Gossip first: a client that knows a higher fleet epoch
        # invalidates this shard before anything is looked up.
        self._maybe_adopt_epoch(message.get("epoch"))
        filename, src_hash, version = protocol.key_fields(message)
        key = protocol.cache_key(filename, src_hash, version)
        entry = self.cache.get(key)
        if entry is None and self.store is not None:
            # LRU miss: the backing store may still have it (written by a
            # previous daemon incarnation or evicted under pressure).
            # Epoch bumps cleared the store too, so surviving disk
            # records are current-epoch by construction.
            record = self.store.get_by_key(f"{filename}:{src_hash}")
            if record is not None:
                envelope = record_to_envelope(record)
                with self._lock:
                    self.store_fallback_hits += 1
                entry = (envelope, self.epoch)
                self.cache.put(key, entry, _envelope_bytes(envelope))
        if entry is None:
            return protocol.ok_response(hit=False, epoch=self.epoch)
        envelope, record_epoch = entry
        if record_epoch < self.epoch:  # pragma: no cover - belt and braces
            # Bumps clear eagerly; this lazy check only fires if an old
            # entry somehow survived (e.g. a poked cache in tests).
            self.cache.evict(key)
            return protocol.ok_response(hit=False, epoch=self.epoch)
        return protocol.ok_response(
            hit=True,
            envelope=envelope,
            epoch=self.epoch,
            record_epoch=record_epoch,
        )

    def _handle_put(self, message: dict) -> dict:
        client_epoch = message.get("epoch")
        self._maybe_adopt_epoch(client_epoch)
        if (
            isinstance(client_epoch, int)
            and not isinstance(client_epoch, bool)
            and client_epoch < self.epoch
        ):
            # The record was extracted under source the fleet has since
            # invalidated: refuse it so a slow publisher cannot
            # resurrect pre-bump state.
            with self._lock:
                self.puts_stale_epoch += 1
            return protocol.ok_response(
                stored=False,
                stale_epoch=True,
                epoch=self.epoch,
                error=(
                    f"record epoch {client_epoch} predates fleet epoch "
                    f"{self.epoch}"
                ),
            )
        filename, src_hash, version = protocol.key_fields(message)
        envelope = message.get("envelope")
        if not isinstance(envelope, dict):
            raise ProtocolError("PUT without an object 'envelope'")
        # Admission gate: record_from_envelope checks the checksum, the
        # structure and validate_record.  A failure refuses the PUT — and
        # only the PUT: the connection stays usable, the cache untouched.
        try:
            record = record_from_envelope(envelope)
        except RecordFormatError as exc:
            with self._lock:
                self.puts_rejected += 1
            return protocol.ok_response(
                stored=False, error=str(exc), epoch=self.epoch
            )
        key = protocol.cache_key(filename, src_hash, version)
        evicted = self.cache.put(
            key, (envelope, self.epoch), _envelope_bytes(envelope)
        )
        if evicted < 0:
            with self._lock:
                self.puts_rejected += 1
            return protocol.ok_response(
                stored=False,
                epoch=self.epoch,
                error="record larger than cache byte budget",
            )
        if self.store is not None:
            self.store.put_by_key(f"{filename}:{src_hash}", record)
        feedback_sites = len(record.site_feedback)
        feedback_tombstones = sum(
            1 for fb in record.site_feedback.values() if fb.mega
        )
        with self._lock:
            self.puts_accepted += 1
            if feedback_sites:
                self.feedback_records += 1
                self.feedback_sites += feedback_sites
                self.feedback_tombstones += feedback_tombstones
        return protocol.ok_response(stored=True, evicted=evicted, epoch=self.epoch)

    def _handle_stat(self) -> dict:
        return protocol.ok_response(
            cache=self.stats(),
            store=self.store_status(),
            health=self.health(),
            epoch=self.epoch,
        )

    def _handle_evict(self, message: dict) -> dict:
        if message.get("all"):
            return protocol.ok_response(evicted=self.cache.clear(), epoch=self.epoch)
        filename, src_hash, version = protocol.key_fields(message)
        key = protocol.cache_key(filename, src_hash, version)
        return protocol.ok_response(
            evicted=int(self.cache.evict(key)), epoch=self.epoch
        )

    def _handle_evict_epoch(self, message: dict) -> dict:
        epoch = message.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ProtocolError(f"EVICT_EPOCH needs a non-negative int epoch, got {epoch!r}")
        evicted = self._maybe_adopt_epoch(epoch)
        return protocol.ok_response(epoch=self.epoch, evicted=evicted)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        blob = self.cache.stats()
        with self._lock:
            blob.update(
                requests=self.requests,
                puts_accepted=self.puts_accepted,
                puts_rejected=self.puts_rejected,
                puts_stale_epoch=self.puts_stale_epoch,
                store_fallback_hits=self.store_fallback_hits,
                epoch=self.epoch,
                epoch_bumps=self.epoch_bumps,
                pid=os.getpid(),
            )
        return blob

    def store_status(self) -> dict | None:
        return self.store.status() if self.store is not None else None

    def health(self) -> dict:
        """Health/readiness blob for STAT, supervisors, and operators.

        ``ready`` is the readiness gate (serving and not draining);
        ``pressure`` is LRU occupancy as fractions of both bounds, the
        early-warning signal that the serving tier is about to start
        evicting.  ``version``/``protocol`` identify this daemon build
        for mixed-fleet rolling upgrades: a client seeing an unexpected
        pair knows *why* a verb just came back unknown.
        """
        from repro import __version__

        cache = self.cache
        with self._inflight_cond:
            inflight = self._inflight
            draining = self.draining
        return {
            "uptime_s": time.monotonic() - self._started_monotonic,
            "inflight": inflight,
            "draining": draining,
            "ready": bool(self._servers) and not draining,
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "epoch": self.epoch,
            "endpoints": self.endpoints,
            "pressure": {
                "records": len(cache),
                "max_records": cache.max_records,
                "records_frac": len(cache) / cache.max_records,
                "bytes": cache.bytes_used,
                "max_bytes": cache.max_bytes,
                "bytes_frac": cache.bytes_used / cache.max_bytes,
            },
            "specialize": {
                "records_with_feedback": self.feedback_records,
                "feedback_sites": self.feedback_sites,
                "feedback_tombstones": self.feedback_tombstones,
            },
        }


def _envelope_bytes(envelope: dict) -> int:
    return len(json.dumps(envelope, separators=(",", ":")).encode("utf-8"))
