"""The artifact layer: immutable, thread-shareable compiled scripts.

The paper reuses bytecode through the code cache (§8.1) and keeps RIC
state per file, applied to each run (§9).  This module holds the first
half.  A :class:`ScriptArtifact` is one script's identity (content
hash) and its compiled generic :class:`~repro.bytecode.code.CodeObject`
tree: everything about the script that is the same in every run.  Any
number of concurrent :class:`~repro.core.session.RunSession` instances
may consume one artifact at once.  Nothing in it is mutated after
publication: the compiler and optimizer finish before the artifact is
built, and the VM threads bytecode into *per-VM* caches.  Records are
not part of an artifact.  A session admits its run's records and
quickens a clone of the tree that is private to it, so a deopt patches
that clone only.

:class:`ArtifactCache` is the shared, thread-safe home of artifacts with
**single-flight** compiles: when N sessions cold-start the same source
concurrently, exactly one thread compiles; the other N-1 block until
the artifact is published and then share it.  Joiners of a failed build
re-raise the builder's exception, and the in-flight entry is dropped so
a later call retries.

Counter compatibility: the pre-artifact engine consulted the
:class:`~repro.bytecode.cache.CodeCache` once per script per run, so
``code_cache.hits``/``misses`` meant "runs that skipped / did not skip
the frontend".  The artifact cache preserves that meaning — a warm
artifact hit calls :meth:`CodeCache.note_hit` instead of doing a
redundant lookup, and a build delegates the real lookup (and its hit or
miss count) to the cache.  Each ``get_or_build`` therefore contributes
exactly one count, and reports which one via its ``frontend_skipped``
return flag so sessions can keep per-run ``bytecode_cache_*`` counters
without reading racy global deltas.
"""

from __future__ import annotations

import threading
import typing
from dataclasses import dataclass, field

from repro.bytecode.cache import CodeCache, source_hash
from repro.bytecode.code import CodeObject
from repro.bytecode.compiler import compile_source


@dataclass(frozen=True)
class ScriptArtifact:
    """Everything run-invariant about one script, shareable across threads.

    Immutable by construction; the generic ``code`` tree is never
    mutated after publication (see module docstring), so one instance
    may back any number of concurrent sessions.
    """

    filename: str
    source: str
    source_hash: str
    #: ``filename:source_hash`` — the identity used by the code cache,
    #: the record store, and record trust checks alike.
    key: str
    code: CodeObject

    @property
    def bytecode_heap_bytes(self) -> int:
        """Total heap charge a session books for this script's bytecode,
        summed over the tree.  A quickened clone books the same bytes:
        quickening rewrites instructions 1:1 and shares every pool."""
        return sum(
            16 * len(nested.instructions)
            + 8 * len(nested.constants)
            + 24 * len(nested.feedback_slots)
            for nested in self.code.iter_code_objects()
        )


class ArtifactBuilder:
    """Compiles sources into artifacts, via the shared code cache.

    Stateless apart from its references; safe to call from any thread
    (the underlying :class:`CodeCache` is internally locked).
    """

    def __init__(self, code_cache: CodeCache, optimize: bool = True):
        self.code_cache = code_cache
        self.optimize = optimize

    def compile(self, filename: str, source: str) -> "tuple[CodeObject, bool]":
        """Compile through the code cache; returns ``(code, hit)`` where
        ``hit`` is True iff the frontend was skipped."""
        code = self.code_cache.lookup(filename, source)
        if code is not None:
            return code, True
        code = compile_source(source, filename)
        if self.optimize:
            from repro.bytecode.optimizer import optimize_code

            optimize_code(code)
        self.code_cache.store(filename, source, code)
        return code, False

    def build(self, filename: str, source: str) -> "tuple[ScriptArtifact, bool]":
        """Build one artifact; returns ``(artifact, frontend_skipped)``."""
        code, hit = self.compile(filename, source)
        digest = source_hash(source)
        artifact = ScriptArtifact(
            filename=filename,
            source=source,
            source_hash=digest,
            key=f"{filename}:{digest}",
            code=code,
        )
        return artifact, hit


class _Flight:
    """One in-progress build other threads can join."""

    __slots__ = ("event", "artifact", "error")

    def __init__(self):
        self.event = threading.Event()
        self.artifact: ScriptArtifact | None = None
        self.error: BaseException | None = None


@dataclass
class ArtifactCacheStats:
    """Build/hit/join tallies, snapshot under the cache lock."""

    hits: int = 0
    builds: int = 0
    joins: int = 0
    extra: dict = field(default_factory=dict)


class ArtifactCache:
    """Thread-safe artifact cache with single-flight compiles.

    One instance is shared by an engine's facade path, every concurrent
    executor session, and anything else that wants warm artifacts.  The
    invariant under concurrency: for one (filename, source hash), at
    most one compile is ever in flight, no matter how many sessions
    cold-start it at once.
    """

    def __init__(self, builder: ArtifactBuilder):
        self.builder = builder
        self._entries: dict[str, ScriptArtifact] = {}
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._builds = 0
        self._joins = 0

    def get_or_build(
        self, filename: str, source: str
    ) -> "tuple[ScriptArtifact, bool]":
        """Return ``(artifact, frontend_skipped)`` for one script.

        Exceptions from the underlying build (e.g.
        :class:`~repro.lang.errors.JSLSyntaxError`) propagate to the
        building thread *and* to every joiner of that flight; failed
        builds are not cached, so a later call retries.
        """
        key = f"{filename}:{source_hash(source)}"
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._hits += 1
                self.builder.code_cache.note_hit()
                return artifact, True
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
        if not leader:
            # Another thread is compiling this script: join its flight.
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self._joins += 1
            self.builder.code_cache.note_hit()
            return flight.artifact, True
        try:
            artifact, hit = self.builder.build(filename, source)
        except BaseException as exc:
            with self._lock:
                flight.error = exc
                self._flights.pop(key, None)
                flight.event.set()
            raise
        with self._lock:
            self._entries[key] = artifact
            self._builds += 1
            flight.artifact = artifact
            self._flights.pop(key, None)
            flight.event.set()
        return artifact, hit

    def get_many(
        self, scripts: "typing.Sequence[tuple[str, str]]"
    ) -> "list[tuple[ScriptArtifact, bool]]":
        """Artifacts for a whole workload, in script order."""
        return [self.get_or_build(filename, source) for filename, source in scripts]

    def invalidate(self, filename: str, source: str) -> bool:
        """Drop one artifact entirely (source semantics changed, or tests
        forcing a rebuild).  Returns True if present."""
        key = f"{filename}:{source_hash(source)}"
        with self._lock:
            return self._entries.pop(key, None) is not None

    def stats(self) -> ArtifactCacheStats:
        with self._lock:
            return ArtifactCacheStats(
                hits=self._hits,
                builds=self._builds,
                joins=self._joins,
                extra={"entries": len(self._entries)},
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
