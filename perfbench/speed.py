"""Host-speed reference: rescales wall times to a fixed nominal speed.

On a shared host the CPU's throughput can swing by almost 2x within
seconds (frequency scaling, neighbours on sibling cores); process CPU
time swings with it, so neither clock alone gives run-to-run stable
numbers.  The probe times a fixed unit of pure-Python work that does not
touch the program between consecutive timed intervals.  An interval's
*scale* is ``NOMINAL_MS`` over the median of the samples just before and
just after it plus one more on each side: the median follows swings
that last a second or more and ignores a single sample hit by an
interrupt.  A time multiplied by its scale reads as it would on a host
where the unit takes ``NOMINAL_MS``.
A change to the program moves the interval and not the unit, so it
shows in the rescaled time in full.  While the unit runs, the program's
heap is parked in the collector's permanent generation (``gc.freeze``).
The young collections the unit's allocations trigger are part of the
work it mirrors, but a full collection inside it would otherwise walk
the program's live heap, and a change that grows or shrinks that heap
would then move the unit too.  With the collector off instead, the unit
tracked ``hot-exec`` loads worse: the ten-seed spread of ``load_ms.p50``
was 6.9%, against 3.9% with the heap frozen out.

The unit allocates a heap of small objects and walks it in a scrambled
order, as the engine does with its own heap.  Measured against engine
loads on a shared 2-CPU host, its time moved in proportion to theirs
(fitted exponent 1.0), where a small cache-resident loop moved more than
they did (exponent 0.7) and over-corrected.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The unit's time on the host the nominal speed is defined by.
NOMINAL_MS = 15.0

_OBJECTS = 8000
_WALK = random.Random(1).sample(range(_OBJECTS), _OBJECTS)


class _Node:
    __slots__ = ("props", "next")

    def __init__(self, i: int):
        self.props = {"x": i, "y": i * 2, "name": f"n{i % 50}"}
        self.next = None


def reference_unit() -> int:
    """Build a linked heap of objects with dict properties, then walk it."""
    nodes = [_Node(i) for i in range(_OBJECTS)]
    for a, b in zip(_WALK, _WALK[1:]):
        nodes[a].next = nodes[b]
    total = 0
    node = nodes[_WALK[0]]
    while node is not None:
        total += node.props["x"] + len(node.props["name"])
        node = node.next
    return total


class SpeedProbe:
    """Times the reference unit between intervals; see the module docstring."""

    def __init__(self):
        self._samples: list[float] = []
        self.sample()

    def sample(self) -> int:
        """Time the unit once; returns the sample's index."""
        gc.freeze()
        try:
            start = time.perf_counter()
            reference_unit()
            elapsed = time.perf_counter() - start
        finally:
            gc.unfreeze()
        self._samples.append(elapsed * 1000.0)
        return len(self._samples) - 1

    def latest(self) -> int:
        return len(self._samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Scale of the interval between samples ``before`` and ``after``;
        read it once the next sample exists, or it uses one side less."""
        window = self._samples[max(0, before - 1) : after + 2]
        return NOMINAL_MS / statistics.median(window)
