"""Memory accounting for the §7.3 overhead analysis.

Compares the serialized ICRecord footprint against the guest heap usage of
the workload — the paper reports 11–118 KB of ICRecord vs 2.6–5.6 MB of
heap (≈1%)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ric.icrecord import ICRecord
from repro.ric.serialize import record_size_bytes
from repro.stats.profile import RunProfile


@dataclass(frozen=True)
class MemoryOverhead:
    """ICRecord size relative to workload heap usage."""

    icrecord_bytes: int
    heap_bytes: int

    @property
    def icrecord_kb(self) -> float:
        return self.icrecord_bytes / 1024.0

    @property
    def overhead_fraction(self) -> float:
        if self.heap_bytes == 0:
            return 0.0
        return self.icrecord_bytes / self.heap_bytes


def measure_memory_overhead(record: ICRecord, profile: RunProfile) -> MemoryOverhead:
    """Compute the §7.3 memory comparison for one workload."""
    return MemoryOverhead(
        icrecord_bytes=record_size_bytes(record),
        heap_bytes=profile.heap_bytes,
    )
