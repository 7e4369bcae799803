"""Greedy garbage collection.

When a plane's free-block pool drops below the configured threshold, the
garbage collector picks the filled block with the most invalid pages,
relocates its still-valid pages to the plane's active block and erases it.
Relocations are issued as internal flash transactions so they compete with
host traffic for die time (which is how GC pressure shows up in response
times), but the mapping update itself is performed eagerly — the simulator
does not track data contents, only timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.ssd.ftl import FlashTranslationLayer, PhysicalPage


@dataclass
class GcOperation:
    """The work generated by collecting one victim block."""

    plane_index: int
    victim_block: int
    #: Pages that must be read and re-programmed before the erase.
    relocations: List[PhysicalPage] = field(default_factory=list)
    #: Where each relocated page landed.
    destinations: List[PhysicalPage] = field(default_factory=list)
    #: Translation-page traffic the relocations caused: batched DFTL mapping
    #: updates under ``mapping="page"``, always empty under block mapping.
    translation_ops: list = field(default_factory=list)

    @property
    def relocated_pages(self) -> int:
        return len(self.relocations)


@dataclass
class GcStatistics:
    """Aggregate garbage-collection counters."""

    invocations: int = 0
    erased_blocks: int = 0
    relocated_pages: int = 0

    def write_amplification(self, host_programs: int) -> float:
        """(host + GC programs) / host programs."""
        if host_programs <= 0:
            return 1.0
        return (host_programs + self.relocated_pages) / host_programs


class GarbageCollector:
    """Greedy, plane-local garbage collection."""

    def __init__(self, ftl: FlashTranslationLayer):
        self.ftl = ftl
        self.stats = GcStatistics()

    def collect_plane(self, plane_index: int) -> Optional[GcOperation]:
        """Collect one victim block of a plane (if any candidate exists)."""
        plane = self.ftl.planes[plane_index]
        victim = plane.gc_victim()
        if victim is None:
            return None
        operation = GcOperation(plane_index=plane_index, victim_block=victim)
        block = plane.blocks[victim]
        for page, lpn in enumerate(block.page_lpns):
            if lpn is None:
                continue
            source = PhysicalPage(plane.channel, plane.die, plane.plane, victim, page)
            retention = block.page_retention_months[page]
            # Relocated data keeps its retention age: copying a page does not
            # refresh the host's perception of the data, and the paper's cold
            # pages stay cold even if GC moves them.  (Strictly, a re-program
            # resets the physical retention clock; modelling it as retained
            # keeps cold pages cold, which is the conservative choice for
            # read-retry behaviour and matches the paper's per-page aging.)
            destination, _ = self.ftl.write(
                lpn, retention_months=retention, plane_index=plane_index
            )
            operation.relocations.append(source)
            operation.destinations.append(destination)
        plane.erase(victim)
        self.stats.invocations += 1
        self.stats.erased_blocks += 1
        self.stats.relocated_pages += operation.relocated_pages
        return operation

    def collect_if_needed(self) -> List[GcOperation]:
        """Collect every plane currently below its free-block threshold."""
        operations = []
        for plane_index in self.ftl.planes_needing_gc():
            operation = self.collect_plane(plane_index)
            if operation is not None:
                operations.append(operation)
        return operations
