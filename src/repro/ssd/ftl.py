"""Flash translation layer: page-level mapping and block allocation.

The FTL maps logical page numbers (LPNs) onto physical pages spread across
every plane of the SSD (channel-first striping, so consecutive writes go to
different dies and can proceed in parallel).  Each plane keeps one *active*
block that absorbs new writes; when it fills, the wear-leveling allocator
opens the free block with the lowest P/E-cycle count.

The FTL also keeps the per-block metadata the read-retry study needs: the
block's P/E-cycle count and, per page, the retention age of the stored data
(pages written during preconditioning carry the experiment's cold-data
retention age; pages rewritten at run time are fresh).  Preconditioning
clones one process-wide template of the closed-form fill instead of
recomputing it per device (:meth:`FlashTranslationLayer.precondition_fill`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.ssd.config import SsdConfig


class PhysicalPage:
    """Physical location of one page.

    A hand-written ``__slots__`` value class rather than a frozen dataclass:
    one is built per mapping lookup and per page allocation, so construction
    cost is hot-path cost (a frozen dataclass pays five ``object.__setattr__``
    calls per instance).  Treated as immutable by convention everywhere.
    """

    __slots__ = ("channel", "die", "plane", "block", "page")

    def __init__(self, channel: int, die: int, plane: int, block: int,
                 page: int):
        self.channel = channel
        self.die = die
        self.plane = plane
        self.block = block
        self.page = page

    def die_key(self) -> Tuple[int, int]:
        return (self.channel, self.die)

    def __eq__(self, other):
        if not isinstance(other, PhysicalPage):
            return NotImplemented
        return (self.channel == other.channel and self.die == other.die
                and self.plane == other.plane and self.block == other.block
                and self.page == other.page)

    def __hash__(self):
        return hash((self.channel, self.die, self.plane, self.block,
                     self.page))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PhysicalPage(channel={self.channel!r}, die={self.die!r}, "
                f"plane={self.plane!r}, block={self.block!r}, "
                f"page={self.page!r})")


@dataclass
class BlockMetadata:
    """Mutable state of one physical block."""

    block_id: int
    pe_cycles: int = 0
    next_free_page: int = 0
    valid_count: int = 0
    #: LPN stored in each page (``None`` = free or invalidated).
    page_lpns: List[Optional[int]] = field(default_factory=list)
    #: Retention age (months) of the data in each page.
    page_retention_months: List[float] = field(default_factory=list)

    def initialize(self, pages_per_block: int) -> None:
        self.next_free_page = 0
        self.valid_count = 0
        self.page_lpns = [None] * pages_per_block
        self.page_retention_months = [0.0] * pages_per_block

    @property
    def is_full(self) -> bool:
        return self.next_free_page >= len(self.page_lpns)

    @property
    def invalid_count(self) -> int:
        return self.next_free_page - self.valid_count


class PlaneManager:
    """Free-block pool, active block and block metadata of one plane."""

    def __init__(self, config: SsdConfig, channel: int, die: int, plane: int):
        self.config = config
        self.channel = channel
        self.die = die
        self.plane = plane
        self.blocks: List[BlockMetadata] = []
        for block_id in range(config.blocks_per_plane):
            metadata = BlockMetadata(block_id=block_id)
            metadata.initialize(config.pages_per_block)
            self.blocks.append(metadata)
        self._free_blocks: List[int] = list(range(config.blocks_per_plane))
        self._active_block: Optional[int] = None
        self._filled_blocks: List[int] = []

    # -- free-block pool ----------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        count = len(self._free_blocks)
        if self._active_block is not None:
            count += 1
        return count

    def needs_gc(self) -> bool:
        return len(self._free_blocks) < self.config.gc_free_block_threshold

    def _open_new_active_block(self) -> None:
        if not self._free_blocks:
            raise RuntimeError(
                f"plane ({self.channel},{self.die},{self.plane}) ran out of "
                "free blocks; garbage collection fell behind"
            )
        # Wear leveling: pick the free block with the lowest P/E-cycle count.
        self._free_blocks.sort(key=lambda block_id: self.blocks[block_id].pe_cycles)
        self._active_block = self._free_blocks.pop(0)

    # -- page allocation -----------------------------------------------------------
    def allocate_page(self, lpn: int, retention_months: float = 0.0) -> PhysicalPage:
        """Allocate the next free page of the active block for ``lpn``."""
        if self._active_block is None or self.blocks[self._active_block].is_full:
            if self._active_block is not None:
                self._filled_blocks.append(self._active_block)
            self._open_new_active_block()
        block = self.blocks[self._active_block]
        page = block.next_free_page
        block.page_lpns[page] = lpn
        block.page_retention_months[page] = retention_months
        block.next_free_page += 1
        block.valid_count += 1
        return PhysicalPage(self.channel, self.die, self.plane, self._active_block, page)

    def invalidate(self, block_id: int, page: int) -> None:
        block = self.blocks[block_id]
        if block.page_lpns[page] is None:
            return
        block.page_lpns[page] = None
        block.valid_count -= 1

    def erase(self, block_id: int) -> None:
        """Erase a block and return it to the free pool."""
        block = self.blocks[block_id]
        block.pe_cycles += 1
        block.initialize(self.config.pages_per_block)
        if block_id in self._filled_blocks:
            self._filled_blocks.remove(block_id)
        if block_id == self._active_block:
            self._active_block = None
        if block_id not in self._free_blocks:
            self._free_blocks.append(block_id)

    # -- GC victim selection ------------------------------------------------------------
    def gc_victim(self) -> Optional[int]:
        """Block with the most invalid pages among the full blocks (greedy)."""
        candidates = [block_id for block_id in self._filled_blocks if self.blocks[block_id].is_full]
        if self._active_block is not None and self.blocks[self._active_block].is_full:
            candidates.append(self._active_block)
        if not candidates:
            return None
        return max(candidates, key=lambda block_id: self.blocks[block_id].invalid_count)

    def set_pe_cycles(self, pe_cycles: int) -> None:
        for block in self.blocks:
            block.pe_cycles = pe_cycles


class FlashTranslationLayer:
    """Page-level mapping FTL with channel-first striping."""

    def __init__(self, config: SsdConfig):
        self.config = config
        self.planes: List[PlaneManager] = []
        for channel in range(config.channels):
            for die in range(config.dies_per_channel):
                for plane in range(config.planes_per_die):
                    self.planes.append(PlaneManager(config, channel, die, plane))
        self._mapping: Dict[int, Tuple[int, int, int]] = {}
        self._next_plane = 0

    # -- lookups -----------------------------------------------------------------------
    def plane_index(self, channel: int, die: int, plane: int) -> int:
        return (channel * self.config.dies_per_channel + die) * self.config.planes_per_die + plane

    def plane_for(self, physical: PhysicalPage) -> PlaneManager:
        return self.planes[self.plane_index(physical.channel, physical.die, physical.plane)]

    def lookup(self, lpn: int) -> Optional[PhysicalPage]:
        """Physical location of a logical page (``None`` if never written)."""
        entry = self._mapping.get(lpn)
        if entry is None:
            return None
        plane_index, block, page = entry
        plane = self.planes[plane_index]
        return PhysicalPage(plane.channel, plane.die, plane.plane, block, page)

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self._mapping

    def page_type_of(self, physical: PhysicalPage) -> PageType:
        return PAGE_TYPE_ORDER[physical.page % len(PAGE_TYPE_ORDER)]

    def block_metadata(self, physical: PhysicalPage) -> BlockMetadata:
        return self.plane_for(physical).blocks[physical.block]

    def retention_months_of(self, physical: PhysicalPage) -> float:
        return self.block_metadata(physical).page_retention_months[physical.page]

    def pe_cycles_of(self, physical: PhysicalPage) -> int:
        return self.block_metadata(physical).pe_cycles

    # -- updates -------------------------------------------------------------------------
    def write(
        self, lpn: int, retention_months: float = 0.0, plane_index: int = None
    ) -> Tuple[PhysicalPage, Optional[PhysicalPage]]:
        """Map ``lpn`` to a newly allocated page.

        :return: ``(new_physical_page, invalidated_physical_page_or_None)``.
        """
        if lpn < 0 or lpn >= self.config.logical_pages:
            raise ValueError(f"LPN {lpn} outside the logical space")
        old_physical = self.lookup(lpn)
        if old_physical is not None:
            self.plane_for(old_physical).invalidate(old_physical.block, old_physical.page)
        if plane_index is None:
            plane_index = self._next_plane
            self._next_plane = (self._next_plane + 1) % len(self.planes)
        plane = self.planes[plane_index]
        physical = plane.allocate_page(lpn, retention_months)
        self._mapping[lpn] = (plane_index, physical.block, physical.page)
        return physical, old_physical

    def trim(self, lpn: int) -> bool:
        """Unmap ``lpn`` (host TRIM/discard), invalidating its page.

        :return: whether the LPN was mapped (a trim of a never-written or
            already-trimmed page is a no-op).
        """
        entry = self._mapping.pop(lpn, None)
        if entry is None:
            return False
        plane_index, block, page = entry
        self.planes[plane_index].invalidate(block, page)
        return True

    def set_uniform_pe_cycles(self, pe_cycles: int) -> None:
        """Install the experiment's P/E-cycle count on every block."""
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        for plane in self.planes:
            plane.set_pe_cycles(pe_cycles)

    def precondition_fill(
        self, pages: int, retention_months: float = 0.0, pe_cycles: int = 0
    ) -> None:
        """Bulk preconditioning: fill LPNs 0..pages-1 and set a uniform wear.

        Produces the *exact* state that ``write(lpn, retention_months)`` for
        every LPN in order followed by :meth:`set_uniform_pe_cycles` would.
        The layout depends only on ``(config, pages)``, so it is built once
        per process (:func:`_fill_template`) and each FTL clones it: a
        ``dict.copy()`` of the mapping (insertion order kept, immutable
        entries shared), slice copies of the block and plane lists, and the
        retention age and P/E count applied per clone.  One template thus
        serves every condition of a sweep and every device of a fleet.
        """
        if pages < 0 or pages > self.config.logical_pages:
            raise ValueError(
                f"cannot precondition {pages} pages into a "
                f"logical space of {self.config.logical_pages}"
            )
        if pe_cycles < 0:
            raise ValueError("pe_cycles must be non-negative")
        if self._mapping or self._next_plane or any(
            plane._active_block is not None or plane._filled_blocks for plane in self.planes
        ):
            raise ValueError(
                "precondition_fill needs a fresh FTL: the fill's layout assumes no block "
                "has been written yet, and this FTL already holds data"
            )
        template = _fill_template(self.config, pages)
        self._mapping = template._mapping.copy()
        self._next_plane = template._next_plane
        for plane, source in zip(self.planes, template.planes):
            plane._active_block = source._active_block
            plane._filled_blocks = source._filled_blocks[:]
            plane._free_blocks = source._free_blocks[:]
            for block, filled in zip(plane.blocks, source.blocks):
                fill = filled.next_free_page
                if not fill:
                    break  # blocks fill in ascending id order
                block.page_lpns = filled.page_lpns[:]
                block.page_retention_months[:fill] = [retention_months] * fill
                block.next_free_page = block.valid_count = fill
        self.set_uniform_pe_cycles(pe_cycles)

    def _closed_form_fill(self, pages: int) -> None:
        """Lay out LPNs 0..pages-1 as the per-LPN write loop would, in bulk.

        Round-robin plane striping (LPN ``n`` lands on plane ``n % planes``
        as its ``n // planes``-th write), blocks opened in ascending id
        order (the wear-leveling sort is stable and every block starts at
        the same P/E count), pages filled sequentially.  Retention ages and
        P/E counts are left at zero for the clones to set.
        """
        plane_count = len(self.planes)
        pages_per_block = self.config.pages_per_block
        for plane_index, plane in enumerate(self.planes):
            writes = (pages - plane_index + plane_count - 1) // plane_count
            if writes <= 0:
                continue
            full_blocks, partial = divmod(writes, pages_per_block)
            last_block = full_blocks if partial else full_blocks - 1
            for block_id in range(last_block + 1):
                block = plane.blocks[block_id]
                fill = partial if (block_id == last_block and partial) else pages_per_block
                base = block_id * pages_per_block
                block.page_lpns[:fill] = [
                    (base + page) * plane_count + plane_index for page in range(fill)
                ]
                block.next_free_page = fill
                block.valid_count = fill
            plane._filled_blocks = list(range(last_block))
            plane._active_block = last_block
            plane._free_blocks = list(range(last_block + 1, self.config.blocks_per_plane))
        # Build the mapping in one vectorized pass (ascending LPN order,
        # matching the loop's insertion order).  ``tolist()`` matters: the
        # mapping must hold Python ints, not numpy scalars, so that every
        # PhysicalPage built from it stays identical to one the allocator
        # would have produced.
        lpns = np.arange(pages, dtype=np.int64)
        slots, plane_indices = np.divmod(lpns, plane_count)
        block_ids, page_indices = np.divmod(slots, pages_per_block)
        entries = zip(plane_indices.tolist(), block_ids.tolist(), page_indices.tolist())
        self._mapping = dict(zip(range(pages), entries))
        self._next_plane = pages % plane_count

    # -- statistics ----------------------------------------------------------------------
    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    def total_free_blocks(self) -> int:
        return sum(plane.free_block_count for plane in self.planes)

    def planes_needing_gc(self) -> List[int]:
        return [index for index, plane in enumerate(self.planes) if plane.needs_gc()]


#: The process's one fill template: ``(config, pages)`` -> the FTL laid out
#: by :meth:`FlashTranslationLayer._closed_form_fill`.  A single entry is
#: enough because a sweep or fleet preconditions every device with the same
#: geometry and fill fraction; a new key replaces it.
_FILL_TEMPLATE: Dict[Tuple[SsdConfig, int], FlashTranslationLayer] = {}


def _fill_template(config: SsdConfig, pages: int) -> FlashTranslationLayer:
    """The shared closed-form fill of ``pages`` LPNs (never mutated)."""
    key = (config, pages)
    template = _FILL_TEMPLATE.get(key)
    if template is None:
        template = FlashTranslationLayer(config)
        template._closed_form_fill(pages)
        _FILL_TEMPLATE.clear()
        _FILL_TEMPLATE[key] = template
    return template


def clear_fill_template() -> None:
    """Drop the cached fill template (cold-start and test isolation hook)."""
    _FILL_TEMPLATE.clear()
