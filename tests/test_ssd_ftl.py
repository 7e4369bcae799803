"""Tests for the page-mapping FTL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.geometry import PageType
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import FlashTranslationLayer, _fill_template, clear_fill_template
from repro.ssd.gc import GarbageCollector


@pytest.fixture()
def ftl():
    return FlashTranslationLayer(SsdConfig.tiny())


class TestMapping:
    def test_unmapped_lookup_returns_none(self, ftl):
        assert ftl.lookup(0) is None
        assert not ftl.is_mapped(0)

    def test_write_then_lookup(self, ftl):
        physical, old = ftl.write(7)
        assert old is None
        assert ftl.lookup(7) == physical
        assert ftl.is_mapped(7)

    def test_overwrite_invalidates_old_page(self, ftl):
        first, _ = ftl.write(7)
        second, invalidated = ftl.write(7)
        assert invalidated == first
        assert second != first
        old_block = ftl.plane_for(first).blocks[first.block]
        assert old_block.page_lpns[first.page] is None

    def test_writes_stripe_across_planes(self, ftl):
        locations = [ftl.write(lpn)[0] for lpn in range(8)]
        die_keys = {physical.die_key() for physical in locations}
        assert len(die_keys) > 1

    def test_lpn_out_of_range_rejected(self, ftl):
        with pytest.raises(ValueError):
            ftl.write(ftl.config.logical_pages)

    def test_mapped_pages_counter(self, ftl):
        for lpn in range(10):
            ftl.write(lpn)
        ftl.write(3)
        assert ftl.mapped_pages == 10

    def test_page_type_cycles(self, ftl):
        physical, _ = ftl.write(0, plane_index=0)
        assert ftl.page_type_of(physical) in PageType


class TestBlockMetadata:
    def test_retention_recorded_per_page(self, ftl):
        physical, _ = ftl.write(1, retention_months=9.0)
        assert ftl.retention_months_of(physical) == 9.0
        fresh, _ = ftl.write(2, retention_months=0.0)
        assert ftl.retention_months_of(fresh) == 0.0

    def test_uniform_pe_cycles(self, ftl):
        ftl.set_uniform_pe_cycles(1500)
        physical, _ = ftl.write(0)
        assert ftl.pe_cycles_of(physical) == 1500
        with pytest.raises(ValueError):
            ftl.set_uniform_pe_cycles(-1)

    def test_valid_counts_track_overwrites(self, ftl):
        physical, _ = ftl.write(5)
        block = ftl.block_metadata(physical)
        assert block.valid_count == 1
        ftl.write(5)
        assert block.valid_count == 0
        assert block.invalid_count == 1


class TestPlaneManager:
    def test_active_block_rolls_over_when_full(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        for lpn in range(pages_per_block + 1):
            ftl.write(lpn, plane_index=0)
        used_blocks = {entry for entry in (ftl.lookup(lpn).block
                                           for lpn in range(pages_per_block + 1))}
        assert len(used_blocks) == 2
        # One block is completely full; the newly opened active block still
        # counts toward the free pool.
        assert plane.free_block_count == ftl.config.blocks_per_plane - 1

    def test_erase_returns_block_to_free_pool(self, ftl):
        plane = ftl.planes[0]
        before = plane.free_block_count
        physical, _ = ftl.write(0, plane_index=0)
        pe_before = plane.blocks[physical.block].pe_cycles
        plane.erase(physical.block)
        assert plane.blocks[physical.block].pe_cycles == pe_before + 1
        assert plane.free_block_count == before

    def test_gc_victim_prefers_most_invalid(self, ftl):
        plane = ftl.planes[0]
        pages_per_block = ftl.config.pages_per_block
        # Fill two blocks on plane 0, then invalidate most of the first one.
        for lpn in range(2 * pages_per_block):
            ftl.write(lpn, plane_index=0)
        for lpn in range(pages_per_block - 2):
            ftl.write(lpn, plane_index=1)  # rewrite elsewhere -> invalidate
        victim = plane.gc_victim()
        assert victim is not None
        assert plane.blocks[victim].invalid_count >= pages_per_block - 2

    def test_wear_leveling_prefers_low_pe_blocks(self, ftl):
        plane = ftl.planes[0]
        # Artificially wear every block except block 5; the next block the
        # allocator opens must be the least-worn one.
        for block in plane.blocks:
            block.pe_cycles = 100
        plane.blocks[5].pe_cycles = 1
        physical, _ = ftl.write(0, plane_index=0)
        assert physical.block == 5

    def test_needs_gc_threshold(self, ftl):
        plane = ftl.planes[0]
        assert not plane.needs_gc()


def _loop_preconditioned(config, pages, retention_months, pe_cycles):
    """The per-LPN reference: write each LPN in order, then age uniformly."""
    ftl = FlashTranslationLayer(config)
    for lpn in range(pages):
        ftl.write(lpn, retention_months=retention_months)
    ftl.set_uniform_pe_cycles(pe_cycles)
    return ftl


def _assert_ftl_state_equal(filled, looped):
    assert filled._mapping == looped._mapping
    # Mapping *insertion order* feeds iteration downstream; compare it too.
    assert list(filled._mapping) == list(looped._mapping)
    assert filled._next_plane == looped._next_plane
    for plane_fill, plane_loop in zip(filled.planes, looped.planes):
        assert plane_fill._active_block == plane_loop._active_block
        assert plane_fill._filled_blocks == plane_loop._filled_blocks
        assert plane_fill._free_blocks == plane_loop._free_blocks
        for block_fill, block_loop in zip(plane_fill.blocks,
                                          plane_loop.blocks):
            assert block_fill.page_lpns == block_loop.page_lpns
            assert (block_fill.page_retention_months
                    == block_loop.page_retention_months)
            assert block_fill.next_free_page == block_loop.next_free_page
            assert block_fill.valid_count == block_loop.valid_count
            assert block_fill.pe_cycles == block_loop.pe_cycles


class TestPreconditionFillEquivalence:
    @given(st.integers(min_value=0, max_value=1),
           st.sampled_from([0.0, 0.1, 0.5, 0.62, 0.85, 1.0]))
    @settings(max_examples=12, deadline=None)
    def test_closed_form_matches_write_loop(self, aged, fill_fraction):
        config = SsdConfig.tiny()
        pages = int(config.logical_pages * fill_fraction)
        retention = 6.0 if aged else 0.0
        pe_cycles = 1000 if aged else 0
        filled = FlashTranslationLayer(config)
        filled.precondition_fill(pages, retention_months=retention,
                                 pe_cycles=pe_cycles)
        looped = _loop_preconditioned(config, pages, retention, pe_cycles)
        _assert_ftl_state_equal(filled, looped)

    def test_non_fresh_ftl_is_rejected(self):
        config = SsdConfig.tiny()
        written = FlashTranslationLayer(config)
        written.write(3)  # any prior write voids the fill's layout
        with pytest.raises(ValueError, match="needs a fresh FTL"):
            written.precondition_fill(16, retention_months=6.0, pe_cycles=500)
        # The rejected call leaves the FTL as it was.
        expected = FlashTranslationLayer(config)
        expected.write(3)
        _assert_ftl_state_equal(written, expected)


def _preconditioned(config, pages, retention_months, pe_cycles):
    ftl = FlashTranslationLayer(config)
    ftl.precondition_fill(pages, retention_months=retention_months, pe_cycles=pe_cycles)
    return ftl


def _pristine_template(config, pages):
    template = FlashTranslationLayer(config)
    template._closed_form_fill(pages)
    return template


class TestFillTemplate:
    @given(st.sampled_from([0.0, 0.1, 0.5, 0.62, 0.85, 1.0]),
           st.sampled_from([(0, 0.0), (1000, 6.0), (2000, 12.0), (3000, 0.0)]),
           st.sampled_from([(0, 0.0), (500, 1.0)]))
    @settings(max_examples=24, deadline=None)
    def test_clone_matches_closed_form_and_write_loop(self, fill_fraction, aged, earlier):
        config = SsdConfig.tiny()
        pages = int(config.logical_pages * fill_fraction)
        pe_cycles, retention = aged
        looped = _loop_preconditioned(config, pages, retention, pe_cycles)
        clear_fill_template()
        cold = _preconditioned(config, pages, retention, pe_cycles)
        # A warm clone reuses the template a different condition built.
        clear_fill_template()
        _preconditioned(config, pages, earlier[1], earlier[0])
        template = _fill_template(config, pages)
        warm = _preconditioned(config, pages, retention, pe_cycles)
        assert _fill_template(config, pages) is template
        _assert_ftl_state_equal(cold, looped)
        _assert_ftl_state_equal(warm, looped)
        _assert_ftl_state_equal(template, _pristine_template(config, pages))

    def test_clones_share_no_mutable_state(self):
        config = SsdConfig.tiny()
        pages = int(config.logical_pages * 0.85)
        clear_fill_template()
        mutated = _preconditioned(config, pages, 6.0, 1000)
        sibling = _preconditioned(config, pages, 6.0, 1000)
        template = _fill_template(config, pages)
        # Overwrites invalidate cloned pages and fill the active blocks, GC
        # relocates and erases, and a direct erase resets a cloned block.
        collector = GarbageCollector(mutated)
        for _ in range(3):
            for lpn in range(0, pages, 3):
                mutated.write(lpn)
                collector.collect_if_needed()
        assert collector.stats.erased_blocks > 0
        mutated.planes[0].erase(0)
        mutated.trim(1)
        assert not mutated.is_mapped(1)
        _assert_ftl_state_equal(sibling, _preconditioned(config, pages, 6.0, 1000))
        _assert_ftl_state_equal(template, _pristine_template(config, pages))
        assert _fill_template(config, pages) is template

    def test_new_geometry_replaces_the_template(self):
        clear_fill_template()
        tiny = SsdConfig.tiny()
        first = _fill_template(tiny, 100)
        assert _fill_template(tiny, 100) is first
        other = _fill_template(tiny, 101)
        assert other is not first
        assert _fill_template(tiny, 100) is not first
