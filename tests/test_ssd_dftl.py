"""Tests for the DFTL page-mapped FTL: CMT/GTD, GC invariants, integration.

Unit tests pin the mapper's mechanics (LRU caching, dirty write-back,
batched translation updates, watermark-driven GC, wear-leveled allocation);
Hypothesis storms assert the structural invariants — no valid page is ever
lost, P/E counts only grow, and the mapping/GTD/OOB views always agree —
after arbitrary write/trim sequences with GC running; the integration tests
drive the full simulator in ``mapping="page"`` mode and check that the
wear-dynamics counters flow into :class:`SimulationMetrics`, sweep rows and
fleet aggregation.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rpt import ReadTimingParameterTable
from repro.sim.fleet import FleetResult, FleetSpec
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SimulationResult, SsdSimulator
from repro.ssd.dftl import GC_STREAM, HOST_STREAM, TRANS_STREAM, DftlMapper
from repro.ssd.metrics import SimulationMetrics
from repro.workloads import catalog_workload


def small_config(**overrides) -> SsdConfig:
    """One plane of 10 x 4-page blocks: every structure is inspectable."""
    parameters = dict(channels=1, dies_per_channel=1, planes_per_die=1,
                      blocks_per_plane=10, pages_per_block=4,
                      write_buffer_pages=4, overprovisioning=0.25,
                      mapping="page", cmt_capacity_entries=4,
                      translation_entries_per_page=4,
                      gc_free_block_threshold=3, gc_stop_free_blocks=4)
    parameters.update(overrides)
    return SsdConfig(**parameters)


class TestCachedMappingTable:
    def test_miss_then_hit(self):
        mapper = DftlMapper(small_config())
        mapper.write(0)
        assert (mapper.cmt_hits, mapper.cmt_misses) == (0, 1)
        physical, ops = mapper.lookup(0, now_us=0.0)
        assert physical is not None
        assert ops == []
        assert (mapper.cmt_hits, mapper.cmt_misses) == (1, 1)

    def test_miss_on_persisted_region_reads_translation_page(self):
        mapper = DftlMapper(small_config())
        mapper.precondition_fill(pages=8)
        assert mapper.cached_entries == 0  # CMT starts cold
        physical, ops = mapper.lookup(0, now_us=0.0)
        assert physical is not None
        assert [op.kind for op in ops] == ["read"]
        assert mapper.translation_reads == 1

    def test_lru_eviction_writes_back_dirty_entry(self):
        mapper = DftlMapper(small_config(cmt_capacity_entries=2))
        mapper.write(0)  # dirty
        mapper.write(1)  # dirty
        # Caching a third entry evicts LPN 0 (least recently used) and must
        # persist it: a fresh translation page is programmed.
        _, ops = mapper.lookup(2, now_us=0.0)
        assert "program" in [op.kind for op in ops]
        assert mapper.translation_writes == 1
        assert 0 not in mapper._cmt and 1 in mapper._cmt

    def test_lru_order_follows_recency(self):
        mapper = DftlMapper(small_config(cmt_capacity_entries=2))
        mapper.write(0)
        mapper.write(1)
        mapper.lookup(0, now_us=0.0)  # 0 becomes most recent
        mapper.lookup(2, now_us=0.0)  # evicts 1, not 0
        assert 0 in mapper._cmt and 1 not in mapper._cmt

    def test_clean_eviction_is_free(self):
        mapper = DftlMapper(small_config(cmt_capacity_entries=1))
        mapper.precondition_fill(pages=8)
        mapper.lookup(0, now_us=0.0)  # cached clean
        _, ops = mapper.lookup(1, now_us=0.0)  # evicts clean LPN 0
        assert [op.kind for op in ops] == ["read"]  # only the demand fetch
        assert mapper.translation_writes == 0

    def test_dirty_writeback_batches_same_translation_page(self):
        # LPNs 0 and 1 share a translation page (4 entries per page), so
        # persisting one must mark the other clean: its later eviction
        # generates no second program.
        mapper = DftlMapper(small_config(cmt_capacity_entries=2))
        mapper.write(0)
        mapper.write(1)
        mapper.lookup(2, now_us=0.0)  # evicts dirty 0, persists the page
        assert mapper.translation_writes == 1
        mapper.lookup(3, now_us=0.0)  # evicts 1 — now clean, no write-back
        assert mapper.translation_writes == 1


class TestGtdAndTrim:
    def test_gtd_locates_written_translation_pages(self):
        mapper = DftlMapper(small_config(cmt_capacity_entries=1))
        mapper.write(0)
        mapper.write(5)  # evicts dirty 0 -> persists translation page 0
        tvpn = mapper.tvpn_of(0)
        assert tvpn in mapper._gtd
        physical = mapper._physical(mapper._gtd[tvpn])
        assert mapper.block_at(physical).page_lpns[physical.page] == tvpn

    def test_translation_rewrite_invalidates_old_page(self):
        mapper = DftlMapper(small_config())
        mapper.precondition_fill(pages=4)
        old = mapper._physical(mapper._gtd[0])
        ops = mapper.trim(0, now_us=0.0)  # forces a read-modify-write
        assert [op.kind for op in ops] == ["read", "program"]
        assert not mapper.block_at(old).page_valid[old.page]
        mapper.check_consistency()

    def test_trim_unmaps_and_invalidates(self):
        mapper = DftlMapper(small_config())
        mapper.write(3)
        physical = mapper.lookup_direct(3)
        mapper.trim(3, now_us=0.0)
        assert not mapper.is_mapped(3)
        assert not mapper.block_at(physical).page_valid[physical.page]
        mapper.check_consistency()

    def test_trim_of_unwritten_lpn_is_a_noop(self):
        mapper = DftlMapper(small_config())
        assert mapper.trim(7, now_us=0.0) == []


class TestGarbageCollection:
    def test_watermarks_drive_collection(self):
        config = small_config()
        mapper = DftlMapper(config)
        # Overwrite a tiny working set until the plane crosses the trigger.
        invoked = False
        for step in range(200):
            mapper.write(step % 6)
            operations = mapper.collect_if_needed()
            if operations:
                invoked = True
                assert mapper.planes[0].free_block_count >= \
                    config.gc_stop_free_blocks
        assert invoked
        assert mapper.gc_invocations > 0
        assert mapper.gc_erased_blocks > 0
        mapper.check_consistency()

    def test_victim_is_full_block_with_fewest_valid_pages(self):
        mapper = DftlMapper(small_config())
        plane = mapper.planes[0]
        # Fill two blocks through the host stream, then invalidate more
        # pages in the second: the greedy victim must be the second.
        for lpn in range(8):
            mapper.write(lpn)
        first = mapper.lookup_direct(0).block
        second = mapper.lookup_direct(4).block
        plane.invalidate(first, 0)
        for page in range(3):
            plane.invalidate(second, page)
        assert plane.gc_victim() == second

    def test_fully_valid_blocks_are_not_victims(self):
        mapper = DftlMapper(small_config())
        for lpn in range(4):
            mapper.write(lpn)
        assert mapper.planes[0].gc_victim() is None

    def test_gc_preserves_mapping_and_retention(self):
        mapper = DftlMapper(small_config())
        mapper.write(0, retention_months=6.0)
        for lpn in range(1, 4):
            mapper.write(lpn)
        victim_block = mapper.lookup_direct(0).block
        mapper.write(1)  # invalidates the victim's copy of LPN 1
        operation = mapper._collect_block(0, victim_block, now_us=0.0)
        assert operation.relocated_pages == 3
        moved = mapper.lookup_direct(0)
        assert moved.block != victim_block
        assert mapper.retention_months_of(moved, now_us=0.0) == 6.0
        mapper.check_consistency()

    def test_gc_batches_translation_updates(self):
        # Relocating 3 data pages that share one translation page emits one
        # read-modify-write, not three.
        mapper = DftlMapper(small_config(cmt_capacity_entries=8))
        mapper.precondition_fill(pages=4)
        victim_block = mapper.lookup_direct(0).block
        mapper.trim(3, now_us=0.0)  # one invalid page in the victim
        before = mapper.translation_writes
        operation = mapper._collect_block(0, victim_block, now_us=0.0)
        assert operation.relocated_pages == 3
        assert mapper.translation_writes == before + 1
        mapper.check_consistency()

    def test_gc_relocates_translation_blocks_via_gtd(self):
        mapper = DftlMapper(small_config())
        mapper.precondition_fill(pages=16)
        trans_physical = mapper._physical(mapper._gtd[0])
        victim_block = trans_physical.block
        block = mapper.planes[0].blocks[victim_block]
        assert block.stream == TRANS_STREAM
        # Rewriting translation page 1 invalidates its copy in the victim.
        mapper._write_translation_page(1, now_us=0.0)
        mapper._collect_block(0, victim_block, now_us=0.0)
        relocated = mapper._physical(mapper._gtd[0])
        assert relocated.block != victim_block
        assert mapper.block_at(relocated).stream == TRANS_STREAM
        mapper.check_consistency()

    def test_erase_increments_pe_cycles(self):
        mapper = DftlMapper(small_config())
        plane = mapper.planes[0]
        before = plane.blocks[0].pe_cycles
        plane.blocks[0].stream = HOST_STREAM
        plane.erase(0)
        assert plane.blocks[0].pe_cycles == before + 1
        assert plane.blocks[0].stream is None

    def test_wear_leveling_opens_least_worn_free_block(self):
        mapper = DftlMapper(small_config())
        plane = mapper.planes[0]
        for block in plane.blocks:
            block.pe_cycles = 10
        plane.blocks[7].pe_cycles = 2
        opened = plane._open_active_block(GC_STREAM)
        assert opened == 7

    def test_streams_never_share_blocks(self):
        mapper = DftlMapper(small_config())
        mapper.precondition_fill(pages=8)
        for lpn in range(8):
            mapper.write(lpn)
            mapper.collect_if_needed()
        for plane in mapper.planes:
            for block in plane.blocks:
                streams = {HOST_STREAM if block.page_lpns[page] is not None
                           else None
                           for page in range(block.next_free_page)}
                # Programmed pages all came through one append stream.
                assert block.stream in (None, HOST_STREAM, GC_STREAM,
                                        TRANS_STREAM)
                assert len(streams - {None}) <= 1


storm_settings = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


class TestDftlStorms:
    """Randomized write/trim storms with GC running after every step."""

    operations = st.lists(
        st.tuples(st.sampled_from(["write", "trim", "lookup"]),
                  st.integers(min_value=0, max_value=11)),
        min_size=1, max_size=120)

    @storm_settings
    @given(operations)
    def test_no_valid_page_lost_and_state_consistent(self, steps):
        mapper = DftlMapper(small_config())
        live = set()
        for kind, lpn in steps:
            if kind == "write":
                mapper.write(lpn)
                live.add(lpn)
            elif kind == "trim":
                mapper.trim(lpn)
                live.discard(lpn)
            else:
                mapper.lookup(lpn, now_us=0.0)
            mapper.collect_if_needed()
        mapper.check_consistency()
        for lpn in live:
            physical = mapper.lookup_direct(lpn)
            assert physical is not None, f"live LPN {lpn} lost its mapping"
            block = mapper.block_at(physical)
            assert block.page_valid[physical.page]
            assert block.page_lpns[physical.page] == lpn
        assert mapper.mapped_pages == len(live)

    @storm_settings
    @given(operations)
    def test_pe_cycles_grow_monotonically(self, steps):
        mapper = DftlMapper(small_config())
        watermark = [block.pe_cycles for block in mapper.planes[0].blocks]
        for kind, lpn in steps:
            if kind == "write":
                mapper.write(lpn)
            elif kind == "trim":
                mapper.trim(lpn)
            else:
                mapper.lookup(lpn, now_us=0.0)
            mapper.collect_if_needed()
            for block_id, block in enumerate(mapper.planes[0].blocks):
                assert block.pe_cycles >= watermark[block_id]
                watermark[block_id] = block.pe_cycles

    @storm_settings
    @given(operations)
    def test_retention_age_survives_relocation(self, steps):
        mapper = DftlMapper(small_config())
        ages = {}
        for index, (kind, lpn) in enumerate(steps):
            if kind == "write":
                age = float(index % 3) * 6.0
                mapper.write(lpn, retention_months=age)
                ages[lpn] = age
            elif kind == "trim":
                mapper.trim(lpn)
                ages.pop(lpn, None)
            else:
                mapper.lookup(lpn, now_us=0.0)
            mapper.collect_if_needed()
        for lpn, age in ages.items():
            physical = mapper.lookup_direct(lpn)
            assert mapper.retention_months_of(physical, now_us=0.0) == age


@pytest.fixture(scope="module")
def page_mode_result():
    """One write-heavy page-mapped run that reaches GC steady state."""
    config = SsdConfig(channels=2, dies_per_channel=1, planes_per_die=1,
                       blocks_per_plane=12, pages_per_block=24,
                       write_buffer_pages=16, mapping="page",
                       cmt_capacity_entries=64,
                       translation_entries_per_page=32,
                       gc_free_block_threshold=3, gc_stop_free_blocks=5)
    simulator = SsdSimulator(config, policy="Baseline",
                             rpt=ReadTimingParameterTable.default())
    simulator.precondition(pe_cycles=1000, retention_months=6.0,
                           fill_fraction=0.6)
    footprint = int(config.logical_pages * 0.5)
    requests = catalog_workload("stg_0", footprint, seed=1,
                                mean_interarrival_us=500.0).generate(300)
    result = simulator.run(requests)
    return simulator, result


class TestPageModeIntegration:
    def test_gc_and_translation_traffic_happen(self, page_mode_result):
        _, result = page_mode_result
        metrics = result.metrics
        assert metrics.gc_invocations > 0
        assert metrics.gc_programs > 0
        assert metrics.gc_erases > 0
        assert metrics.translation_reads > 0
        assert metrics.translation_writes > 0

    def test_write_amplification_above_one(self, page_mode_result):
        _, result = page_mode_result
        assert result.metrics.write_amplification() > 1.0

    def test_mapping_cache_hit_rate_in_range(self, page_mode_result):
        _, result = page_mode_result
        rate = result.metrics.mapping_cache_hit_rate()
        assert 0.0 < rate < 1.0
        lookups = (result.metrics.mapping_cache_hits
                   + result.metrics.mapping_cache_misses)
        assert lookups > 0

    def test_gc_diversifies_read_conditions(self, page_mode_result):
        simulator, _ = page_mode_result
        # Statically preconditioned block mapping sees at most two
        # conditions (cold data and fresh rewrites); live GC erases raise
        # blocks above the preconditioned P/E count.
        assert simulator.distinct_read_conditions > 2

    def test_mapper_state_is_consistent_after_run(self, page_mode_result):
        simulator, _ = page_mode_result
        simulator.dftl.check_consistency()

    def test_gc_enqueue_order(self):
        """Each collected block is relocated page by page, then its batched
        translation updates are issued, then it is erased."""
        simulator = SsdSimulator(small_config(), policy="Baseline",
                                 rpt=ReadTimingParameterTable.default())
        simulator.precondition(pe_cycles=100, retention_months=1.0,
                               fill_fraction=0.5)
        enqueued = []
        for scheduler in simulator.schedulers.values():
            original = scheduler.enqueue

            def record(transaction, original=original):
                enqueued.append(transaction.kind.name)
                original(transaction)

            scheduler.enqueue = record
        blocks = []
        for step in range(200):
            simulator._issue_program(step % 6, None)
            enqueued.clear()
            simulator._run_gc_if_needed()
            if enqueued:
                blocks.append(" ".join(enqueued))
        assert blocks
        pattern = re.compile(r"((GC_READ GC_PROGRAM )*(TRANS_\w+ )*ERASE ?)+")
        for block in blocks:
            assert pattern.fullmatch(block), block
        assert any("TRANS_PROGRAM" in block for block in blocks)
        assert simulator.metrics.gc_erases == sum(
            block.count("ERASE") for block in blocks)
        assert simulator.metrics.gc_programs == sum(
            block.count("GC_PROGRAM") for block in blocks)

    def test_summary_surfaces_wear_columns(self, page_mode_result):
        _, result = page_mode_result
        summary = result.metrics.summary()
        assert summary["write_amplification"] > 1.0
        assert 0.0 < summary["mapping_cache_hit_rate"] < 1.0
        assert summary["gc_invocations"] > 0
        assert summary["translation_reads"] > 0
        assert summary["translation_writes"] > 0


class TestMetricsCounters:
    def test_counter_fields_cover_every_int_counter(self):
        # The merge() contract: every plain-int counter on the collector is
        # summed via COUNTER_FIELDS.  A counter added to __init__ but not to
        # the tuple would silently vanish from fleet/sweep aggregation —
        # exactly the bug this guard exists to catch.
        metrics = SimulationMetrics()
        int_counters = {name for name, value in vars(metrics).items()
                        if type(value) is int and not name.startswith("_")}
        assert int_counters == set(SimulationMetrics.COUNTER_FIELDS)

    def test_merge_sums_every_counter(self):
        left = SimulationMetrics()
        right = SimulationMetrics()
        for index, name in enumerate(SimulationMetrics.COUNTER_FIELDS):
            setattr(left, name, index + 1)
            setattr(right, name, 100 * (index + 1))
        left.merge(right)
        for index, name in enumerate(SimulationMetrics.COUNTER_FIELDS):
            assert getattr(left, name) == 101 * (index + 1)

    def test_write_amplification_neutral_without_host_programs(self):
        assert SimulationMetrics().write_amplification() == 1.0

    def test_write_amplification_counts_gc_and_translation(self):
        metrics = SimulationMetrics()
        metrics.host_programs = 100
        metrics.gc_programs = 50
        metrics.translation_writes = 25
        assert metrics.write_amplification() == 1.75

    def test_mapping_cache_hit_rate_neutral_without_lookups(self):
        assert SimulationMetrics().mapping_cache_hit_rate() == 1.0

    def test_mapping_cache_hit_rate(self):
        metrics = SimulationMetrics()
        metrics.mapping_cache_hits = 3
        metrics.mapping_cache_misses = 1
        assert metrics.mapping_cache_hit_rate() == 0.75


class TestFleetAggregation:
    def test_fleet_merge_carries_wear_counters(self):
        # Regression guard for the silent-zero bug: FleetResult.merged used
        # to drop counters merge() did not know about.
        def device(reads, writes, hits, programs):
            metrics = SimulationMetrics()
            metrics.translation_reads = reads
            metrics.translation_writes = writes
            metrics.mapping_cache_hits = hits
            metrics.mapping_cache_misses = hits
            metrics.host_programs = programs
            metrics.gc_programs = programs // 2
            metrics.gc_invocations = 1
            return SimulationResult(
                policy_name="Baseline", config=SsdConfig.tiny(),
                metrics=metrics, preconditioned_pe_cycles=0,
                preconditioned_retention_months=0.0)

        fleet = FleetResult(spec=FleetSpec(devices=2), policy="Baseline",
                            device_results=[device(10, 4, 6, 100),
                                            device(30, 6, 14, 300)])
        merged = fleet.merged
        assert merged.translation_reads == 40
        assert merged.translation_writes == 10
        assert merged.gc_invocations == 2
        assert merged.mapping_cache_hit_rate() == 0.5
        assert merged.write_amplification() == (400 + 200 + 10) / 400
