"""The retry-step grid: slab building, eviction, sharing, and the scalar oracle."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PageType
from repro.nand.voltage import ReadRetryTable
from repro.sim.spec import Condition
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SsdSimulator
from repro.ssd.flash_backend import FlashBackend, ReadBehaviour
from repro.ssd.ftl import PhysicalPage
from repro.ssd.request import HostRequest, RequestKind
from repro.ssd.retry_grid import (
    RetryStepGrid,
    clear_shared_grids,
    prefill_shared_grid,
    rpt_fingerprint,
    shared_grid,
)


def scalar_behaviour(grid, pe_cycles, retention_months, page_type, chip, block):
    """Reference oracle: one read's behaviour from exact scalar table walks.

    Walks the retry table once with default timings and, when the RPT
    reduces tPRE for this condition, once more with the reduced timings —
    the recipe every slab entry must reproduce bit for bit.
    """
    condition = OperatingCondition(
        pe_cycles=pe_cycles,
        retention_months=retention_months,
        temperature_c=grid.config.temperature_c,
    )
    variation = ProcessVariation(seed=grid.config.seed).block_sample(
        chip=chip, block=block)
    default_walk = grid.error_model.walk_retry_table(
        condition, page_type, table=grid.retry_table, variation=variation)
    if default_walk.retry_steps is None:
        default_steps = grid.retry_table.num_entries
    else:
        default_steps = default_walk.retry_steps
    entry = grid.rpt.entry_for(pe_cycles, retention_months)
    if entry.pre_reduction > 0.0 and default_steps > 0:
        reduced_walk = grid.error_model.walk_retry_table(
            condition, page_type, table=grid.retry_table, variation=variation,
            retry_timing_reduction=TimingReduction(pre=entry.pre_reduction))
        if reduced_walk.retry_steps is None:
            return ReadBehaviour(default_steps, default_steps, True)
        return ReadBehaviour(default_steps, reduced_walk.retry_steps, False)
    return ReadBehaviour(default_steps, default_steps, False)


@pytest.fixture()
def config() -> SsdConfig:
    return SsdConfig.tiny()


@pytest.fixture()
def grid(config, default_rpt) -> RetryStepGrid:
    return RetryStepGrid(config, rpt=default_rpt)


class TestGridGeometry:
    def test_one_corner_per_physical_block(self, grid, config):
        assert grid.corner_count == (config.channels * config.dies_per_channel
                                     * config.planes_per_die
                                     * config.blocks_per_plane)

    def test_corner_variation_matches_backend(self, grid, config, default_rpt):
        backend = FlashBackend(config, rpt=default_rpt)
        physical = PhysicalPage(channel=1, die=0, plane=0, block=5, page=0)
        chip = physical.channel * config.dies_per_channel + physical.die
        block = physical.plane * config.blocks_per_plane + physical.block
        arrays = grid.variation_arrays()
        sample = arrays.sample_at(grid.corner_index(chip, block))
        assert sample == backend.block_variation(physical)


class TestSlabLifecycle:
    def test_prefill_builds_vectorized_slab(self, grid):
        grid.prefill([(1000, 6.0)])
        assert grid.cached_conditions == 1
        assert grid.slab_builds == 1
        behaviour = grid.behaviour(PageType.CSB, 1000, 6.0, 0, 3)
        assert grid.slab_builds == 1
        assert behaviour.retry_steps > 0

    @pytest.mark.parametrize("pe_cycles, retention_months",
                             [(0, 0.0), (1000, 6.0), (2000, 1.0),
                              (3000, 12.0)])
    def test_slab_matches_scalar_oracle(self, config, default_rpt, pe_cycles,
                                        retention_months):
        """Every slab entry equals the exact scalar walks of its corner."""
        grid = RetryStepGrid(config, rpt=default_rpt)
        corners = random.Random(pe_cycles).sample(range(grid.corner_count), 12)
        for corner in sorted(set(corners) | {0, grid.corner_count - 1}):
            chip, block = divmod(corner, grid.blocks_per_chip)
            for page_type in PageType:
                got = grid.behaviour(page_type, pe_cycles, retention_months,
                                     chip, block)
                assert got == scalar_behaviour(grid, pe_cycles,
                                               retention_months, page_type,
                                               chip, block)
        assert grid.slab_builds == 1

    def test_first_query_builds_the_slab(self, grid):
        assert grid.cached_conditions == 0
        first = grid.behaviour(PageType.LSB, 500, 3.0, 0, 0)
        assert grid.cached_conditions == 1
        assert grid.slab_builds == 1
        assert grid.behaviour(PageType.LSB, 500, 3.0, 0, 0) is first
        grid.behaviour(PageType.MSB, 500, 3.0, 1, 4)
        assert grid.slab_builds == 1

    def test_slab_eviction_is_bounded(self, config, default_rpt):
        grid = RetryStepGrid(config, rpt=default_rpt, max_conditions=2)
        for pe_cycles in (100, 200, 300, 400):
            grid.behaviour(PageType.CSB, pe_cycles, 0.0, 0, 0)
        assert grid.cached_conditions == 2

    def test_eviction_keeps_the_recently_read_slab(self, config, default_rpt):
        grid = RetryStepGrid(config, rpt=default_rpt, max_conditions=2)
        grid.prefill([(2000, 12.0)])
        for pe_cycles in (100, 200, 300):
            grid.behaviour(PageType.CSB, 2000, 12.0, 0, 0)
            grid.behaviour(PageType.CSB, pe_cycles, 0.0, 0, 0)
        assert grid.cached_conditions == 2
        grid.behaviour(PageType.CSB, 2000, 12.0, 0, 0)
        assert grid.slab_builds == 4

    def test_evicted_slab_is_rebuilt_on_first_read(self, config, default_rpt):
        grid = RetryStepGrid(config, rpt=default_rpt, max_conditions=1)
        grid.prefill([(1000, 6.0)])
        before = [grid.behaviour(page_type, 1000, 6.0, 1, 9) for page_type in PageType]
        grid.prefill([(500, 0.0)])
        assert grid.cached_conditions == 1
        after = [grid.behaviour(page_type, 1000, 6.0, 1, 9) for page_type in PageType]
        assert after == before
        assert grid.slab_builds == 3


class TestPrefillSharedGrid:
    def test_builds_aged_and_fresh_slabs_per_condition(self, config, default_rpt):
        clear_shared_grids()
        try:
            prefill_shared_grid(config, default_rpt, [
                Condition(1000, 6.0), Condition(1000, 6.0), Condition(500, 0.0)])
            grid = shared_grid(config, default_rpt)
            # (1000, 6.0), (1000, 0.0) and (500, 0.0): duplicates collapse.
            assert grid.slab_builds == 3
            assert grid.cached_conditions == 3
            grid.behaviour(PageType.LSB, 1000, 0.0, 0, 0)
            grid.behaviour(PageType.LSB, 500, 0.0, 0, 0)
            assert grid.slab_builds == 3
        finally:
            clear_shared_grids()

    def test_skips_conditions_already_built(self, config, default_rpt):
        clear_shared_grids()
        try:
            conditions = [Condition(2000, 12.0)]
            prefill_shared_grid(config, default_rpt, conditions)
            prefill_shared_grid(config, default_rpt, conditions)
            assert shared_grid(config, default_rpt).slab_builds == 2
        finally:
            clear_shared_grids()

    def test_prefilled_slabs_match_lazily_built_ones(self, config, default_rpt):
        clear_shared_grids()
        try:
            prefill_shared_grid(config, default_rpt, [Condition(1000, 6.0)])
            prefilled = shared_grid(config, default_rpt)
            lazy = RetryStepGrid(config, rpt=default_rpt)
            for months in (6.0, 0.0):
                for page_type in PageType:
                    for block in (0, 9):
                        assert (prefilled.behaviour(page_type, 1000, months, 1, block)
                                == lazy.behaviour(page_type, 1000, months, 1, block))
            assert prefilled.slab_builds == 2
        finally:
            clear_shared_grids()


class TestSharedGrids:
    def test_same_config_and_rpt_share_a_grid(self, config, default_rpt):
        clear_shared_grids()
        try:
            first = shared_grid(config, default_rpt)
            second = shared_grid(SsdConfig.tiny(), default_rpt)
            assert first is second
        finally:
            clear_shared_grids()

    def test_fingerprint_is_value_based(self, default_rpt):
        rebuilt = pickle.loads(pickle.dumps(default_rpt))
        assert rebuilt is not default_rpt
        assert rpt_fingerprint(rebuilt) == rpt_fingerprint(default_rpt)
        assert (rpt_fingerprint(ReadTimingParameterTable.conservative())
                != rpt_fingerprint(default_rpt))

    def test_custom_models_get_private_grids(self, config, default_rpt):
        clear_shared_grids()
        try:
            custom = FlashBackend(config, rpt=default_rpt,
                                  retry_table=ReadRetryTable(num_entries=4))
            default = FlashBackend(config, rpt=default_rpt)
            assert custom.grid is not default.grid
            assert custom.grid is not shared_grid(config, default_rpt)
            other = FlashBackend(config, rpt=default_rpt,
                                 error_model=CodewordErrorModel())
            assert other.grid is not default.grid
        finally:
            clear_shared_grids()


class TestSimulatorIntegration:
    def test_metrics_expose_grid_counters(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="PnAR2", rpt=default_rpt)
        simulator.precondition(pe_cycles=1000, retention_months=6.0)
        requests = [HostRequest(i * 50.0, RequestKind.READ, i * 7)
                    for i in range(30)]
        result = simulator.run(requests)
        metrics = result.metrics
        assert metrics.grid_hits >= 30
        assert metrics.scalar_fallbacks == 0
        assert metrics.batched_completions == 0
        summary = metrics.summary()
        assert summary["grid_hits"] == metrics.grid_hits
        assert summary["scalar_fallbacks"] == 0
        assert summary["batched_completions"] == 0

    def test_preconditioned_reads_hit_the_grid(self, config, default_rpt):
        simulator = SsdSimulator(config, policy="Baseline", rpt=default_rpt)
        simulator.precondition(pe_cycles=2000, retention_months=12.0)
        requests = [HostRequest(i * 50.0, RequestKind.READ, i * 3)
                    for i in range(20)]
        result = simulator.run(requests)
        assert result.metrics.scalar_fallbacks == 0
        assert result.metrics.grid_hits >= 20


def _trace(entries, footprint):
    """Build a nondecreasing-arrival request list from draw tuples."""
    requests = []
    time_us = 0.0
    for is_read, lpn, pages, gap_us in entries:
        time_us += gap_us
        requests.append(HostRequest(
            arrival_us=time_us,
            kind=RequestKind.READ if is_read else RequestKind.WRITE,
            start_lpn=lpn % footprint,
            page_count=pages,
        ))
    return requests


def _run_trace(config, requests, rpt, private_grid):
    completions = []
    simulator = SsdSimulator(config, policy="PnAR2", rpt=rpt)
    if private_grid:
        simulator.backend._grid = RetryStepGrid(config,
                                                rpt=simulator.backend.rpt)
    simulator.precondition(pe_cycles=1500, retention_months=9.0)
    simulator.on_request_complete = (
        lambda request, now_us: completions.append(
            (request.request_id, now_us)))
    result = simulator.run(requests)
    return result, completions


class TestGridStateIndependence:
    """A fresh private grid and the process-wide shared grid — which has
    already built slabs for earlier runs — serve identical behaviours."""

    # Multi-page reads on a small geometry collide on the same die;
    # interleaved writes remap pages into fresh blocks, so the trace reads
    # under two conditions (aged cold data and rewrites) and GC adds more.
    entries = st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=1, max_value=8),
            st.floats(min_value=0.0, max_value=400.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=40,
    )

    @given(entries)
    @settings(max_examples=25, deadline=None)
    def test_private_and_shared_grids_bitwise(self, default_rpt, entries):
        config = SsdConfig(channels=2, dies_per_channel=2, planes_per_die=2,
                           blocks_per_plane=64, pages_per_block=16,
                           write_buffer_pages=16)
        requests = _trace(entries, config.logical_pages)
        private, private_completions = _run_trace(config, requests,
                                                  default_rpt, True)
        shared, shared_completions = _run_trace(config, requests,
                                                default_rpt, False)

        # Per-request completion times: exact float equality, same order.
        assert private_completions == shared_completions
        assert private.metrics.summary() == shared.metrics.summary()
        assert shared.metrics.scalar_fallbacks == 0
