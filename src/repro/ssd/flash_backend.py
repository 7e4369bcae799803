"""Per-block read-retry behaviour of the simulated flash.

The paper extends MQSim so that "each simulated block operates exactly the
same as one of the real blocks that we test", via a per-block lookup table of
the number of read-retry steps at a given P/E-cycle count and retention age
(Section 7.1).  This module plays that role against the calibrated error
model:

* every simulated block gets a process-variation sample (as if it were a
  randomly drawn real block),
* the number of retry steps a read needs — with the default timing
  parameters and with the AR2-reduced ones — is served from a
  :class:`repro.ssd.retry_grid.RetryStepGrid`, which computes the full
  (page type x variation corner) slab of a condition in one vectorized pass
  the first time that condition is read,
* AR2's rare fallback case (a page that no longer decodes with reduced
  timings) surfaces naturally: the reduced-timing walk may need one more
  step than the default-timing walk, or may fail entirely, in which case the
  controller re-runs the read-retry operation with default timings
  (Section 6.2, "Overhead").

Grids are bounded (LRU over conditions) and shared across simulators of the
same configuration.  The backend counts the reads it served (``grid_hits``)
and the simulator surfaces the count through
:class:`repro.ssd.metrics.SimulationMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.rber import CodewordErrorModel
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PageType
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import PhysicalPage


@dataclass(frozen=True)
class ReadBehaviour:
    """What the flash does for one read."""

    retry_steps: int
    #: Retry steps if the retry operation runs with the RPT-reduced tPRE.
    retry_steps_reduced: int
    #: True when the reduced-timing retry operation fails and AR2 must fall
    #: back to a full default-timing retry operation (never observed in the
    #: paper's characterization, but the mechanism handles it).
    reduced_timing_fallback: bool

    def degraded(self, extra_steps: int) -> "ReadBehaviour":
        """This behaviour with ``extra_steps`` more retry steps on both
        timing variants — how fault injection (read-disturb storms,
        degraded dies) worsens a read without touching the error model."""
        if extra_steps < 0:
            raise ValueError("extra_steps must be non-negative")
        if extra_steps == 0:
            return self
        return ReadBehaviour(
            retry_steps=self.retry_steps + extra_steps,
            retry_steps_reduced=self.retry_steps_reduced + extra_steps,
            reduced_timing_fallback=self.reduced_timing_fallback,
        )


class FlashBackend:
    """Maps physical reads to retry-step counts using the error model."""

    def __init__(
        self,
        config: SsdConfig,
        rpt: ReadTimingParameterTable = None,
        error_model: CodewordErrorModel = None,
        retry_table: ReadRetryTable = None,
        grid=None,
    ):
        self.config = config
        self._custom_models = error_model is not None or retry_table is not None
        self.error_model = error_model or CodewordErrorModel()
        self.retry_table = retry_table or ReadRetryTable()
        self._rpt = rpt
        self._variation = ProcessVariation(seed=config.seed)
        self._grid = grid
        #: Reads answered from the grid — every read the backend serves.
        self.grid_hits = 0

    @property
    def rpt(self) -> ReadTimingParameterTable:
        if self._rpt is None:
            self._rpt = ReadTimingParameterTable.default()
        return self._rpt

    @property
    def grid(self):
        """The retry-step grid serving this backend (built on first use).

        Backends with default error models share the process-wide grid of
        their configuration; a custom error model or retry table gets a
        private grid so it cannot pollute the shared one.
        """
        if self._grid is None:
            from repro.ssd.retry_grid import RetryStepGrid, shared_grid

            if self._custom_models:
                self._grid = RetryStepGrid(
                    self.config,
                    rpt=self.rpt,
                    error_model=self.error_model,
                    retry_table=self.retry_table,
                )
            else:
                self._grid = shared_grid(self.config, self.rpt)
        return self._grid

    # -- per-block identity -----------------------------------------------------
    def block_variation(self, physical: PhysicalPage):
        """The process-variation corner of the block containing ``physical``.

        The (channel, die) pair is treated as the "chip" and the
        (plane, block) pair as the block within it, so blocks of the same die
        share a chip-level corner just like real silicon.
        """
        chip = physical.channel * self.config.dies_per_channel + physical.die
        block = physical.plane * self.config.blocks_per_plane + physical.block
        return self._variation.block_sample(chip=chip, block=block)

    # -- main query -------------------------------------------------------------
    def read_behaviour(
        self,
        physical: PhysicalPage,
        page_type: PageType,
        pe_cycles: int,
        retention_months: float,
    ) -> ReadBehaviour:
        """Retry-step counts for a read of ``physical`` under its condition."""
        chip = physical.channel * self.config.dies_per_channel + physical.die
        block = physical.plane * self.config.blocks_per_plane + physical.block
        self.grid_hits += 1
        return self.grid.behaviour(page_type, pe_cycles, retention_months, chip, block)

    def prefill_conditions(self, conditions) -> None:
        """Vectorize the slabs of conditions known to be coming.

        Called by the simulator at precondition time with the aged-data
        condition, which serves nearly every read of a run.
        """
        self.grid.prefill(conditions)

    @property
    def cache_size(self) -> int:
        """Behaviours currently cached for this backend's configuration."""
        return self.grid.cache_size
