"""Precomputed retry-step grid backing the simulator's read hot path.

Every simulated read needs a :class:`~repro.ssd.flash_backend.ReadBehaviour`
for its (operating condition, page type, per-block variation corner).  The
paper's simulator answers it from a per-block lookup table of retry steps
(Section 7.1); this module is that table, organised as a *grid*:

* the variation corners of an SSD are a fixed, enumerable lattice (one
  corner per physical block, derived deterministically from the config
  seed), so for any operating condition the behaviours of **all** corners
  and page types are computed in one vectorized pass through
  :class:`repro.errors.batch.BatchErrorModel` — bit-for-bit equal to the
  scalar retry-table walks (``tests/test_ssd_retry_grid.py`` keeps the
  scalar walk as the reference oracle);
* conditions are discovered at run time (the preconditioned condition, the
  fresh-write condition, and P/E levels GC creates), so the grid builds a
  condition's *slab* on its first read — one path serves every read;
* slabs are bounded by an explicit LRU policy (DFTL garbage collection
  creates a stream of new (P/E, 0) conditions).

Grids are shared process-wide per (geometry, seed, temperature, RPT): every
simulator with default error models gets the same grid, so repeated runs —
benchmark rounds, per-policy runs of one sweep cell, suite experiments —
pay the precompute once.  Sweep and fleet runners call
:func:`prefill_shared_grid` before their worker pool forks, so forked
workers inherit the built slabs; a worker that did not (spawn start
method, or a slab already evicted) builds a slab on its first read, like
any serial run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.rpt import ReadTimingParameterTable
from repro.errors.batch import BatchErrorModel, VariationArrays
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PageType
from repro.nand.voltage import ReadRetryTable
from repro.ssd.config import SsdConfig
from repro.ssd.flash_backend import ReadBehaviour
from repro.ssd.ftl import clear_fill_template

#: A slab: behaviours of every (page type, corner) under one condition.
Slab = Dict[PageType, List[ReadBehaviour]]


def rpt_fingerprint(rpt: ReadTimingParameterTable) -> tuple:
    """Hashable value identity of an RPT's behaviour-relevant content.

    Two RPTs with the same fingerprint produce identical read behaviours
    (only the per-bin ``pre_reduction`` enters the error model), so the
    fingerprint — not object identity — keys the process-wide grid cache.
    Object identity would go stale across pickling boundaries: sweep
    workers unpickle a fresh RPT object per payload.
    """
    return (
        rpt.pec_bin_edges,
        rpt.retention_bin_edges_months,
        tuple((key, entry.pre_reduction) for key, entry in rpt.iter_entries()),
    )


class RetryStepGrid:
    """Lazily filled (condition x page type x corner) behaviour lattice.

    :param max_conditions: bound on cached slabs (LRU eviction).
    """

    def __init__(
        self,
        config: SsdConfig,
        rpt: ReadTimingParameterTable = None,
        error_model: CodewordErrorModel = None,
        retry_table: ReadRetryTable = None,
        max_conditions: int = 64,
    ):
        self.config = config
        self.error_model = error_model or CodewordErrorModel()
        self.retry_table = retry_table or ReadRetryTable()
        self._rpt = rpt
        self._batch = BatchErrorModel(self.error_model)
        self._variation = ProcessVariation(seed=config.seed)
        self._variation_arrays: Optional[VariationArrays] = None
        self.max_conditions = max_conditions

        #: condition key -> slab (recency-ordered for LRU eviction).
        self._slabs: "OrderedDict[tuple, Slab]" = OrderedDict()
        #: (steps, reduced, fallback) -> the one shared ReadBehaviour object.
        self._interned: Dict[tuple, ReadBehaviour] = {}
        self.slab_builds = 0

    # -- geometry -------------------------------------------------------------
    @property
    def rpt(self) -> ReadTimingParameterTable:
        if self._rpt is None:
            self._rpt = ReadTimingParameterTable.default()
        return self._rpt

    @property
    def chips(self) -> int:
        return self.config.channels * self.config.dies_per_channel

    @property
    def blocks_per_chip(self) -> int:
        return self.config.planes_per_die * self.config.blocks_per_plane

    @property
    def corner_count(self) -> int:
        """One variation corner per physical block of the SSD."""
        return self.chips * self.blocks_per_chip

    def corner_index(self, chip: int, block: int) -> int:
        return chip * self.blocks_per_chip + block

    def variation_arrays(self) -> VariationArrays:
        """Per-corner variation multipliers, enumerated in corner order.

        The sample population is a pure function of (seed, chips, blocks),
        so the enumerated arrays are cached process-wide and shared by
        every grid over the same silicon.
        """
        if self._variation_arrays is None:
            key = (self.config.seed, self.chips, self.blocks_per_chip)
            arrays = _VARIATION_ARRAYS_CACHE.get(key)
            if arrays is None:
                samples = [
                    self._variation.block_sample(chip=chip, block=block)
                    for chip in range(self.chips)
                    for block in range(self.blocks_per_chip)
                ]
                arrays = VariationArrays.from_samples(samples)
                while len(_VARIATION_ARRAYS_CACHE) >= _MAX_SHARED_GRIDS:
                    _VARIATION_ARRAYS_CACHE.popitem(last=False)
                _VARIATION_ARRAYS_CACHE[key] = arrays
            self._variation_arrays = arrays
        return self._variation_arrays

    # -- statistics -----------------------------------------------------------
    @property
    def cached_conditions(self) -> int:
        return len(self._slabs)

    @property
    def cache_size(self) -> int:
        """Total cached behaviours (every slab holds all corners and page types)."""
        return len(self._slabs) * self.corner_count * len(PageType)

    # -- main query -----------------------------------------------------------
    def behaviour(
        self,
        page_type: PageType,
        pe_cycles: int,
        retention_months: float,
        chip: int,
        block: int,
    ) -> ReadBehaviour:
        """Behaviour of one read, served from its condition's slab.

        The first read under a condition builds that condition's slab; the
        lookup uses the *exact* per-block variation sample, so results are
        independent of query order.
        """
        key = (pe_cycles, retention_months)
        slab = self._slabs.get(key)
        if slab is None:
            slab = self._build_slab(key)
        else:
            # LRU touch: long GC-heavy runs create a stream of (pe, 0.0)
            # conditions, and without recency the hot preconditioned slab
            # would be the first one evicted.
            self._slabs.move_to_end(key)
        return slab[page_type][chip * self.blocks_per_chip + block]

    # -- slab construction ----------------------------------------------------
    def prefill(self, conditions: Iterable[Tuple[int, float]]) -> None:
        """Vectorize the slabs of known-upcoming conditions eagerly.

        The simulator calls this at precondition time with the aged-data
        condition, which serves nearly every read of a run; the fresh-write
        condition and GC-created P/E levels fill lazily.
        """
        for pe_cycles, retention_months in conditions:
            key = (int(pe_cycles), float(retention_months))
            if key not in self._slabs:
                self._build_slab(key)

    def _build_slab(self, key: tuple) -> Slab:
        pe_cycles, retention_months = key
        condition = OperatingCondition(
            pe_cycles=pe_cycles,
            retention_months=retention_months,
            temperature_c=self.config.temperature_c,
        )
        entry = self.rpt.entry_for(pe_cycles, retention_months)
        lattice = self._batch.read_behaviour_lattice(
            condition,
            self.variation_arrays(),
            pre_reduction=entry.pre_reduction,
            table=self.retry_table,
        )
        slab = {
            page_type: self._intern_lattice(
                batch.retry_steps,
                batch.retry_steps_reduced,
                batch.reduced_timing_fallback,
            )
            for page_type, batch in lattice.items()
        }
        self._install_slab(key, slab)
        self.slab_builds += 1
        return slab

    def _install_slab(self, key: tuple, slab: Slab) -> None:
        while len(self._slabs) >= self.max_conditions:
            self._slabs.popitem(last=False)
        self._slabs[key] = slab

    def _intern_lattice(
        self,
        steps: np.ndarray,
        reduced: np.ndarray,
        fallback: np.ndarray,
    ) -> List[ReadBehaviour]:
        interned = self._interned
        behaviours = []
        for index in range(len(steps)):
            signature = (int(steps[index]), int(reduced[index]), bool(fallback[index]))
            behaviour = interned.get(signature)
            if behaviour is None:
                behaviour = ReadBehaviour(
                    retry_steps=signature[0],
                    retry_steps_reduced=signature[1],
                    reduced_timing_fallback=signature[2],
                )
                interned[signature] = behaviour
            behaviours.append(behaviour)
        return behaviours


# -- process-wide sharing -----------------------------------------------------
_SHARED_GRIDS: "OrderedDict[tuple, RetryStepGrid]" = OrderedDict()
_VARIATION_ARRAYS_CACHE: "OrderedDict[tuple, VariationArrays]" = OrderedDict()
_MAX_SHARED_GRIDS = 16


def _config_key(config: SsdConfig) -> tuple:
    return (
        config.channels,
        config.dies_per_channel,
        config.planes_per_die,
        config.blocks_per_plane,
        config.temperature_c,
        config.seed,
    )


def shared_grid(config: SsdConfig, rpt: ReadTimingParameterTable) -> RetryStepGrid:
    """The process-wide grid for a (geometry, seed, temperature, RPT).

    Simulators with default error models share one grid per configuration,
    so per-policy runs, benchmark rounds and suite experiments reuse each
    other's slabs.  Custom error models or retry tables get private grids
    (see :class:`repro.ssd.flash_backend.FlashBackend`).
    """
    key = (_config_key(config), rpt_fingerprint(rpt))
    grid = _SHARED_GRIDS.get(key)
    if grid is None:
        grid = RetryStepGrid(config, rpt=rpt)
        while len(_SHARED_GRIDS) >= _MAX_SHARED_GRIDS:
            _SHARED_GRIDS.popitem(last=False)
        _SHARED_GRIDS[key] = grid
    else:
        _SHARED_GRIDS.move_to_end(key)
    return grid


def prefill_shared_grid(config: SsdConfig, rpt: ReadTimingParameterTable, conditions) -> None:
    """Build the shared-grid slabs every device of a run reads.

    Each device reads cold data at its condition and rewritten data at
    (P/E, 0), so both pairs are prefilled per distinct condition, in sorted
    order.

    :param conditions: objects with ``pe_cycles`` and ``retention_months``
        (:class:`repro.sim.spec.Condition`).
    """
    pairs = set()
    for condition in conditions:
        pairs.add((condition.pe_cycles, float(condition.retention_months)))
        pairs.add((condition.pe_cycles, 0.0))
    shared_grid(config, rpt).prefill(sorted(pairs))


def clear_shared_grids() -> None:
    """Drop all process-wide grids and the FTL fill template (test isolation hook)."""
    _SHARED_GRIDS.clear()
    _VARIATION_ARRAYS_CACHE.clear()
    clear_fill_template()
