"""Raw-bit-error model at codeword granularity.

This module ties the threshold-voltage model, the read-timing error model and
the temperature effect together into the quantity everything else consumes:
the number of raw bit errors in a 1-KiB ECC codeword when a page is read with
a particular set of read-reference voltages under a particular operating
condition.

Two views are provided:

* *expected* error counts (deterministic, used for calibration, the
  characterization sweeps and the RPT builder), and
* *sampled* error counts (Poisson-distributed around the expectation, used by
  sampled retry walks so that marginal pages occasionally need one more or
  one fewer retry step, as real outlier pages do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors.calibration import ECC_CALIBRATION, EccCalibration
from repro.errors.condition import OperatingCondition
from repro.errors.timing import ReadTimingErrorModel, TimingReduction
from repro.errors.variation import VariationSample
from repro.errors.vth import ThresholdVoltageModel
from repro.nand.geometry import PageType
from repro.nand.voltage import (
    BOUNDARY_SHIFT_WEIGHTS,
    NUM_STATES,
    ReadReferenceSet,
    ReadRetryTable,
    default_read_references_mv,
)


def _standard_normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class RetryOutcome:
    """Result of walking the read-retry table for one codeword.

    :param retry_steps: number of retry steps performed (0 means the initial
        read with default V_REF succeeded).  ``None`` if the table was
        exhausted without success (a read failure, Section 2.4 footnote 13).
    :param final_errors: raw bit errors at the successful step (or at the
        best step if the read failed).
    :param best_step_errors: lowest raw bit error count among the attempted
        steps (equals ``final_errors`` when the walk stops at its best entry).
    :param errors_per_step: error count of every attempted step, starting
        with the initial default-V_REF read.
    """

    retry_steps: Optional[int]
    final_errors: float
    best_step_errors: float
    errors_per_step: tuple

    @property
    def succeeded(self) -> bool:
        return self.retry_steps is not None


class CodewordErrorModel:
    """Expected/sampled raw bit errors per codeword for a page read."""

    def __init__(self,
                 vth_model: ThresholdVoltageModel = None,
                 timing_model: ReadTimingErrorModel = None,
                 ecc_calibration: EccCalibration = ECC_CALIBRATION):
        self._vth = vth_model or ThresholdVoltageModel()
        self._timing = timing_model or ReadTimingErrorModel()
        self._ecc = ecc_calibration
        self._default_refs = np.asarray(default_read_references_mv())

    @property
    def vth_model(self) -> ThresholdVoltageModel:
        return self._vth

    @property
    def timing_model(self) -> ReadTimingErrorModel:
        return self._timing

    @property
    def ecc_capability(self) -> int:
        return self._ecc.capability_bits

    @property
    def ecc_calibration(self) -> EccCalibration:
        return self._ecc

    @property
    def cells_per_state(self) -> int:
        """Cells of one codeword that sit in each of the eight V_TH states."""
        return self._ecc.codeword_bytes * 8 // NUM_STATES

    # -- expected error counts -------------------------------------------------
    def expected_errors(self, condition: OperatingCondition,
                        page_type: PageType,
                        reference_shift_mv: float = 0.0,
                        variation: VariationSample = None,
                        timing_reduction: TimingReduction = None) -> float:
        """Expected raw bit errors in one codeword of a ``page_type`` page.

        :param reference_shift_mv: uniform shift of the read-reference
            voltages relative to the chip defaults (0 for the initial read;
            retry step ``k`` uses the shift prescribed by the retry table).
        :param timing_reduction: optional reduction of the read-timing
            parameters (AR2); adds the outlier-bitline errors of
            :class:`repro.errors.timing.ReadTimingErrorModel`.
        """
        lower_mu, lower_sigma, upper_mu, upper_sigma = (
            self._vth.boundary_parameters(condition, variation))
        cells_per_state = self._ecc.codeword_bytes * 8 // NUM_STATES

        errors = 0.0
        for boundary in page_type.sensed_boundaries:
            voltage = (self._default_refs[boundary]
                       + reference_shift_mv * BOUNDARY_SHIFT_WEIGHTS[boundary])
            low_tail = _standard_normal_sf(
                (voltage - lower_mu[boundary]) / lower_sigma[boundary])
            high_tail = _standard_normal_sf(
                (upper_mu[boundary] - voltage) / upper_sigma[boundary])
            errors += cells_per_state * (low_tail + high_tail)

        errors += self._vth.temperature_extra_errors_per_kib(condition)
        if timing_reduction is not None and not timing_reduction.is_default:
            errors += self._timing.additional_errors_per_codeword(
                timing_reduction, condition, variation)
        return errors

    def expected_errors_with_reference_set(
            self, condition: OperatingCondition, page_type: PageType,
            reference_set: ReadReferenceSet,
            variation: VariationSample = None,
            timing_reduction: TimingReduction = None) -> float:
        """Same as :meth:`expected_errors` but with an explicit reference set."""
        return self.expected_errors(
            condition, page_type,
            reference_shift_mv=reference_set.shift_mv,
            variation=variation, timing_reduction=timing_reduction)

    def errors_at_optimal(self, condition: OperatingCondition,
                          page_type: PageType,
                          variation: VariationSample = None,
                          timing_reduction: TimingReduction = None) -> float:
        """Error floor when reading with the optimal uniform V_REF shift."""
        optimal = self._vth.optimal_shift_mv(condition, variation)
        return self.expected_errors(condition, page_type,
                                    reference_shift_mv=optimal,
                                    variation=variation,
                                    timing_reduction=timing_reduction)

    # -- sampling ----------------------------------------------------------------
    def sample_errors(self, condition: OperatingCondition, page_type: PageType,
                      rng: np.random.Generator,
                      reference_shift_mv: float = 0.0,
                      variation: VariationSample = None,
                      timing_reduction: TimingReduction = None) -> int:
        """Poisson-sampled raw bit error count for one codeword."""
        expected = self.expected_errors(condition, page_type,
                                        reference_shift_mv, variation,
                                        timing_reduction)
        return int(rng.poisson(expected))

    # -- read-retry walk ----------------------------------------------------------
    def walk_retry_table(self, condition: OperatingCondition,
                         page_type: PageType,
                         table: ReadRetryTable = None,
                         variation: VariationSample = None,
                         timing_reduction: TimingReduction = None,
                         retry_timing_reduction: TimingReduction = None,
                         capability: int = None,
                         rng: np.random.Generator = None) -> RetryOutcome:
        """Emulate a full read (initial read plus retry steps) of one codeword.

        The initial read uses the default read-reference voltages and the
        (possibly reduced) ``timing_reduction``; every retry step uses the
        table's shifted voltages and ``retry_timing_reduction`` (AR2 reduces
        timings only for the retry steps, Section 6.2).  When ``rng`` is
        given, error counts are Poisson-sampled instead of expected values.

        :return: a :class:`RetryOutcome`.
        """
        table = table or ReadRetryTable()
        capability = capability if capability is not None else self.ecc_capability
        retry_timing_reduction = (retry_timing_reduction
                                  if retry_timing_reduction is not None
                                  else timing_reduction)

        def count(shift_mv: float, reduction: TimingReduction) -> float:
            if rng is None:
                return self.expected_errors(condition, page_type, shift_mv,
                                            variation, reduction)
            return self.sample_errors(condition, page_type, rng, shift_mv,
                                      variation, reduction)

        errors_per_step = []
        initial = count(0.0, timing_reduction)
        errors_per_step.append(initial)
        best_errors = initial
        if initial <= capability:
            return RetryOutcome(retry_steps=0, final_errors=initial,
                                best_step_errors=initial,
                                errors_per_step=tuple(errors_per_step))

        retry_steps = None
        final_errors = initial
        for step in table.steps():
            errors = count(table.shift_for_step(step), retry_timing_reduction)
            errors_per_step.append(errors)
            best_errors = min(best_errors, errors)
            if errors <= capability:
                retry_steps = step
                final_errors = errors
                break
        else:
            final_errors = best_errors

        return RetryOutcome(retry_steps=retry_steps, final_errors=final_errors,
                            best_step_errors=best_errors,
                            errors_per_step=tuple(errors_per_step))

    def retry_steps_required(self, condition: OperatingCondition,
                             page_type: PageType,
                             table: ReadRetryTable = None,
                             variation: VariationSample = None,
                             timing_reduction: TimingReduction = None,
                             rng: np.random.Generator = None) -> Optional[int]:
        """Number of retry steps a read needs (``None`` if it fails outright)."""
        outcome = self.walk_retry_table(condition, page_type, table=table,
                                        variation=variation,
                                        timing_reduction=timing_reduction,
                                        rng=rng)
        return outcome.retry_steps

    def near_optimal_step_errors(self, condition: OperatingCondition,
                                 page_type: PageType,
                                 table: ReadRetryTable = None,
                                 variation: VariationSample = None,
                                 timing_reduction: TimingReduction = None) -> float:
        """Error count at the retry-table entry closest to the optimal V_REF.

        Manufacturer tables are constructed so that the final (successful)
        retry step uses near-optimal read voltages (Section 2.4); Figure 7's
        M_ERR is the error count observed at that entry.
        """
        table = table or ReadRetryTable()
        optimal = self._vth.optimal_shift_mv(condition, variation)
        step = table.closest_step(optimal)
        return self.expected_errors(condition, page_type,
                                    reference_shift_mv=table.shift_for_step(step),
                                    variation=variation,
                                    timing_reduction=timing_reduction)

    def final_step_margin(self, condition: OperatingCondition,
                          page_type: PageType,
                          table: ReadRetryTable = None,
                          variation: VariationSample = None) -> float:
        """ECC-capability margin in the final retry step (Section 5.1).

        Defined as capability minus the error count at the retry-table entry
        closest to the optimal read voltages.
        """
        errors = self.near_optimal_step_errors(condition, page_type,
                                               table=table, variation=variation)
        return self.ecc_capability - errors
