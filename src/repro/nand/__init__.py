"""3D TLC NAND flash parameters shared by the error models and the simulator.

* :mod:`repro.nand.geometry` — the TLC page types (LSB / CSB / MSB), their
  sensing counts and sensed read-reference boundaries.
* :mod:`repro.nand.timing` — read/program/erase timing parameters, including
  the three read phases (precharge, evaluation, discharge) whose durations
  AR2 manipulates, and Table 1 of the paper.
* :mod:`repro.nand.voltage` — threshold-voltage states, read-reference
  voltages, Gray coding of TLC pages and the manufacturer read-retry table.

The simulator models the paper's command sequences (CACHE READ + RESET for
PR2, SET FEATURE for AR2) in closed form (:mod:`repro.core.latency`); a
command-level chip model checks those equations in the test suite.
"""

from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters, TimingParameters
from repro.nand.voltage import TLC_GRAY_CODE, ReadReferenceSet, ReadRetryTable

__all__ = [
    "PageType",
    "ReadTimingParameters",
    "TimingParameters",
    "ReadRetryTable",
    "ReadReferenceSet",
    "TLC_GRAY_CODE",
]
