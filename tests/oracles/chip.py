"""Command-level model of a 3D TLC NAND flash chip.

The simulator computes read latencies in closed form
(:mod:`repro.core.latency`) and retry counts from the error model's retry
walk.  This chip executes the paper's read commands instead, against the same
error model, so the tests can replay a policy's command sequence and compare:

* ``PAGE READ`` / ``CACHE READ`` sense one page, sample the raw bit errors of
  its worst codeword and return the sensing latency ``tR`` of the read timing
  that is currently installed.  A CACHE READ also holds the sensed page in
  the cache register (PR2 pipelines its retry steps with it, Section 3.2.1);
* ``SET FEATURE`` installs read-timing parameters that every later read uses
  (AR2 installs a reduced tPRE before the retry steps and rolls it back
  afterwards, Figure 13);
* ``RESET`` terminates the on-going operation within ``tRST`` and empties the
  cache register (PR2 cancels its speculative retry step with it).

The chip stores no page contents: every behaviour the paper studies is a
function of error counts and latencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors.calibration import ECC_CALIBRATION
from repro.errors.condition import OperatingCondition
from repro.errors.rber import CodewordErrorModel
from repro.errors.timing import TimingReduction
from repro.errors.variation import ProcessVariation
from repro.nand.geometry import PAGE_TYPE_ORDER, PageType
from repro.nand.timing import ReadTimingParameters, TimingParameters
from repro.nand.voltage import ReadRetryTable


@dataclass(frozen=True)
class PageAddress:
    """Physical address of one page within a chip."""

    die: int
    plane: int
    block: int
    page: int
    page_type: PageType
    wordline: int


@dataclass(frozen=True)
class ChipGeometry:
    """Dimensions of a NAND flash chip.

    The defaults reproduce the simulated SSD of Section 7.1: 4 dies, 2 planes
    per die, 1,888 blocks per plane, 192 TLC wordlines (576 pages) per block
    and 16 1-KiB codewords per 16-KiB page.
    """

    dies_per_chip: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 1888
    wordlines_per_block: int = 192
    codewords_per_page: int = 16

    @classmethod
    def small(cls) -> "ChipGeometry":
        """A reduced geometry for fast tests."""
        return cls(dies_per_chip=2, planes_per_die=2, blocks_per_plane=32, wordlines_per_block=16)

    @property
    def pages_per_block(self) -> int:
        return self.wordlines_per_block * len(PAGE_TYPE_ORDER)

    def make_address(self, die: int, plane: int, block: int, page: int) -> PageAddress:
        """A validated address; the page's position fixes its type and wordline."""
        for name, value, limit in (
            ("die", die, self.dies_per_chip),
            ("plane", plane, self.planes_per_die),
            ("block", block, self.blocks_per_plane),
            ("page", page, self.pages_per_block),
        ):
            if not 0 <= value < limit:
                raise ValueError(f"{name} out of range: {value} (limit {limit})")
        return PageAddress(
            die=die,
            plane=plane,
            block=block,
            page=page,
            page_type=PAGE_TYPE_ORDER[page % len(PAGE_TYPE_ORDER)],
            wordline=page // len(PAGE_TYPE_ORDER),
        )


class CommandKind(enum.Enum):
    PAGE_READ = "page_read"
    CACHE_READ = "cache_read"
    SET_FEATURE = "set_feature"
    RESET = "reset"


@dataclass(frozen=True)
class Command:
    """One command issued to the chip.

    :param read_reference_shift_mv: shift of every read-reference voltage of
        a read; retry steps use the read-retry table's shifts.
    :param read_timing: the read-phase timing a SET FEATURE installs.
    """

    kind: CommandKind
    address: Optional[PageAddress] = None
    read_reference_shift_mv: float = 0.0
    read_timing: Optional[ReadTimingParameters] = None

    def __post_init__(self) -> None:
        reads = (CommandKind.PAGE_READ, CommandKind.CACHE_READ)
        if self.kind in reads and self.address is None:
            raise ValueError(f"{self.kind.value} requires a page address")
        if self.kind is CommandKind.SET_FEATURE and self.read_timing is None:
            raise ValueError("SET_FEATURE requires read_timing")

    @classmethod
    def page_read(cls, address: PageAddress, shift_mv: float = 0.0) -> "Command":
        return cls(CommandKind.PAGE_READ, address, read_reference_shift_mv=shift_mv)

    @classmethod
    def cache_read(cls, address: PageAddress, shift_mv: float = 0.0) -> "Command":
        return cls(CommandKind.CACHE_READ, address, read_reference_shift_mv=shift_mv)

    @classmethod
    def set_feature(cls, read_timing: ReadTimingParameters) -> "Command":
        return cls(CommandKind.SET_FEATURE, read_timing=read_timing)

    @classmethod
    def reset(cls) -> "Command":
        return cls(CommandKind.RESET)


@dataclass(frozen=True)
class ReadResult:
    """One page sensing: the worst codeword's raw bit errors and ``tR``."""

    max_codeword_errors: int
    correctable: bool
    sensing_latency_us: float


@dataclass(frozen=True)
class RetryReadResult:
    """A full read: the initial read plus the read-retry walk."""

    retry_steps: int
    succeeded: bool
    final_errors: int
    total_sensing_latency_us: float


class NandChip:
    """A command-level 3D TLC NAND flash chip.

    :param chip_id: identifier that selects this chip's process variation.
    :param codewords_per_read: codewords sampled per page read (the
        geometry's codewords per page by default).
    """

    def __init__(
        self,
        geometry: ChipGeometry = None,
        chip_id: int = 0,
        timing: TimingParameters = None,
        temperature_c: float = 30.0,
        seed: int = 0,
        codewords_per_read: int = None,
    ):
        self.geometry = geometry or ChipGeometry()
        self.chip_id = int(chip_id)
        self.timing = timing or TimingParameters()
        self.error_model = CodewordErrorModel()
        self.retry_table = ReadRetryTable()
        self.ecc_capability = ECC_CALIBRATION.capability_bits
        self.temperature_c = float(temperature_c)
        self.codewords_per_read = codewords_per_read or self.geometry.codewords_per_page
        #: Read-phase timing installed by the last SET FEATURE.
        self.active_read_timing: ReadTimingParameters = self.timing.read
        #: Page held by the last CACHE READ (emptied by RESET).
        self.cache_register: Optional[PageAddress] = None
        self._variation = ProcessVariation(seed=seed)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(self.chip_id,))
        )
        self._conditions: Dict[Tuple[int, int, int], OperatingCondition] = {}

    def set_block_condition(
        self, address: PageAddress, pe_cycles: int = 0, retention_months: float = 0.0
    ) -> None:
        """Install the P/E count and retention age of a page's block."""
        self._conditions[(address.die, address.plane, address.block)] = OperatingCondition(
            pe_cycles, retention_months, self.temperature_c
        )

    def condition_for(self, address: PageAddress) -> OperatingCondition:
        """The operating condition a read of ``address`` experiences."""
        key = (address.die, address.plane, address.block)
        return self._conditions.get(key, OperatingCondition(0, 0.0, self.temperature_c))

    def execute(self, command: Command):
        """Execute one command; returns ``(latency_us, read_result_or_None)``."""
        if command.kind is CommandKind.SET_FEATURE:
            self.active_read_timing = command.read_timing
            return self.timing.t_set_feature_us, None
        if command.kind is CommandKind.RESET:
            self.cache_register = None
            return self.timing.t_reset_read_us, None
        result = self.read_page(command.address, command.read_reference_shift_mv)
        if command.kind is CommandKind.CACHE_READ:
            self.cache_register = command.address
        return result.sensing_latency_us, result

    def read_page(self, address: PageAddress, reference_shift_mv: float = 0.0) -> ReadResult:
        """Sense one page under the installed read timing."""
        geometry = self.geometry
        block = (address.die * geometry.planes_per_die + address.plane) * (
            geometry.blocks_per_plane
        ) + address.block
        variation = self._variation.sample(
            chip=self.chip_id, block=block, wordline=address.wordline
        )
        reduction = TimingReduction.from_parameters(self.active_read_timing, self.timing.read)
        worst = max(
            self.error_model.sample_errors(
                self.condition_for(address),
                address.page_type,
                self._rng,
                reference_shift_mv=reference_shift_mv,
                variation=variation,
                timing_reduction=reduction,
            )
            for _ in range(self.codewords_per_read)
        )
        return ReadResult(
            max_codeword_errors=worst,
            correctable=worst <= self.ecc_capability,
            sensing_latency_us=self.active_read_timing.sensing_latency_us(address.page_type),
        )

    def read_with_retry(self, address: PageAddress, max_steps: int = None) -> RetryReadResult:
        """Read a page, walking the read-retry table until it decodes (Section 2.4)."""
        result = self.read_page(address)
        total_latency = result.sensing_latency_us
        steps = 0
        limit = max_steps or self.retry_table.num_entries
        for step in self.retry_table.steps():
            if result.correctable or step > limit:
                break
            result = self.read_page(address, self.retry_table.shift_for_step(step))
            total_latency += result.sensing_latency_us
            steps = step
        return RetryReadResult(
            retry_steps=steps,
            succeeded=result.correctable,
            final_errors=result.max_codeword_errors,
            total_sensing_latency_us=total_latency,
        )
