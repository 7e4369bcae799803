"""Self-tests of the command-level NAND chip oracle (``tests/oracles/chip.py``)."""

import pytest

from repro.nand.geometry import PageType
from repro.nand.timing import ReadTimingParameters

from oracles.chip import ChipGeometry, Command, CommandKind, NandChip


@pytest.fixture()
def chip():
    return NandChip(geometry=ChipGeometry.small(), codewords_per_read=2,
                    temperature_c=55.0, seed=7)


@pytest.fixture()
def address(chip):
    return chip.geometry.make_address(0, 0, 1, 4)


class TestGeometry:
    def test_make_address_derives_page_type_and_wordline(self):
        geometry = ChipGeometry.small()
        pages = [geometry.make_address(0, 0, 0, page) for page in range(4)]
        assert [a.page_type for a in pages] == [PageType.LSB, PageType.CSB,
                                                PageType.MSB, PageType.LSB]
        assert [a.wordline for a in pages] == [0, 0, 0, 1]

    def test_make_address_validates_ranges(self):
        geometry = ChipGeometry.small()
        with pytest.raises(ValueError):
            geometry.make_address(geometry.dies_per_chip, 0, 0, 0)
        with pytest.raises(ValueError):
            geometry.make_address(0, 0, geometry.blocks_per_plane, 0)
        with pytest.raises(ValueError):
            geometry.make_address(0, 0, 0, geometry.pages_per_block)


class TestBlockCondition:
    def test_set_block_condition(self, chip, address):
        chip.set_block_condition(address, pe_cycles=1500, retention_months=9.0)
        condition = chip.condition_for(address)
        assert condition.pe_cycles == 1500
        assert condition.retention_months == 9.0
        assert condition.temperature_c == 55.0

    def test_validation(self, chip, address):
        with pytest.raises(ValueError):
            chip.set_block_condition(address, pe_cycles=-1)


class TestReads:
    def test_fresh_page_reads_without_retry(self, chip, address):
        result = chip.read_with_retry(address)
        assert result.succeeded
        assert result.retry_steps == 0

    def test_aged_page_needs_many_retries(self, chip, address):
        chip.set_block_condition(address, pe_cycles=2000, retention_months=12.0)
        result = chip.read_with_retry(address)
        assert result.succeeded
        assert result.retry_steps >= 10
        assert result.final_errors <= chip.ecc_capability

    def test_retry_latency_accumulates(self, chip, address):
        chip.set_block_condition(address, pe_cycles=1000, retention_months=6.0)
        result = chip.read_with_retry(address)
        single = chip.timing.read.sensing_latency_us(address.page_type)
        assert result.total_sensing_latency_us == pytest.approx(
            single * (result.retry_steps + 1))

    def test_set_feature_reduces_sensing_latency(self, chip, address):
        default_latency, _ = chip.execute(Command.page_read(address))
        chip.execute(Command.set_feature(ReadTimingParameters().with_reduction(pre=0.4)))
        reduced_latency, _ = chip.execute(Command.page_read(address))
        assert reduced_latency < default_latency
        chip.execute(Command.set_feature(chip.timing.read))  # roll back
        assert chip.execute(Command.page_read(address))[0] == default_latency

    def test_reduced_timing_adds_errors_on_aged_page(self, chip, address):
        chip.set_block_condition(address, pe_cycles=2000, retention_months=12.0)
        default = chip.read_with_retry(address)
        chip.execute(Command.set_feature(ReadTimingParameters().with_reduction(pre=0.6)))
        reduced = chip.read_with_retry(address)
        # A 60% tPRE reduction is beyond the safe range: the read needs at
        # least as many steps (and usually more or outright failure).
        assert (not reduced.succeeded) or (reduced.retry_steps >= default.retry_steps)

    def test_max_steps_limits_walk(self, chip, address):
        chip.set_block_condition(address, pe_cycles=2000, retention_months=12.0)
        result = chip.read_with_retry(address, max_steps=2)
        assert not result.succeeded
        assert result.retry_steps == 2


class TestCommandInterface:
    def test_execute_read(self, chip, address):
        latency, result = chip.execute(Command.page_read(address, shift_mv=-60.0))
        assert latency == result.sensing_latency_us
        assert chip.cache_register is None

    def test_execute_cache_read_fills_cache_register(self, chip, address):
        chip.execute(Command.cache_read(address))
        assert chip.cache_register == address

    def test_execute_reset_clears_cache(self, chip, address):
        chip.execute(Command.cache_read(address))
        latency, _ = chip.execute(Command.reset())
        assert latency == chip.timing.t_reset_read_us
        assert chip.cache_register is None

    def test_execute_set_feature(self, chip):
        reduced = ReadTimingParameters().with_reduction(pre=0.4)
        latency, _ = chip.execute(Command.set_feature(reduced))
        assert latency == chip.timing.t_set_feature_us
        assert chip.active_read_timing is reduced

    def test_commands_validate_operands(self):
        with pytest.raises(ValueError):
            Command(CommandKind.SET_FEATURE)
        with pytest.raises(ValueError):
            Command(CommandKind.PAGE_READ)
        with pytest.raises(ValueError):
            Command(CommandKind.CACHE_READ)
