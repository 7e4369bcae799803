"""Each policy's closed-form read latency equals its command sequence on a chip.

The simulator never issues NAND commands: ``read_breakdown`` gives every
read's latencies in closed form (Equations (2)-(5)).  This test replays the
command sequence behind each of Figure 14's policies on the command-level
chip oracle (:mod:`oracles.chip`), for every page type and 0..8 required
retry steps:

* Baseline: one PAGE READ per step, each transferred (tDMA) and decoded (tECC)
  before the next starts.
* PR2: one CACHE READ per step, sensed back to back while the previous step
  transfers and decodes; only the final step's tDMA + tECC stays on the
  critical path, and a RESET (off it) cancels the speculative next step.
* AR2: the initial PAGE READ, SET FEATURE with the RPT-reduced timing, one
  PAGE READ per retry step, then SET FEATURE back to the default timing.
* PnAR2: AR2's SET FEATURE pair around PR2's pipelined CACHE READs and RESET.
* NoRR: one PAGE READ.

A read that needs no retry is a plain PAGE READ under every policy, as the
closed forms charge it.  The test composes the latencies the chip returns
with tDMA and tECC and checks that response, die, channel and ECC busy times
equal ``read_breakdown`` exactly.  The reduced timing comes straight from the
RPT and the chip's SET FEATURE state turns it into ``tR``, so a policy that
senses at the wrong timing, drops a SET FEATURE or RESET cost, or miscounts
its steps shows as a mismatch.
"""

import math

import pytest

from repro.core.latency import ReadLatencyBreakdown
from repro.core.policies import policy_suite
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.nand.geometry import PageType

from oracles.chip import Command, NandChip

POLICIES = ("Baseline", "PR2", "AR2", "PnAR2", "NoRR")
CONDITION = OperatingCondition(pe_cycles=2000, retention_months=12.0, temperature_c=30.0)
#: First page of each type in a block (LSB, CSB, MSB share wordline 0).
PAGE_OF_TYPE = {PageType.LSB: 0, PageType.CSB: 1, PageType.MSB: 2}


@pytest.fixture(scope="module")
def rpt():
    return ReadTimingParameterTable.default()


@pytest.fixture(scope="module")
def policies(rpt):
    return policy_suite(POLICIES, rpt=rpt)


def replay(policy_name, steps, chip, address, reduced_timing) -> ReadLatencyBreakdown:
    """Issue ``policy_name``'s commands for a read needing ``steps`` retries.

    Sums keep the closed forms' association order, ``(tR + tDMA) + tECC``
    per unpipelined step and ``tR + (tDMA + tECC)`` for a pipelined tail, so
    the comparison can be exact.
    """
    timing = chip.timing
    transfer_and_decode = timing.t_dma_page_us + timing.t_ecc_us
    shifts = [chip.retry_table.shift_for_step(step) for step in range(1, steps + 1)]
    if policy_name == "NoRR":
        shifts = []

    def step_latencies(kind, step_shifts):
        """Sensing latency of one read command per V_REF shift."""
        return [chip.execute(kind(address, shift_mv=shift))[0] for shift in step_shifts]

    pipelined = policy_name in ("PR2", "PnAR2")
    adaptive = policy_name in ("AR2", "PnAR2")
    reads = 1 + len(shifts)
    if not shifts:
        (sensing,) = step_latencies(Command.page_read, [0.0])
        response = sensing + timing.t_dma_page_us + timing.t_ecc_us
        die = response
    elif not adaptive:
        if pipelined:
            sensing = step_latencies(Command.cache_read, [0.0] + shifts)
            response = math.fsum(sensing) + transfer_and_decode
            die = response + chip.execute(Command.reset())[0]
        else:
            sensing = step_latencies(Command.page_read, [0.0] + shifts)
            response = math.fsum(s + timing.t_dma_page_us + timing.t_ecc_us for s in sensing)
            die = response
    else:
        (initial,) = step_latencies(Command.page_read, [0.0])
        initial_step = initial + timing.t_dma_page_us + timing.t_ecc_us
        install = chip.execute(Command.set_feature(reduced_timing))[0]
        if pipelined:
            sensing = step_latencies(Command.cache_read, shifts)
            response = initial_step + install + math.fsum(sensing) + transfer_and_decode
            cancel = chip.execute(Command.reset())[0]
        else:
            sensing = step_latencies(Command.page_read, shifts)
            retry = math.fsum(s + timing.t_dma_page_us + timing.t_ecc_us for s in sensing)
            response = initial_step + install + retry
            cancel = 0.0
        rollback = chip.execute(Command.set_feature(timing.read))[0]
        die = response + cancel + rollback
    assert chip.cache_register is None, "PR2 must RESET its speculative CACHE READ"
    assert chip.active_read_timing == timing.read, "AR2 must roll its timing back"
    return ReadLatencyBreakdown(
        response_us=response,
        die_busy_us=die,
        channel_busy_us=math.fsum([timing.t_dma_page_us] * reads),
        ecc_busy_us=math.fsum([timing.t_ecc_us] * reads),
        retry_steps=len(shifts),
    )


@pytest.mark.parametrize("steps", range(9))
@pytest.mark.parametrize("page_type", list(PageType), ids=lambda page_type: page_type.name)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_replayed_commands_equal_read_breakdown(rpt, policies, policy_name, page_type, steps):
    policy = policies[policy_name]
    chip = NandChip(chip_id=1, codewords_per_read=1, seed=3)
    address = chip.geometry.make_address(0, 1, 7, PAGE_OF_TYPE[page_type])
    chip.set_block_condition(address, CONDITION.pe_cycles, CONDITION.retention_months)
    reduced_timing = rpt.reduced_timing_for(CONDITION.pe_cycles, CONDITION.retention_months)
    assert reduced_timing.t_pre_us < chip.timing.read.t_pre_us

    replayed = replay(policy_name, steps, chip, address, reduced_timing)
    assert replayed == policy.read_breakdown(steps, page_type, CONDITION)
