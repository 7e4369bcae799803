"""Adversarial scenarios: the policy suite under fault injection.

Every paper experiment measures a healthy device.  Production tails are
made elsewhere: a die goes slow, a read-disturb storm lands on the hottest
blocks, grown bad blocks force the FTL to remap live data mid-run.  This
experiment drives the adversarial access-pattern suite
(:mod:`repro.workloads.scenarios`) against the Figure 14 policy suite on a
page-mapped device, each cell twice — once fault-free and once under a
deterministic composite :class:`~repro.ssd.faults.FaultPlan` (a transient
die failure, a read-disturb storm on the hottest blocks, grown bad
blocks) — and reports how far each policy's p999 degrades.

The headline is per-policy: the ratio of the faulted p999 to the
fault-free p999, merged across every pattern.  The fault plan is seeded
and its injection times are fixed fractions of the stream horizon, so the
whole experiment is a pure function of its declared parameters
(serial == parallel, bitwise).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.experiments.api import param, register_experiment
from repro.experiments.reporting import ExperimentResult
from repro.sim.registry import default_registry
from repro.sim.session import Simulation
from repro.sim.sweep import pool_map
from repro.ssd.config import SsdConfig
from repro.ssd.faults import (
    FaultPlan,
    die_failure,
    grown_bad_blocks,
    read_disturb,
)
from repro.ssd.metrics import SimulationMetrics
from repro.workloads.scenarios import make_pattern
from repro.workloads.source import source_from_dict, source_to_dict

#: Fraction of the logical space the patterns touch — low enough to leave
#: the page-mapped FTL a healthy free-block pool for grown-bad remaps.
FOOTPRINT_FRACTION = 0.5

#: Precondition fill.  The default 0.85 parks every plane's free pool at
#: the grown-bad retirement guard (free <= gc_free_block_threshold + 1),
#: which would silently skip every retirement; 0.70 leaves real headroom.
FILL_FRACTION = 0.70


def _scenario_config() -> SsdConfig:
    """A small page-mapped device (grown-bad-block remap needs DFTL).

    Planes carry 24 blocks and the run preconditions at
    ``FILL_FRACTION`` so each plane keeps a free pool comfortably above
    the grown-bad retirement guard — retirement refuses to eat a plane's
    last free blocks, and the experiment needs it to actually happen.
    """
    return SsdConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                     blocks_per_plane=24, pages_per_block=24,
                     write_buffer_pages=32, mapping="page",
                     cmt_capacity_entries=128,
                     translation_entries_per_page=64,
                     gc_free_block_threshold=3, gc_stop_free_blocks=5)


def _fault_plan(horizon_us: float, seed: int) -> FaultPlan:
    """The composite plan: die failure, disturb storm, grown bad blocks.

    Injection times are fixed fractions of the stream horizon so the same
    plan shape scales from smoke runs to paper-scale ones.
    """
    return FaultPlan(faults=(
        die_failure(at_us=0.25 * horizon_us, channel=0, die=0,
                    duration_us=0.25 * horizon_us, latency_factor=4.0),
        read_disturb(at_us=0.40 * horizon_us, duration_us=0.30 * horizon_us,
                     blocks=4, extra_retry_steps=3),
        grown_bad_blocks(at_us=0.60 * horizon_us, blocks=2),
    ), seed=seed)


def check_faults_fired(result: ExperimentResult) -> ExperimentResult:
    """Postcondition: every row has both tails and saw the faults land.

    Grown-bad-block retirement refuses to eat a plane's last free blocks
    (hot_cold retires none at the full profile), so it is required of one
    pattern (every policy row), not of all.
    """
    result.require(
        "every policy ran fault-free and under a fault plan that fired",
        p999_baseline_us=lambda us: us > 0,
        p999_faulted_us=lambda us: us > 0,
        fault_injections=lambda count: count > 0,
        faulted_reads=lambda count: count > 0)
    return result.require(
        "every policy of some pattern retired grown bad blocks",
        group_by="pattern",
        grown_bad_blocks=lambda count: count > 0)


def _run_cell(payload: dict) -> Tuple[str, bool, Dict[str, object]]:
    """One (pattern, faulted?) cell against every policy — pure function."""
    config = SsdConfig.from_dict(payload["config"])
    source = source_from_dict(payload["source"])
    simulation = (Simulation(config)
                  .policies(payload["policies"])
                  .workload(source)
                  .condition(pec=payload["pe_cycles"],
                             months=payload["retention_months"],
                             fill=FILL_FRACTION))
    if payload.get("faults"):
        simulation.faults(FaultPlan.from_dict(payload["faults"]))
    run = simulation.run()
    return (payload["pattern"], bool(payload.get("faults")),
            dict(run.results))


@register_experiment(
    "adversarial_scenarios",
    artifact="Adversarial scenarios — per-policy p999 degradation under "
             "fault injection vs a fault-free baseline",
    tags=("system", "faults"),
    params=(
        param("patterns", ("seq_then_random", "snake", "stride", "hot_cold"),
              "adversarial access patterns (repro.workloads.scenarios)",
              fast=("snake", "hot_cold"), smoke=("hot_cold",)),
        param("num_requests", 2000, "host requests per pattern",
              fast=700, smoke=300),
        param("pe_cycles", 1000, "preconditioned P/E-cycle count"),
        param("retention_months", 6.0, "cold-data retention age"),
        param("mean_interarrival_us", 400.0,
              "mean host inter-arrival time (us)"),
        param("seed", 0, "pattern and fault-plan seed"),
        param("processes", 1, "worker processes (one cell each)",
              cache_relevant=False),
    ))
def run(patterns: Sequence[str] = ("seq_then_random", "snake", "stride",
                                   "hot_cold"),
        num_requests: int = 2000,
        pe_cycles: int = 1000,
        retention_months: float = 6.0,
        mean_interarrival_us: float = 400.0,
        seed: int = 0,
        processes: int = 1) -> ExperimentResult:
    """Per-policy p999 under deterministic faults vs fault-free baseline."""
    patterns = list(patterns)
    config = _scenario_config()
    policies = default_registry().names(tag="fig14")
    horizon_us = num_requests * mean_interarrival_us
    plan = _fault_plan(horizon_us, seed)

    payloads = []
    for name in patterns:
        source = make_pattern(name, num_requests=num_requests, seed=seed,
                              mean_interarrival_us=mean_interarrival_us,
                              footprint_fraction=FOOTPRINT_FRACTION)
        for faulted in (False, True):
            payloads.append({
                "config": config.to_dict(),
                "source": source_to_dict(source),
                "pattern": name,
                "policies": tuple(policies),
                "pe_cycles": pe_cycles,
                "retention_months": retention_months,
                "faults": plan.to_dict() if faulted else None,
            })
    outcomes = pool_map(_run_cell, payloads, processes)

    cells: Dict[Tuple[str, bool], Dict[str, object]] = {
        (pattern, faulted): results
        for pattern, faulted, results in outcomes
    }

    rows = []
    merged_baseline = {policy: SimulationMetrics() for policy in policies}
    merged_faulted = {policy: SimulationMetrics() for policy in policies}
    for name in patterns:
        baseline_cell = cells[(name, False)]
        faulted_cell = cells[(name, True)]
        for policy in policies:
            baseline = baseline_cell[policy].metrics
            faulted = faulted_cell[policy].metrics
            merged_baseline[policy].merge(baseline)
            merged_faulted[policy].merge(faulted)
            p999_baseline = baseline.latency("all").p999()
            p999_faulted = faulted.latency("all").p999()
            degradation = (p999_faulted / p999_baseline
                           if p999_baseline > 0 else 1.0)
            rows.append({
                "pattern": name,
                "policy": policy,
                "p999_baseline_us": round(p999_baseline, 2),
                "p999_faulted_us": round(p999_faulted, 2),
                "p999_degradation": round(degradation, 4),
                "p99_baseline_us": round(baseline.latency("all").p99(), 2),
                "p99_faulted_us": round(faulted.latency("all").p99(), 2),
                "fault_injections": faulted.fault_injections,
                "faulted_reads": faulted.faulted_reads,
                "grown_bad_blocks": faulted.grown_bad_blocks,
                "fault_remapped_pages": faulted.fault_remapped_pages,
            })

    headline = {}
    for policy in policies:
        p999_baseline = merged_baseline[policy].p999_response_time_us()
        p999_faulted = merged_faulted[policy].p999_response_time_us()
        degradation = (p999_faulted / p999_baseline
                       if p999_baseline > 0 else 1.0)
        headline[f"{policy} p999 under fault (x baseline)"] = (
            f"{degradation:.2f}x ({p999_baseline:.1f} -> "
            f"{p999_faulted:.1f} us)")
    any_policy = merged_faulted[policies[0]]
    headline["fault injections / faulted reads"] = (
        f"{any_policy.fault_injections} / {any_policy.faulted_reads}")
    headline["grown bad blocks (pages remapped)"] = (
        f"{any_policy.grown_bad_blocks} ({any_policy.fault_remapped_pages})")

    return check_faults_fired(ExperimentResult(
        name="adversarial_scenarios",
        title="Adversarial scenarios: p999 degradation under fault "
              "injection",
        rows=rows,
        headline=headline,
        notes=[
            f"{len(patterns)} patterns x {num_requests} requests, each run "
            "fault-free and under a seeded composite fault plan "
            f"({plan.label}) on a page-mapped device; die failure at 25% "
            "of the horizon (4x latency for 25%), read-disturb storm on "
            "the 4 hottest blocks at 40% (+3 retry steps for 30%), 2 "
            "grown bad blocks retired and remapped at 60%",
        ],
    ))


def main() -> None:  # pragma: no cover
    result = run(patterns=("hot_cold",), num_requests=300)
    print(result.to_text(max_rows=40))


if __name__ == "__main__":  # pragma: no cover
    main()
