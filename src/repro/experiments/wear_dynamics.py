"""Wear dynamics: the Table 2 policy suite re-run under live DFTL GC.

Every paper experiment preconditions a statically aged device: one P/E
count for all blocks, no garbage collection during the run, no mapping
traffic.  This experiment re-validates the read-retry policy comparison
under the dynamic pressure a production device actually sees, using the
page-mapped DFTL subsystem (``mapping="page"``, :mod:`repro.ssd.dftl`):

* the cached mapping table is deliberately small, so host I/O drags
  translation-page reads/writes onto the same dies it is reading from;
* the device is sized so the write-heavy Table 2 workloads push planes
  below the GC trigger watermark — relocations, erases and batched
  translation updates compete with host traffic for die time;
* GC erases create P/E-cycle diversity, so reads see a spread of
  operating conditions instead of the single preconditioned slab.

Headline numbers are per-policy merged p99/p999 response times plus write
amplification — the tail under wear dynamics, next to the cost of the
internal traffic that produced it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments.api import param, register_experiment
from repro.experiments.reporting import ExperimentResult
from repro.sim.registry import default_registry
from repro.sim.spec import WorkloadSpec
from repro.sim.sweep import pool_map
from repro.ssd.config import SsdConfig
from repro.ssd.controller import aged_simulator
from repro.ssd.metrics import SimulationMetrics

#: Fraction of the logical space preconditioned as cold data.  Low enough
#: to leave a working free-block pool, high enough that overwrites create
#: the invalid pages GC feeds on.
FILL_FRACTION = 0.6

#: Fraction of the logical space the workloads' footprints cover; the
#: concentration is what makes overwrites (and therefore GC) happen within
#: a bounded request budget.
FOOTPRINT_FRACTION = 0.5


def _wear_config(cmt_capacity_entries: int) -> SsdConfig:
    """A small page-mapped device that reaches GC steady state quickly.

    Four planes of 16 x 24-page blocks: big enough for realistic striping
    and per-die contention, small enough that the write-heavy Table 2
    workloads push the planes below the GC trigger watermark within a few
    hundred requests at every profile.
    """
    return SsdConfig(channels=2, dies_per_channel=2, planes_per_die=1,
                     blocks_per_plane=16, pages_per_block=24,
                     write_buffer_pages=32, mapping="page",
                     cmt_capacity_entries=cmt_capacity_entries,
                     translation_entries_per_page=64,
                     gc_free_block_threshold=3, gc_stop_free_blocks=5)


def check_live_gc(result: ExperimentResult) -> ExperimentResult:
    """Postcondition: every policy of some workload ran under live GC.

    Every row must also show mapping-cache traffic.  Some workloads finish
    before any plane reaches the GC watermark (YCSB-A at the fast and full
    profiles, usr_1 at full), so GC is required of one workload (every
    policy row), not of all.
    """
    result.require(
        "every policy saw a working mapping cache",
        mapping_cache_hit_rate=lambda rate: 0.0 < rate <= 1.0)
    return result.require(
        "every policy of some workload ran under live GC",
        group_by="workload",
        gc_invocations=lambda count: count > 0,
        write_amplification=lambda ratio: ratio > 1.0)


def _run_workload(payload: dict) -> Tuple[str, Dict[str, tuple]]:
    """Run one workload against every policy (pure function of its payload)."""
    config = SsdConfig.from_dict(payload["config"])
    spec = WorkloadSpec.from_dict(payload["workload"])
    rpt = ReadTimingParameterTable.default()
    requests = spec.build_requests(config)
    cell: Dict[str, tuple] = {}
    for name in payload["policies"]:
        simulator = aged_simulator(name, config, rpt,
                                   pe_cycles=payload["pe_cycles"],
                                   retention_months=payload["retention_months"],
                                   fill_fraction=FILL_FRACTION)
        result = simulator.run(requests)
        cell[result.policy_name] = (result,
                                    simulator.distinct_read_conditions)
    return spec.label, cell


@register_experiment(
    "wear_dynamics",
    artifact="Wear dynamics — Table 2 policies under live DFTL GC "
             "(p99/p999 + write amplification)",
    tags=("system", "wear"),
    params=(
        param("workloads", ("stg_0", "hm_0", "YCSB-A", "usr_1"),
              "Table 2 workload names (write-heavy mixes trigger GC)",
              fast=("stg_0", "YCSB-A"), smoke=("stg_0",)),
        param("num_requests", 2500, "host requests per workload",
              fast=800, smoke=300),
        param("pe_cycles", 1000, "preconditioned P/E-cycle count"),
        param("retention_months", 6.0, "cold-data retention age"),
        param("cmt_capacity_entries", 128,
              "cached-mapping-table capacity (small = more misses)"),
        param("mean_interarrival_us", 800.0,
              "mean host inter-arrival time (us)"),
        param("seed", 0, "stream seed"),
        param("processes", 1, "worker processes (one workload each)",
              cache_relevant=False),
    ))
def run(workloads: Sequence[str] = ("stg_0", "hm_0", "YCSB-A", "usr_1"),
        num_requests: int = 2500,
        pe_cycles: int = 1000,
        retention_months: float = 6.0,
        cmt_capacity_entries: int = 128,
        mean_interarrival_us: float = 800.0,
        seed: int = 0,
        processes: int = 1) -> ExperimentResult:
    """Per-policy tails and write amplification with GC and mapping traffic."""
    workloads = list(workloads)
    config = _wear_config(cmt_capacity_entries)
    policies = default_registry().names(tag="fig14")
    payloads = []
    for name in workloads:
        spec = WorkloadSpec.coerce(
            name, num_requests=num_requests, seed=seed,
            mean_interarrival_us=mean_interarrival_us,
            footprint_fraction=FOOTPRINT_FRACTION)
        payloads.append({
            "config": config.to_dict(),
            "workload": spec.to_dict(),
            "policies": tuple(policies),
            "pe_cycles": pe_cycles,
            "retention_months": retention_months,
        })
    outcomes = pool_map(_run_workload, payloads, processes)

    rows = []
    merged = {policy: SimulationMetrics() for policy in policies}
    for label, cell in outcomes:
        reference = cell.get("Baseline", cell[policies[0]])
        baseline_mean = reference[0].metrics.mean_response_time_us()
        for policy in policies:
            result, conditions_seen = cell[policy]
            metrics = result.metrics
            merged[policy].merge(metrics)
            combined = metrics.latency("all")
            normalized = (metrics.mean_response_time_us() / baseline_mean
                          if baseline_mean > 0 else 1.0)
            rows.append({
                "workload": label,
                "policy": policy,
                "normalized_response_time": round(normalized, 4),
                "mean_response_us": round(
                    metrics.mean_response_time_us(), 2),
                "p99_response_us": round(combined.p99(), 2),
                "p999_response_us": round(combined.p999(), 2),
                "write_amplification": round(
                    metrics.write_amplification(), 4),
                "mapping_cache_hit_rate": round(
                    metrics.mapping_cache_hit_rate(), 4),
                "gc_invocations": metrics.gc_invocations,
                "gc_programs": metrics.gc_programs,
                "gc_erases": metrics.gc_erases,
                "translation_reads": metrics.translation_reads,
                "translation_writes": metrics.translation_writes,
                "distinct_read_conditions": conditions_seen,
            })

    headline = {}
    for policy in policies:
        aggregate = merged[policy]
        headline[f"{policy} p99/p999 under GC (us)"] = (
            f"{aggregate.p99_response_time_us():.1f} / "
            f"{aggregate.p999_response_time_us():.1f}")
    any_policy = merged[policies[0]]
    headline["write amplification"] = (
        f"{any_policy.write_amplification():.2f}")
    headline["mapping cache hit rate"] = (
        f"{any_policy.mapping_cache_hit_rate():.1%}")
    headline["gc invocations"] = str(any_policy.gc_invocations)

    return check_live_gc(ExperimentResult(
        name="wear_dynamics",
        title="Wear dynamics: Table 2 policies under live DFTL GC",
        rows=rows,
        headline=headline,
        notes=[
            f"{len(workloads)} workloads x {num_requests} requests on a "
            f"page-mapped device (CMT {cmt_capacity_entries} entries, GC "
            "watermarks 3/5 free blocks); translation-page reads/writes "
            "and GC relocations are real flash transactions contending "
            "with host I/O, and GC-created P/E diversity feeds the reads' "
            "operating conditions",
        ],
    ))


def main() -> None:  # pragma: no cover
    result = run(workloads=("stg_0",), num_requests=400)
    print(result.to_text(max_rows=40))


if __name__ == "__main__":  # pragma: no cover
    main()
