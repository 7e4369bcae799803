"""YCSB-style workload presets.

The YCSB workloads (A-F) of Table 2 are key-value benchmark traces captured
at the storage level: almost entirely reads (the read ratio is 0.98-0.99),
small requests, and a Zipfian popularity skew over the keys.  Workload E is
dominated by short range scans, which shows up as a higher sequential
fraction and a very high cold ratio.
"""

from __future__ import annotations

from repro.workloads.synthetic import WorkloadShape


def ycsb_shape(
    read_ratio: float,
    cold_ratio: float,
    scan_heavy: bool = False,
    mean_interarrival_us: float = 200.0,
) -> WorkloadShape:
    """Key-value-store flavour of the synthetic generator."""
    return WorkloadShape(
        read_ratio=read_ratio,
        cold_ratio=cold_ratio,
        mean_interarrival_us=mean_interarrival_us,
        mean_request_pages=4.0 if scan_heavy else 1.2,
        sequential_fraction=0.5 if scan_heavy else 0.05,
        zipf_theta=0.99,
        cold_region_fraction=0.6,
    )
