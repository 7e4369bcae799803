"""MSRC-style workload presets.

The six MSRC traces of Table 2 (``stg_0``, ``hm_0``, ``prn_1``, ``proj_1``,
``mds_1``, ``usr_1``) are enterprise-server block traces with very different
read and cold ratios.  The presets here shape the synthetic generator like
enterprise traffic: moderate sequentiality (backup/scan phases), multi-page
requests and no particular popularity skew beyond the hot/cold split.
"""

from __future__ import annotations

from repro.workloads.synthetic import WorkloadShape


def msrc_shape(
    read_ratio: float,
    cold_ratio: float,
    mean_interarrival_us: float = 300.0,
) -> WorkloadShape:
    """Enterprise-trace flavour of the synthetic generator."""
    return WorkloadShape(
        read_ratio=read_ratio,
        cold_ratio=cold_ratio,
        mean_interarrival_us=mean_interarrival_us,
        mean_request_pages=2.0,
        sequential_fraction=0.35,
        zipf_theta=0.0,
        cold_region_fraction=0.6,
    )
