"""Storage workloads: trace format and synthetic generators.

The paper evaluates twelve block-I/O workloads (Table 2): six enterprise
traces from the Microsoft Research Cambridge (MSRC) suite and six YCSB
key-value workloads.  The original traces are not redistributable, so this
subpackage provides:

* :mod:`repro.workloads.trace` — a trace-record format plus a reader/writer
  for the MSRC CSV layout, so the harness can also replay real traces when
  they are available;
* :mod:`repro.workloads.synthetic` — a parametric generator reproducing the
  two characteristics the evaluation is sensitive to: the *read ratio* and
  the *cold ratio* (fraction of reads whose target page is never updated and
  therefore keeps a long retention age);
* :mod:`repro.workloads.msrc` and :mod:`repro.workloads.ycsb` — presets that
  shape the generic generator like the respective suites;
* :mod:`repro.workloads.catalog` — Table 2 itself, mapping workload names to
  their parameters;
* :mod:`repro.workloads.source` — the unified ``WorkloadSource`` protocol
  every stream-producing object implements, plus its serialization
  registry (``source_to_dict``/``source_from_dict``);
* :mod:`repro.workloads.scenarios` — the adversarial access-pattern suite
  (snake sweeps, hot/cold zones, burst trains, in-stream control events).

A named Table 2 stream is ``catalog_workload(name, footprint_pages,
seed=...).iter_requests(n)``, or ``repro.sim.WorkloadSpec(name=...)`` where
the footprint follows the device config.
"""

from repro.workloads.trace import (
    TraceRecord,
    TraceReplay,
    iter_msrc_csv,
    iter_records_to_requests,
    read_msrc_csv,
    records_to_requests,
    write_msrc_csv,
)
from repro.workloads.router import StripeRouter
from repro.workloads.synthetic import SyntheticWorkload, WorkloadShape
from repro.workloads.catalog import (
    WORKLOAD_CATALOG,
    WorkloadSpec,
    catalog_workload,
    workload_names,
)
from repro.workloads.source import (
    as_workload_source,
    is_workload_source,
    register_source,
    source_from_dict,
    source_kinds,
    source_to_dict,
)
from repro.workloads.scenarios import (
    PATTERNS,
    BurstTrain,
    ControlEvents,
    DiurnalCycle,
    HotColdZone,
    SequentialThenRandomRead,
    SnakeSweep,
    StridedRead,
    make_pattern,
)


def __getattr__(name):
    # TenantMix and ClosedLoopSource import repro.sim.spec at module level,
    # and repro.sim.spec imports repro.workloads.catalog — importing them
    # eagerly here would deadlock whichever side loads second.  PEP 562
    # lazy attributes break the cycle without changing the public surface.
    if name == "TenantMix":
        from repro.workloads.tenants import TenantMix

        return TenantMix
    if name == "ClosedLoopSource":
        from repro.workloads.closed_loop import ClosedLoopSource

        return ClosedLoopSource
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "TraceRecord",
    "TraceReplay",
    "iter_msrc_csv",
    "read_msrc_csv",
    "write_msrc_csv",
    "iter_records_to_requests",
    "records_to_requests",
    "StripeRouter",
    "SyntheticWorkload",
    "WorkloadShape",
    "WorkloadSpec",
    "WORKLOAD_CATALOG",
    "workload_names",
    "catalog_workload",
    "as_workload_source",
    "is_workload_source",
    "register_source",
    "source_from_dict",
    "source_kinds",
    "source_to_dict",
    "PATTERNS",
    "make_pattern",
    "SequentialThenRandomRead",
    "SnakeSweep",
    "StridedRead",
    "HotColdZone",
    "BurstTrain",
    "DiurnalCycle",
    "ControlEvents",
    "TenantMix",
    "ClosedLoopSource",
]
