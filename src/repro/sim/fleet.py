"""Fleet-scale simulation: arrays of SSDs behind a striping front-end.

The paper evaluates read-retry policies one device at a time; a production
deployment serves millions of users from *arrays* of devices behind a
striping/replication front-end, and the operative question changes from
"what is the mean response time of this trace?" to "what arrival rate can
the array sustain under a p99 SLO?".  This module answers both:

* :class:`FleetSpec` — the array: device count, stripe unit, replication
  factor, the per-device :class:`~repro.ssd.config.SsdConfig` and operating
  :class:`~repro.sim.spec.Condition` (optionally per device, for
  heterogeneously aged fleets);
* :class:`FleetRunner` — shards any array-level workload (a
  :class:`~repro.sim.spec.WorkloadSpec`, a multi-tenant
  :class:`~repro.workloads.tenants.TenantMix`, or an explicit request list)
  across per-device simulators via the striping router.  Every device
  worker regenerates its own shard from the spec, so nothing is
  materialized in the parent and ``processes=N`` is bitwise-identical to
  serial;
* :class:`FleetResult` — array-level metrics from
  :meth:`~repro.ssd.metrics.LatencyHistogram.merge`: overall and per-tenant
  p50/p99/p999, per-device utilization skew;
* :class:`SloCapacitySearch` — bisects the arrival rate (geometrically,
  with automatic bracketing) to find the maximum load whose array p99 stays
  within a target, the fleet-sizing primitive behind
  ``Simulation.fleet(n).slo(p99_us=...)`` and the ``fleet_capacity``
  experiment.

The runner is a thin front-end over the dispatch core it shares with
:class:`~repro.sim.sweep.SweepRunner` (see :mod:`repro.sim.sweep`): one
:class:`~repro.sim.sweep.WorkerPool`, one parent-side retry-grid prefill
(:func:`~repro.ssd.retry_grid.prefill_shared_grid`, inherited by forked
workers) and one aged-device builder
(:func:`~repro.ssd.controller.aged_simulator`).  What stays fleet-only are
the two levers that keep 10k-device fleets tractable:

* **Sharded streaming execution** — devices are dispatched in bounded
  shards (``shard_devices``, default :data:`DEFAULT_SHARD_DEVICES`) and each
  device's metrics are folded into the running :class:`FleetResult` as they
  land, so peak memory follows the shard size, not the fleet size.
  Per-shard wall-clock timings are recorded for later multi-host placement.
* **Checkpoint/resume** — with a ``checkpoint`` store attached, every
  completed shard's per-device metric states (and every capacity-search
  probe) are persisted to the
  :class:`~repro.experiments.store.CheckpointStore`, keyed by (schema
  version, fleet spec, source, policy, shard index).  A killed run resumes
  mid-fleet — checkpointed shards are folded back in the original device
  order, which makes the resumed result *bitwise-identical* to an
  uninterrupted run (the fold is Neumaier-compensated and therefore not
  associative, so shards are never pre-merged).
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.rpt import ReadTimingParameterTable
from repro.experiments.store import CheckpointStore
from repro.sim.registry import default_registry
from repro.sim.spec import Condition, WorkloadSpec
from repro.sim.sweep import DEFAULT_MEAN_INTERARRIVAL_US, WorkerPool, _default_rpt
from repro.ssd.config import SsdConfig
from repro.ssd.controller import DEFAULT_LOOKAHEAD_REQUESTS, SimulationResult, aged_simulator
from repro.ssd.faults import FaultPlan
from repro.ssd.metrics import SimulationMetrics
from repro.ssd.request import HostRequest
from repro.ssd.retry_grid import prefill_shared_grid, rpt_fingerprint
from repro.workloads.router import StripeRouter
from repro.workloads.source import is_workload_source, source_from_dict, source_to_dict
from repro.workloads.tenants import TenantMix

logger = logging.getLogger("repro.sim.fleet")

#: Any array-level request source the fleet can shard.
FleetSource = Union[str, WorkloadSpec, TenantMix, Sequence[HostRequest], dict]

#: Devices dispatched (and checkpointed) per shard unless overridden.
DEFAULT_SHARD_DEVICES = 64

#: Version of the checkpoint payload layout; part of every checkpoint key,
#: so changing the serialized form orphans old entries instead of
#: misreading them.
FLEET_CHECKPOINT_SCHEMA = 1

#: Checkpoint namespaces (directories under ``<cache root>/checkpoints/``).
FLEET_SHARD_KIND = "fleet_shard"
PROBE_TRAIL_KIND = "slo_probes"


@dataclass(frozen=True)
class FleetSpec:
    """An array of identical SSDs behind a striping/replication front-end."""

    devices: int = 4
    stripe_unit_pages: int = 8
    replication: int = 1
    #: Per-device configuration (all devices share one geometry).
    config: SsdConfig = field(default_factory=SsdConfig.scaled)
    #: Operating condition shared by every device ...
    condition: Condition = field(default_factory=Condition)
    #: ... unless a per-device tuple is given (heterogeneously aged fleet).
    device_conditions: Optional[Tuple[Condition, ...]] = None

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("devices must be at least 1")
        if not 1 <= self.replication <= self.devices:
            raise ValueError("replication must be in [1, devices]")
        if self.device_conditions is not None:
            coerced = tuple(Condition.coerce(condition) for condition in self.device_conditions)
            if len(coerced) != self.devices:
                raise ValueError(f"{len(coerced)} device_conditions for {self.devices} devices")
            object.__setattr__(self, "device_conditions", coerced)

    def router(self) -> StripeRouter:
        return StripeRouter(
            devices=self.devices,
            stripe_unit_pages=self.stripe_unit_pages,
            replication=self.replication,
        )

    @property
    def array_logical_pages(self) -> int:
        """Host-visible pages of the whole array (mirrors cost capacity)."""
        return self.devices * self.config.logical_pages // self.replication

    def device_condition(self, device: int) -> Condition:
        if self.device_conditions is not None:
            return self.device_conditions[device]
        return self.condition

    # -- manifest round-trip ---------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "devices": self.devices,
            "stripe_unit_pages": self.stripe_unit_pages,
            "replication": self.replication,
            "config": self.config.to_dict(),
            "condition": self.condition.to_dict(),
        }
        if self.device_conditions is not None:
            payload["device_conditions"] = [
                condition.to_dict() for condition in self.device_conditions
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetSpec":
        payload = dict(payload)
        payload["config"] = SsdConfig.from_dict(payload["config"])
        payload["condition"] = Condition.from_dict(payload["condition"])
        if payload.get("device_conditions") is not None:
            payload["device_conditions"] = tuple(
                Condition.from_dict(condition) for condition in payload["device_conditions"]
            )
        return cls(**payload)


def _source_payload(source: FleetSource, num_requests: Optional[int], seed: Optional[int]) -> dict:
    """Normalize an array-level request source into a picklable payload."""
    if isinstance(source, TenantMix):
        return {"tenant_mix": source.to_dict()}
    if isinstance(source, dict) and "tenants" in source:
        return {"tenant_mix": TenantMix.from_dict(source).to_dict()}
    if isinstance(source, dict) and "kind" in source:
        # Normalize through the registry so malformed payloads fail here,
        # in the parent, not inside a pool worker.
        return {"source": source_to_dict(source_from_dict(source))}
    if isinstance(source, (str, WorkloadSpec, dict)):
        spec = WorkloadSpec.coerce(source, num_requests=num_requests, seed=seed)
        return {"workload": spec.to_dict()}
    if is_workload_source(source):
        return {"source": source_to_dict(source)}
    if isinstance(source, Sequence):
        return {"requests": list(source)}
    raise TypeError(
        f"cannot shard {source!r}; pass a workload name/spec, a TenantMix, "
        "a WorkloadSource, or a sequence of HostRequest objects"
    )


def _source_stream(payload: dict, spec: FleetSpec) -> Iterable[HostRequest]:
    """Rebuild the array-level stream a payload describes (in a worker)."""
    pages = spec.array_logical_pages
    if "workload" in payload:
        workload = WorkloadSpec.from_dict(payload["workload"])
        return workload.iter_requests(spec.config, footprint_pages=pages)
    if "source" in payload:
        source = source_from_dict(payload["source"])
        return source.iter_requests(spec.config, footprint_pages=pages)
    mix = TenantMix.from_dict(payload["tenant_mix"])
    return mix.iter_requests(spec.config, footprint_pages=pages)


def _source_label(payload: dict) -> str:
    if "workload" in payload:
        return WorkloadSpec.from_dict(payload["workload"]).label
    if "source" in payload:
        return source_from_dict(payload["source"]).label
    if "tenant_mix" in payload:
        return TenantMix.from_dict(payload["tenant_mix"]).label
    return f"explicit-{len(payload['requests'])}"


def _payload_tracks_tenants(payload: dict) -> bool:
    if "tenant_mix" in payload:
        return True
    if "source" in payload:
        source = source_from_dict(payload["source"])
        return bool(getattr(source, "tracks_tenants", False))
    return False


def _requests_digest(requests: Sequence[HostRequest]) -> str:
    """Stable digest of an explicit request list (checkpoint identity).

    Hashes the requests' logical identity, not their ``repr`` — request ids
    come from a process-local counter and would defeat resume.
    """
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            f"{request.arrival_us}:{request.kind.name}:{request.start_lpn}:"
            f"{request.page_count}:{request.queue_id}\n".encode("utf-8")
        )
    return digest.hexdigest()


def _run_fleet_device(payload: dict) -> Tuple[str, int, SimulationResult]:
    """Simulate one device's shard — pure function of its payload.

    The serial and parallel paths both execute exactly this function, which
    is what makes ``processes=N`` bitwise-identical to a serial run.
    """
    spec = FleetSpec.from_dict(payload["fleet"])
    device = payload["device"]
    policy_name = payload["policy"]
    rpt = payload.get("rpt") or _default_rpt()
    condition = spec.device_condition(device)
    simulator = aged_simulator(
        policy_name,
        spec.config,
        rpt,
        pe_cycles=condition.pe_cycles,
        retention_months=condition.retention_months,
        fill_fraction=condition.fill_fraction,
        faults=FaultPlan.from_dict(payload["faults"]) if payload.get("faults") else None,
        device_id=device,
        track_tenants=_payload_tracks_tenants(payload),
    )
    if "device_requests" in payload:
        # Explicit lists were sorted and sharded once in the parent; the
        # payload already holds this device's own sub-requests.
        shard: Iterable[HostRequest] = payload["device_requests"]
    else:
        shard = spec.router().shard(_source_stream(payload, spec), device)
    result = simulator.run(shard, lookahead=payload.get("lookahead") or DEFAULT_LOOKAHEAD_REQUESTS)
    return policy_name, device, result


@dataclass(frozen=True)
class FleetShardTiming:
    """Wall-clock accounting of one dispatched shard.

    Recorded for later multi-host placement planning; deliberately kept out
    of checkpoints and result comparisons (timings are the one
    non-deterministic output of a run).
    """

    index: int
    policy: str
    devices: int
    elapsed_s: float
    from_checkpoint: bool

    def to_dict(self) -> dict:
        return {
            "shard": self.index,
            "policy": self.policy,
            "devices": self.devices,
            "elapsed_s": round(self.elapsed_s, 6),
            "from_checkpoint": self.from_checkpoint,
        }


class FleetResult:
    """Array-level outcome of one policy's fleet run.

    A *streaming* collector: the runner folds each device's finished
    metrics in as it lands (:meth:`absorb_device`), so the result holds one
    merged :class:`~repro.ssd.metrics.SimulationMetrics` plus a tidy report
    row per device — never the per-device result objects — and a 10k-device
    run costs shard-sized, not fleet-sized, memory.  Constructing with
    ``device_results`` folds them immediately (the pre-streaming API).
    """

    def __init__(
        self,
        spec: FleetSpec,
        policy: str,
        device_results: Optional[Iterable[SimulationResult]] = None,
        workload_label: str = "",
        tenant_names: Optional[Tuple[str, ...]] = None,
    ):
        self.spec = spec
        self.policy = policy
        self.workload_label = workload_label
        self.tenant_names = tenant_names
        #: Every absorbed device's metrics folded into one collector.
        self.merged = SimulationMetrics()
        #: Per-shard wall-clock timings, appended by the runner.
        self.shard_timings: List[FleetShardTiming] = []
        self.device_count = 0
        self._rows: List[dict] = []
        self._utilizations: List[float] = []
        for result in device_results or ():
            self.absorb_device(result.device_id, result.metrics)

    # -- streaming aggregation -------------------------------------------------
    def absorb_device(self, device: int, metrics: SimulationMetrics) -> None:
        """Fold one device's finished metrics into the running aggregate.

        Devices must be absorbed in a deterministic order (the runner uses
        ascending device id per policy): the latency fold is
        Neumaier-compensated and therefore order-sensitive at the last bit.
        """
        combined = metrics.latency("all")
        utilization = metrics.die_utilization()
        self._rows.append(
            {
                "policy": self.policy,
                "device": device,
                "host_reads": metrics.host_reads,
                "host_writes": metrics.host_writes,
                "mean_response_us": round(metrics.mean_response_time_us(), 2),
                "p99_response_us": round(combined.p99(), 2),
                "p999_response_us": round(combined.p999(), 2),
                "die_utilization": round(utilization, 3),
            }
        )
        self._utilizations.append(utilization)
        self.merged.merge(metrics)
        self.device_count += 1

    def percentile(self, percentile: float, kind: str = "all") -> float:
        return self.merged.percentile_response_time_us(percentile, kind)

    def p99(self, kind: str = "all") -> float:
        return self.percentile(99.0, kind)

    def p999(self, kind: str = "all") -> float:
        return self.percentile(99.9, kind)

    def mean_response_us(self, kind: str = "all") -> float:
        return self.merged.mean_response_time_us(kind)

    # -- tenants ---------------------------------------------------------------
    def tenant_tails(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant p50/p99/p999 merged across every device."""
        tails = {}
        for tenant, histogram in sorted(self.merged.tenant_latency.items()):
            name = (
                self.tenant_names[tenant]
                if self.tenant_names and tenant < len(self.tenant_names)
                else str(tenant)
            )
            tails[name] = {
                "count": histogram.count,
                "p50_us": round(histogram.percentile(50.0), 2),
                "p99_us": round(histogram.p99(), 2),
                "p999_us": round(histogram.p999(), 2),
            }
        return tails

    # -- device balance --------------------------------------------------------
    def device_utilizations(self) -> List[float]:
        return list(self._utilizations)

    def utilization_skew(self) -> float:
        """max/mean device utilization — 1.0 is a perfectly balanced array."""
        utilizations = self._utilizations
        if not utilizations:
            return 1.0
        mean = sum(utilizations) / len(utilizations)
        if mean <= 0:
            return 1.0
        return max(utilizations) / mean

    # -- reporting -------------------------------------------------------------
    def device_rows(self) -> List[dict]:
        """One tidy row per device (the fleet report's long format)."""
        return [dict(row) for row in self._rows]

    def shard_rows(self) -> List[dict]:
        """Per-shard wall-clock rows (placement planning; not reproducible)."""
        return [timing.to_dict() for timing in self.shard_timings]

    def summary(self) -> dict:
        combined = self.merged.latency("all")
        summary = {
            "policy": self.policy,
            "devices": self.spec.devices,
            "replication": self.spec.replication,
            "workload": self.workload_label,
            "requests": self.merged.host_reads + self.merged.host_writes,
            "mean_response_us": round(self.mean_response_us(), 2),
            "p50_response_us": round(combined.percentile(50.0), 2),
            "p99_response_us": round(combined.p99(), 2),
            "p999_response_us": round(combined.p999(), 2),
            "utilization_skew": round(self.utilization_skew(), 3),
        }
        tails = self.tenant_tails()
        if len(tails) > 1:
            summary["tenants"] = tails
        return summary


@dataclass
class FleetRunResult:
    """Per-policy :class:`FleetResult` objects of one fleet run."""

    spec: FleetSpec
    results: Dict[str, FleetResult]
    manifest: dict = field(default_factory=dict)

    @property
    def policies(self) -> List[str]:
        return list(self.results)

    def __getitem__(self, policy: str) -> FleetResult:
        return self.results[policy]

    def __iter__(self):
        return iter(self.results.items())

    @property
    def result(self) -> FleetResult:
        if len(self.results) != 1:
            raise ValueError(f"run holds {len(self.results)} policies; index by name")
        return next(iter(self.results.values()))

    def rows(self) -> List[dict]:
        return [row for result in self.results.values() for row in result.device_rows()]

    def shard_rows(self) -> List[dict]:
        return [row for result in self.results.values() for row in result.shard_rows()]


class FleetRunner:
    """Executes an array-level workload across a fleet of simulated SSDs.

    :param processes: worker-process count; 1 (default) runs in-process.
    :param shard_devices: devices dispatched (and checkpointed) per shard;
        ``None`` means :data:`DEFAULT_SHARD_DEVICES`.
    :param checkpoint: a :class:`~repro.experiments.store.CheckpointStore`,
        a cache-root path for one, or ``None`` (no checkpointing).
    :param use_shared_memory: ignored; workers inherit the parent's slabs
        through ``fork``.  Kept so existing callers keep working.
    """

    def __init__(
        self,
        spec: Optional[FleetSpec] = None,
        processes: int = 1,
        rpt: Optional[ReadTimingParameterTable] = None,
        shard_devices: Optional[int] = None,
        checkpoint: Union[CheckpointStore, str, None] = None,
        use_shared_memory: bool = True,
    ):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if shard_devices is not None and shard_devices < 1:
            raise ValueError("shard_devices must be at least 1")
        self.spec = spec or FleetSpec()
        self.processes = processes
        self.rpt = rpt
        self.shard_devices = DEFAULT_SHARD_DEVICES if shard_devices is None else int(shard_devices)
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointStore(checkpoint)
        self._registry = default_registry()

    # -- dispatch helpers ------------------------------------------------------
    def _shard_ranges(self) -> List[range]:
        return [
            range(start, min(start + self.shard_devices, self.spec.devices))
            for start in range(0, self.spec.devices, self.shard_devices)
        ]

    # -- execution -------------------------------------------------------------
    def run(
        self,
        source: FleetSource,
        policies: Union[str, Iterable[str]] = "Baseline",
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        lookahead: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> FleetRunResult:
        """Shard ``source`` across the fleet for every policy.

        Devices go through the worker pool in bounded shards; each worker
        regenerates the array-level stream from its spec/mix payload and
        filters it down to its own device, so the parent never materializes
        a declarative trace and worker results are pure functions of their
        payloads (serial == parallel, bitwise).  Explicit request lists —
        already materialized by definition — are sorted and sharded once in
        the parent, so each worker receives only its own device's
        sub-requests.  With a checkpoint store attached, finished shards
        are persisted and later runs fold them back in instead of
        re-simulating.
        """
        if isinstance(policies, str):
            policies = (policies,)
        policy_names = tuple(self._registry.canonical_name(name) for name in policies)
        if not policy_names:
            raise ValueError("no policies given")
        source_payload = _source_payload(source, num_requests, seed)
        label = _source_label(source_payload)
        fault_plan = FaultPlan.coerce(faults) if faults is not None else None
        if "requests" in source_payload:
            # Keep the single-device contract ("pre-materialized sequences
            # are sorted up front"), then split per device so payloads
            # carry 1/N of the trace instead of devices x policies copies.
            router = self.spec.router()
            ordered = sorted(source_payload.pop("requests"), key=lambda request: request.arrival_us)
            shards = {
                device: list(router.shard(ordered, device)) for device in range(self.spec.devices)
            }
        else:
            ordered = None
            shards = None
        fleet_dict = self.spec.to_dict()
        manifest_source = {key: value for key, value in source_payload.items() if key != "requests"}
        tenant_names = None
        if "tenant_mix" in source_payload:
            tenant_names = TenantMix.from_dict(source_payload["tenant_mix"]).tenant_names()
        results = {
            name: FleetResult(
                spec=self.spec, policy=name, workload_label=label, tenant_names=tenant_names
            )
            for name in policy_names
        }
        base_params = None
        if self.checkpoint is not None:
            base_params = {
                "schema": FLEET_CHECKPOINT_SCHEMA,
                "fleet": fleet_dict,
                "source": manifest_source,
                "lookahead": lookahead,
                "faults": fault_plan.to_dict() if fault_plan else None,
                "rpt": rpt_fingerprint(self.rpt) if self.rpt is not None else None,
            }
            if ordered is not None:
                base_params["requests_digest"] = _requests_digest(ordered)
        checkpoint_hits = 0
        checkpoint_stored = 0
        conditions = (self.spec.device_condition(device) for device in range(self.spec.devices))
        # Prefilled before the pool forks, so forked workers inherit the slabs.
        prefill_shared_grid(self.spec.config, self.rpt or _default_rpt(), conditions)
        with WorkerPool(self.processes) as pool:
            for policy in policy_names:
                collector = results[policy]
                common = dict(
                    source_payload,
                    fleet=fleet_dict,
                    policy=policy,
                    rpt=self.rpt,
                    lookahead=lookahead,
                    **({"faults": fault_plan.to_dict()} if fault_plan else {}),
                )
                for shard_index, device_range in enumerate(self._shard_ranges()):
                    params = None
                    restored = None
                    if base_params is not None:
                        params = dict(
                            base_params,
                            policy=policy,
                            shard=shard_index,
                            devices=[device_range.start, device_range.stop],
                        )
                        restored = self.checkpoint.load(FLEET_SHARD_KIND, params)
                    started = time.perf_counter()  # repro-lint: disable=no-wall-clock
                    if restored is not None:
                        for device, state in zip(restored["devices"], restored["metrics"]):
                            collector.absorb_device(
                                int(device), SimulationMetrics.from_state(state)
                            )
                        checkpoint_hits += 1
                        logger.info(
                            "fleet shard %d (policy %s, devices %d..%d) served from checkpoint",
                            shard_index,
                            policy,
                            device_range.start,
                            device_range.stop - 1,
                        )
                    else:
                        payloads = [
                            dict(
                                common,
                                device=device,
                                **(
                                    {"device_requests": shards[device]}
                                    if shards is not None
                                    else {}
                                ),
                            )
                            for device in device_range
                        ]
                        states: List[dict] = []
                        for _, device, result in pool.pool_map(_run_fleet_device, payloads):
                            if params is not None:
                                states.append(result.metrics.to_state())
                            collector.absorb_device(device, result.metrics)
                        if params is not None:
                            self.checkpoint.save(
                                FLEET_SHARD_KIND,
                                params,
                                {"devices": list(device_range), "metrics": states},
                            )
                            checkpoint_stored += 1
                    elapsed = time.perf_counter() - started  # repro-lint: disable=no-wall-clock
                    collector.shard_timings.append(
                        FleetShardTiming(
                            index=shard_index,
                            policy=policy,
                            devices=len(device_range),
                            elapsed_s=elapsed,
                            from_checkpoint=restored is not None,
                        )
                    )
        manifest = {
            "fleet": fleet_dict,
            "source": manifest_source,
            "policies": list(policy_names),
            "shard_devices": self.shard_devices,
        }
        if fault_plan:
            manifest["faults"] = fault_plan.to_dict()
        if self.checkpoint is not None:
            manifest["checkpoints"] = {"hits": checkpoint_hits, "stored": checkpoint_stored}
        return FleetRunResult(spec=self.spec, results=results, manifest=manifest)


# -- SLO capacity search -------------------------------------------------------
def _current_rate_rps(source: Union[WorkloadSpec, TenantMix]) -> float:
    if isinstance(source, TenantMix):
        return source.total_arrival_rate_rps(DEFAULT_MEAN_INTERARRIVAL_US)
    interarrival = source.mean_interarrival_us or DEFAULT_MEAN_INTERARRIVAL_US
    return 1e6 / interarrival


def _with_rate(
    source: Union[WorkloadSpec, TenantMix], rate_rps: float
) -> Union[WorkloadSpec, TenantMix]:
    if isinstance(source, TenantMix):
        return source.with_arrival_rate(rate_rps, DEFAULT_MEAN_INTERARRIVAL_US)
    return WorkloadSpec.coerce(source, mean_interarrival_us=1e6 / rate_rps)


@dataclass
class CapacityProbe:
    """One measured point of the capacity search."""

    rate_rps: float
    mean_interarrival_us: float
    p99_us: float
    meets_slo: bool


@dataclass
class CapacityResult:
    """Outcome of one SLO capacity search."""

    policy: str
    target_p99_us: float
    tolerance: float
    converged: bool
    #: Highest measured rate meeting the SLO (None if even the lowest
    #: probed rate violated it).
    max_rate_rps: Optional[float]
    #: Lowest measured rate violating the SLO (None if the search never
    #: saw a violation — the device is not the bottleneck at these rates).
    min_violating_rate_rps: Optional[float]
    probes: List[CapacityProbe]
    #: The fleet result measured at ``max_rate_rps``.
    fleet: Optional[FleetResult] = None

    @property
    def max_sustainable_interarrival_us(self) -> Optional[float]:
        if self.max_rate_rps is None:
            return None
        return 1e6 / self.max_rate_rps

    def probe_rows(self) -> List[dict]:
        return [
            {
                "probe": index,
                "rate_rps": round(probe.rate_rps, 2),
                "mean_interarrival_us": round(probe.mean_interarrival_us, 2),
                "p99_response_us": round(probe.p99_us, 2),
                "meets_slo": probe.meets_slo,
            }
            for index, probe in enumerate(self.probes)
        ]

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "target_p99_us": self.target_p99_us,
            "max_rate_rps": (
                round(self.max_rate_rps, 2) if self.max_rate_rps is not None else None
            ),
            "converged": self.converged,
            "tolerance": self.tolerance,
            "probes": len(self.probes),
        }


class SloCapacitySearch:
    """Finds the max arrival rate whose array p99 stays within a target.

    The search brackets first — doubling the rate while the SLO holds,
    halving while it is violated — then bisects geometrically until the
    sustainable/violating bracket is within ``tolerance`` (a relative rate
    width: ``converged`` means the true capacity lies within
    ``max_rate_rps * (1 + tolerance)``).  The response-time-vs-load curve
    of a work-conserving array is monotone, so bracketing plus bisection
    converges for any starting rate; every probe reuses the same stream
    seeds, which keeps the search deterministic.

    When the runner has a checkpoint store, every completed probe is
    persisted as a *probe trail*; a resumed search replays the trail
    (skipping those probes' fleet runs entirely) and continues the
    bisection mid-bracket.  The rate trajectory is exact arithmetic on the
    starting rate, so replayed probes match rate-for-rate and the resumed
    :class:`CapacityResult` is bitwise-identical to an uninterrupted one.
    """

    def __init__(
        self,
        runner: FleetRunner,
        target_p99_us: float,
        tolerance: float = 0.05,
        max_probes: int = 12,
        kind: str = "all",
    ):
        if target_p99_us <= 0:
            raise ValueError("target_p99_us must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if max_probes < 2:
            raise ValueError("max_probes must be at least 2")
        self.runner = runner
        self.target_p99_us = target_p99_us
        self.tolerance = tolerance
        self.max_probes = max_probes
        self.kind = kind

    def _trail_params(self, source, policy: str, start_rate_rps: Optional[float]) -> dict:
        runner = self.runner
        return {
            "schema": FLEET_CHECKPOINT_SCHEMA,
            "fleet": runner.spec.to_dict(),
            "source": source.to_dict(),
            "policy": policy,
            "target_p99_us": self.target_p99_us,
            "tolerance": self.tolerance,
            "max_probes": self.max_probes,
            "kind": self.kind,
            "start_rate_rps": start_rate_rps,
            "rpt": rpt_fingerprint(runner.rpt) if runner.rpt is not None else None,
        }

    def find(
        self,
        source: Union[str, WorkloadSpec, TenantMix, dict],
        policy: str = "Baseline",
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        start_rate_rps: Optional[float] = None,
    ) -> CapacityResult:
        """Run the search for one policy and return its capacity."""
        if isinstance(source, str) or isinstance(source, dict):
            source = (
                TenantMix.from_dict(source)
                if isinstance(source, dict) and "tenants" in source
                else WorkloadSpec.coerce(source, num_requests=num_requests, seed=seed)
            )
        elif isinstance(source, WorkloadSpec):
            source = WorkloadSpec.coerce(source, num_requests=num_requests, seed=seed)
        canonical = self.runner._registry.canonical_name(policy)
        checkpoint = self.runner.checkpoint
        trail_params = None
        recorded: List[dict] = []
        if checkpoint is not None:
            trail_params = self._trail_params(source, canonical, start_rate_rps)
            stored = checkpoint.load(PROBE_TRAIL_KIND, trail_params)
            if stored is not None and stored.get("probes"):
                recorded = list(stored["probes"])
                logger.info(
                    "capacity search (policy %s): %d probe(s) served from checkpoint",
                    canonical,
                    len(recorded),
                )
        probes: List[CapacityProbe] = []
        trail: List[dict] = []
        best_fleet: Optional[FleetResult] = None
        replay_index = 0
        lo: Optional[float] = None  # highest rate meeting the SLO
        hi: Optional[float] = None  # lowest rate violating it

        rate = start_rate_rps or _current_rate_rps(source)
        for _ in range(self.max_probes):
            fleet = None
            if replay_index < len(recorded) and recorded[replay_index]["rate_rps"] == rate:
                p99 = float(recorded[replay_index]["p99_us"])
                replay_index += 1
            else:
                # A recorded probe that does not match the expected rate
                # means the trail came from different inputs; stop trusting
                # the remainder and measure live.
                replay_index = len(recorded)
                fleet = self.runner.run(_with_rate(source, rate), policies=policy).result
                p99 = fleet.p99(self.kind)
            meets = p99 <= self.target_p99_us
            probes.append(
                CapacityProbe(
                    rate_rps=rate, mean_interarrival_us=1e6 / rate, p99_us=p99, meets_slo=meets
                )
            )
            trail.append({"rate_rps": rate, "p99_us": p99})
            if fleet is not None and checkpoint is not None:
                checkpoint.save(PROBE_TRAIL_KIND, trail_params, {"probes": trail})
            if meets:
                if lo is None or rate > lo:
                    lo, best_fleet = rate, fleet
            elif hi is None or rate < hi:
                hi = rate
            if lo is not None and hi is not None:
                if hi / lo <= 1.0 + self.tolerance:
                    break
                rate = math.sqrt(lo * hi)
            elif lo is None:
                rate = rate / 2.0
            else:
                rate = rate * 2.0

        converged = lo is not None and hi is not None and hi / lo <= 1.0 + self.tolerance
        if lo is not None and best_fleet is None:
            # The winning probe was replayed from the trail; materialize its
            # fleet result.  Its shards are checkpointed, so this folds the
            # stored metrics back instead of re-simulating.
            best_fleet = self.runner.run(_with_rate(source, lo), policies=policy).result
        return CapacityResult(
            policy=canonical,
            target_p99_us=self.target_p99_us,
            tolerance=self.tolerance,
            converged=converged,
            max_rate_rps=lo,
            min_violating_rate_rps=hi,
            probes=probes,
            fleet=best_fleet,
        )
