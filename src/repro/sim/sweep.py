"""The dispatch core shared by sweeps and fleets, and the sweep front-end.

Sweep cells, fleet devices and experiment suites all fan out the same way,
through the pieces below; each runner keeps only its own payload shape and
result collection:

* :class:`WorkerPool` / :func:`pool_map` — the one process-pool fan-out
  (start-method choice, serial fallback, in-order ``on_result`` delivery);
* :func:`repro.ssd.retry_grid.prefill_shared_grid` — the parent builds the
  retry-grid slabs of every condition once, before the pool forks, so the
  workers inherit them (a spawned worker builds its slabs on first read);
* :func:`repro.ssd.controller.aged_simulator` — the one builder of an aged
  device: policy, precondition (P/E, retention, fill) and optional faults.

:class:`SweepRunner` is the (workload x condition x policy) front-end used
by the Figure 14/15 grids.  Every (workload, condition) cell is an
independent simulation, executed by the same pure worker function seeded
only by its own payload, so ``processes=N`` produces *bitwise-identical*
rows to a serial run.  Configs and workload specs travel as plain dicts
(the JSON round-trip a run manifest uses); a custom RPT, being immutable
tabular data, is pickled as-is; results come back in (workload, condition)
submission order.  Cells are keyed by (workload label, P/E cycles,
retention months), so colliding labels or conditions are rejected up front.

Request streams depend only on (workload spec, seed, footprint), not on the
operating condition, so each process keeps a small per-stream cache and
every (condition, policy) cell replays the same :class:`HostRequest`
objects (the simulator does not mutate them).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union
from zlib import crc32

from repro.core.rpt import ReadTimingParameterTable
from repro.sim.registry import default_registry
from repro.sim.spec import Condition, WorkloadSpec
from repro.ssd.config import SsdConfig
from repro.ssd.controller import SimulationResult, aged_simulator
from repro.ssd.metrics import normalized_response_times
from repro.ssd.request import HostRequest
from repro.ssd.retry_grid import prefill_shared_grid
from repro.workloads.catalog import WORKLOAD_CATALOG

#: Default mean inter-arrival time of generated streams; matches the seed's
#: system-level experiments (keeps the Baseline SSD below saturation at the
#: worst condition, so the results measure mechanisms, not queueing collapse).
DEFAULT_MEAN_INTERARRIVAL_US = 700.0

# -- per-process state ---------------------------------------------------------
#: Generated HostRequest lists per stream key.  Streams are
#: condition-independent and the simulator no longer mutates host requests,
#: so one generation serves every (condition, policy) cell a process
#: executes — the requests themselves are shared, not copied.
_STREAM_CACHE: Dict[tuple, List[HostRequest]] = {}
_STREAM_CACHE_STATS = {"hits": 0, "misses": 0}

#: Lazily built default RPT, shared by every cell a process executes.
_DEFAULT_RPT: List[Optional[ReadTimingParameterTable]] = [None]


def _default_rpt() -> ReadTimingParameterTable:
    if _DEFAULT_RPT[0] is None:
        _DEFAULT_RPT[0] = ReadTimingParameterTable.default()
    return _DEFAULT_RPT[0]


class WorkerPool:
    """The one process-pool fan-out of sweeps, fleets and experiment suites.

    Prefers the ``fork`` start method so objects registered at runtime
    (policies, experiments) remain resolvable inside workers; on spawn-only
    platforms workers re-import the registering modules, so only
    import-time registrations resolve.  :meth:`pool_map` runs serially when
    a pool would not help (one payload) or is impossible (already inside a
    daemonic pool worker, which may not spawn children), so results are
    bitwise-identical to a serial run either way.  The pool is created
    lazily and kept alive across calls — a fleet streams every shard
    through the same workers.  Use as a context manager; on a clean exit
    the pool is closed and joined, on an exception it is terminated.
    """

    def __init__(self, processes: int):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.processes = processes
        self._pool = None

    def pool_map(self, func, payloads: Sequence, on_result=None) -> List:
        """``[func(p) for p in payloads]``, over the pool when it helps.

        :param on_result: optional callback invoked in the parent, in payload
            order, as each result arrives — results completed before a later
            payload fails have already been delivered, which is what lets the
            suite runner persist partial progress.
        """
        if min(self.processes, len(payloads)) <= 1 or multiprocessing.current_process().daemon:
            results = map(func, payloads)
        else:
            if self._pool is None:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context("fork" if "fork" in methods else None)
                self._pool = context.Pool(self.processes)
            if on_result is None:
                return self._pool.map(func, payloads)
            results = self._pool.imap(func, payloads)
        collected = []
        for result in results:
            if on_result is not None:
                on_result(result)
            collected.append(result)
        return collected

    def close(self, terminate: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)


def pool_map(func, payloads: Sequence, processes: int, on_result=None) -> List:
    """One-shot :meth:`WorkerPool.pool_map` over at most ``processes`` workers."""
    with WorkerPool(max(1, min(processes, len(payloads)))) as pool:
        return pool.pool_map(func, payloads, on_result=on_result)


def _cached_stream(spec: WorkloadSpec, config: SsdConfig) -> List[HostRequest]:
    key = spec.stream_key(config)
    requests = _STREAM_CACHE.get(key)
    if requests is None:
        _STREAM_CACHE_STATS["misses"] += 1
        requests = spec.build_requests(config)
        _STREAM_CACHE[key] = requests
    else:
        _STREAM_CACHE_STATS["hits"] += 1
    return requests


def _run_cell(payload: dict) -> Tuple[str, Tuple[int, float], Dict[str, SimulationResult]]:
    """Execute one (workload, condition) cell against every policy.

    Pure function of its payload — the serial and parallel paths both call
    it, which is what makes ``processes=N`` bitwise-identical to serial.
    """
    config = SsdConfig.from_dict(payload["config"])
    spec = WorkloadSpec.from_dict(payload["workload"])
    condition = Condition.from_dict(payload["condition"])
    rpt = payload.get("rpt") or _default_rpt()
    stream = _cached_stream(spec, config)
    results: Dict[str, SimulationResult] = {}
    for name in payload["policies"]:
        # The device is a temporary: it is garbage before the next policy's
        # device is built and preconditioned (peak memory = one device).
        result = aged_simulator(
            name,
            config,
            rpt,
            pe_cycles=condition.pe_cycles,
            retention_months=condition.retention_months,
            fill_fraction=condition.fill_fraction,
        ).run(stream)
        results[result.policy_name] = result
    return spec.label, condition.as_tuple(), results


def _workload_class(spec: WorkloadSpec) -> str:
    if spec.name is not None:
        read_dominant = WORKLOAD_CATALOG[spec.name].read_dominant
    else:
        read_dominant = spec.shape.read_ratio >= 0.75
    return "read-dominant" if read_dominant else "write-dominant"


def rows_from_cells(
    workloads: Sequence[WorkloadSpec],
    conditions: Sequence[Condition],
    cells: Dict[tuple, Dict[str, SimulationResult]],
    baseline: str = "Baseline",
) -> List[dict]:
    """Tidy normalized-response-time rows (the Figure 14/15 long format)."""
    rows = []
    for spec in workloads:
        for condition in conditions:
            cell = cells[(spec.label,) + condition.as_tuple()]
            normalized = normalized_response_times(
                {name: result.metrics for name, result in cell.items()}, baseline=baseline
            )
            for policy, value in normalized.items():
                metrics = cell[policy].metrics
                combined = metrics.latency("all")
                rows.append(
                    {
                        "workload": spec.label,
                        "class": _workload_class(spec),
                        "pe_cycles": condition.pe_cycles,
                        "retention_months": condition.retention_months,
                        "policy": policy,
                        "normalized_response_time": round(value, 4),
                        "mean_response_us": round(metrics.mean_response_time_us(), 2),
                        "p99_response_us": round(combined.p99(), 2),
                        "p999_response_us": round(combined.p999(), 2),
                        "write_amplification": round(metrics.write_amplification(), 4),
                        "mapping_cache_hit_rate": round(metrics.mapping_cache_hit_rate(), 4),
                        "gc_invocations": metrics.gc_invocations,
                        "translation_reads": metrics.translation_reads,
                        "translation_writes": metrics.translation_writes,
                    }
                )
    return rows


@dataclass
class SweepResult:
    """Tidy result of one sweep: long-format rows plus the raw cells."""

    workloads: List[WorkloadSpec]
    conditions: List[Condition]
    policies: List[str]
    baseline: str
    cells: Dict[tuple, Dict[str, SimulationResult]]
    rows: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.rows:
            self.rows = rows_from_cells(
                self.workloads, self.conditions, self.cells, baseline=self.baseline
            )

    # -- access ---------------------------------------------------------------
    def cell(self, workload: str, pe_cycles: int, retention_months: float):
        return self.cells[(workload, pe_cycles, float(retention_months))]

    def filter_rows(self, **criteria) -> List[dict]:
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def to_grid(self) -> dict:
        """Legacy nested layout: ``grid[workload][(pec, months)][policy]``."""
        grid: dict = {}
        for (workload, pec, months), cell in self.cells.items():
            grid.setdefault(workload, {})[(pec, months)] = cell
        return grid

    # -- rendering ------------------------------------------------------------
    def table(self, max_rows: Optional[int] = None) -> str:
        """Fixed-width text table of the rows."""
        if not self.rows:
            return "(empty sweep)"
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        columns = list(rows[0].keys())
        widths = {
            column: max(len(str(column)), *(len(str(row[column])) for row in rows))
            for column in columns
        }
        lines = ["  ".join(str(column).ljust(widths[column]) for column in columns)]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append("  ".join(str(row[column]).ljust(widths[column]) for column in columns))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.table(max_rows=30)


class SweepRunner:
    """Executes a (workload x condition x policy) grid, optionally in parallel.

    :param processes: worker-process count; 1 (default) runs in-process.
    :param per_cell_seeds: derive an independent stream seed per (workload,
        condition) cell instead of sharing the workload's seed across
        conditions.  Defaults to False, which matches the seed harnesses'
        semantics and lets the stream cache serve every condition cell.
    :param use_shared_memory: ignored; workers inherit the parent's slabs
        through ``fork``.  Kept so existing callers keep working.
    """

    def __init__(
        self,
        config: Optional[SsdConfig] = None,
        processes: int = 1,
        rpt: Optional[ReadTimingParameterTable] = None,
        mean_interarrival_us: float = DEFAULT_MEAN_INTERARRIVAL_US,
        footprint_fraction: float = 0.8,
        per_cell_seeds: bool = False,
        use_shared_memory: bool = True,
    ):
        if processes < 1:
            raise ValueError("processes must be at least 1")
        self.config = config or SsdConfig.scaled()
        self.processes = processes
        self.rpt = rpt
        self.mean_interarrival_us = mean_interarrival_us
        self.footprint_fraction = footprint_fraction
        self.per_cell_seeds = per_cell_seeds
        self._registry = default_registry()

    # -- grid construction ----------------------------------------------------
    def _coerce_workloads(self, workloads, num_requests, seed):
        specs = []
        for workload in workloads:
            if isinstance(workload, WorkloadSpec):
                # An explicit spec keeps its own arrival rate and footprint;
                # only the run() arguments the caller actually passed win.
                specs.append(WorkloadSpec.coerce(workload, num_requests=num_requests, seed=seed))
            else:
                specs.append(
                    WorkloadSpec.coerce(
                        workload,
                        num_requests=num_requests,
                        seed=seed,
                        mean_interarrival_us=self.mean_interarrival_us,
                        footprint_fraction=self.footprint_fraction,
                    )
                )
        return specs

    def _cell_seed(self, spec: WorkloadSpec, condition: Condition) -> int:
        if not self.per_cell_seeds:
            return spec.seed
        digest = crc32(
            f"{spec.label}|{condition.pe_cycles}|{condition.retention_months:g}".encode()
        )
        return (spec.seed * 1_000_003 + digest) % (2**31)

    def _payloads(self, specs, conditions, policies):
        config_dict = self.config.to_dict()
        payloads = []
        for spec in specs:
            for condition in conditions:
                cell_spec = spec
                cell_seed = self._cell_seed(spec, condition)
                if cell_seed != spec.seed:
                    cell_spec = WorkloadSpec.coerce(spec, seed=cell_seed)
                payloads.append(
                    {
                        "config": config_dict,
                        "workload": cell_spec.to_dict(),
                        "condition": condition.to_dict(),
                        "policies": tuple(policies),
                        "rpt": self.rpt,
                    }
                )
        return payloads

    # -- execution ------------------------------------------------------------
    def run(
        self,
        policies: Optional[Iterable[str]] = None,
        workloads: Iterable[Union[str, WorkloadSpec]] = (),
        conditions: Iterable[Union[Condition, tuple]] = ((0, 0.0),),
        num_requests: Optional[int] = None,
        seed: Optional[int] = None,
        baseline: str = "Baseline",
    ) -> SweepResult:
        """Run the grid and return a :class:`SweepResult`.

        :param policies: registry names (defaults to every registered policy).
        :param workloads: Table 2 names or :class:`WorkloadSpec` objects.
        :param conditions: ``(pe_cycles, retention_months)`` pairs or
            :class:`Condition` objects.
        """
        policy_names = tuple(
            self._registry.canonical_name(name)
            for name in (policies if policies is not None else self._registry.names())
        )
        specs = self._coerce_workloads(workloads, num_requests, seed)
        if not specs:
            raise ValueError("no workloads given")
        labels = [spec.label for spec in specs]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"workload labels collide: {labels}; cells are keyed by "
                "label, so each workload needs a distinct one"
            )
        condition_objs = [Condition.coerce(condition) for condition in conditions]
        if not condition_objs:
            raise ValueError("no conditions given")
        keys = [condition.as_tuple() for condition in condition_objs]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"conditions collide: {keys}; cells are keyed by (pe_cycles, "
                "retention_months) alone, so each condition needs a distinct "
                "pair (fill_fraction is not part of the key)"
            )
        if baseline not in policy_names:
            # Normalizing needs a reference that actually ran; fall back to
            # the first policy (its rows then read exactly 1.0).
            baseline = policy_names[0]
        # Prefilled before the pool forks, so forked workers inherit the slabs.
        prefill_shared_grid(self.config, self.rpt or _default_rpt(), condition_objs)
        payloads = self._payloads(specs, condition_objs, policy_names)
        outcomes = pool_map(_run_cell, payloads, self.processes)

        cells = {(label, pec, months): results for label, (pec, months), results in outcomes}
        return SweepResult(
            workloads=specs,
            conditions=condition_objs,
            policies=list(policy_names),
            baseline=baseline,
            cells=cells,
        )
