"""The SSD simulator: host interface, controller and device model.

:class:`SsdSimulator` glues the pieces together the way MQSim does for the
paper's evaluation:

* host requests arrive at their trace timestamps, are split into page-sized
  flash transactions, and are scheduled per die with read priority and
  program/erase suspension (:mod:`repro.ssd.scheduler`);
* read transactions ask the flash backend how many retry steps they need
  (each simulated block behaves like a characterized block) and the active
  read-retry *policy* (Baseline / PR2 / AR2 / PnAR2 / NoRR / PSO) translates
  that into latency and die-occupancy numbers;
* writes are absorbed by the write buffer and flushed to flash through the
  page-mapping FTL, with greedy garbage collection keeping free blocks
  available; with ``mapping="page"`` the DFTL mapper
  (:mod:`repro.ssd.dftl`) replaces the flat table — CMT misses and dirty
  evictions inject translation-page reads/programs on the same dies as
  host traffic, and GC runs with trigger/stop watermarks and batched
  translation updates;
* response times and utilization are collected in
  :class:`repro.ssd.metrics.SimulationMetrics`.

Request injection is *streaming*: :meth:`SsdSimulator.run` accepts any
iterable of :class:`~repro.ssd.request.HostRequest` objects — including
generators — and admits them through a bounded-lookahead pump that keeps
only a small window of future arrivals in the event queue.  Combined with
the fixed-memory metrics recorder, the simulator's peak memory is
independent of the trace length, so million-request traces stream straight
from a workload generator or a CSV reader without ever being materialized.

The simulator does not mutate caller-owned requests: read completion state
(pending page count, last-page-ready time) lives in simulator-local
bookkeeping, so the same request objects can be replayed against several
policies without a defensive copy.

A deliberate simplification relative to a cycle-accurate model: channel-bus
contention between dies of the same channel is not modelled as a separate
resource — per-step data transfer time is already part of each transaction's
die-occupancy where the paper's mechanisms place it on the critical path,
and with four dies per channel and ``tDMA`` = 16 us versus ``tR`` ~ 90 us
plus retries, the bus is never the bottleneck in these workloads.  DESIGN.md
documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.policies import ReadRetryPolicy, get_policy
from repro.core.rpt import ReadTimingParameterTable
from repro.errors.condition import OperatingCondition
from repro.ssd.config import SsdConfig
from repro.ssd.dftl import DftlMapper, TranslationOp
from repro.ssd.engine import EventQueue
from repro.ssd.faults import FaultInjector, FaultPlan
from repro.ssd.flash_backend import FlashBackend
from repro.ssd.ftl import FlashTranslationLayer, PhysicalPage
from repro.ssd.gc import GarbageCollector
from repro.ssd.metrics import SimulationMetrics
from repro.ssd.request import (
    FlashTransaction,
    HostRequest,
    RequestKind,
    TransactionKind,
)
from repro.ssd.scheduler import DieScheduler
from repro.ssd.write_buffer import WriteBuffer

#: How many future arrivals the admission pump keeps scheduled ahead of the
#: simulation clock.  Large enough that the dies never starve waiting for
#: the pump, small enough that the event queue stays O(window), not O(trace).
DEFAULT_LOOKAHEAD_REQUESTS = 64

#: Default logical-space fill fraction used when preconditioning a device.
DEFAULT_FILL_FRACTION = 0.85


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    policy_name: str
    config: SsdConfig
    metrics: SimulationMetrics
    preconditioned_pe_cycles: int
    preconditioned_retention_months: float
    #: Which device of a fleet produced this result (0 for standalone runs).
    device_id: int = 0

    @property
    def mean_response_time_us(self) -> float:
        return self.metrics.mean_response_time_us()

    @property
    def mean_read_response_time_us(self) -> float:
        return self.metrics.mean_response_time_us("read")

    @property
    def p99_response_time_us(self) -> float:
        return self.metrics.p99_response_time_us()

    @property
    def p999_response_time_us(self) -> float:
        return self.metrics.p999_response_time_us()

    def summary(self) -> Dict[str, float]:
        summary = {"policy": self.policy_name}
        summary.update(self.metrics.summary())
        return summary


class _ReadProgress:
    """Simulator-local completion state of one in-flight host read."""

    __slots__ = ("pending_pages", "last_page_ready_us")

    def __init__(self, pending_pages: int):
        self.pending_pages = pending_pages
        self.last_page_ready_us: Optional[float] = None


class SsdSimulator:
    """An event-driven SSD with a pluggable read-retry policy."""

    def __init__(self, config: SsdConfig = None,
                 policy: Union[str, ReadRetryPolicy] = "Baseline",
                 rpt: ReadTimingParameterTable = None,
                 record_samples: bool = False,
                 device_id: int = 0,
                 track_tenants: bool = False):
        self.config = config or SsdConfig.scaled()
        self.device_id = device_id
        #: When True, every completion is also recorded into a per-tenant
        #: histogram keyed by the request's ``queue_id``.  Off by default so
        #: plain runs pay nothing and keep ``metrics.tenant_latency`` empty;
        #: tenant-mix and closed-loop drivers switch it on.
        self.track_tenants = track_tenants
        if isinstance(policy, str):
            self.policy = get_policy(policy, timing=self.config.timing, rpt=rpt)
        else:
            self.policy = policy
        # Property-call hoisting for the per-page read path (the policy is
        # fixed for the simulator's lifetime).
        self._uses_reduced_timing = self.policy.uses_reduced_timing
        shared_rpt = rpt
        if shared_rpt is None and self.policy.uses_reduced_timing:
            shared_rpt = self.policy.rpt
        self.events = EventQueue()
        # mapping="block" keeps the original flat page table + greedy GC;
        # mapping="page" swaps in the DFTL mapper (CMT/GTD/watermark GC).
        if self.config.mapping == "page":
            self.dftl: Optional[DftlMapper] = DftlMapper(self.config)
            self.ftl = None
            self.gc = None
        else:
            self.dftl = None
            self.ftl = FlashTranslationLayer(self.config)
            self.gc = GarbageCollector(self.ftl)
        self.write_buffer = WriteBuffer(self.config.write_buffer_pages)
        self.backend = FlashBackend(self.config, rpt=shared_rpt)
        self.metrics = SimulationMetrics(record_samples=record_samples)
        self.schedulers: Dict[tuple, DieScheduler] = {}
        for channel in range(self.config.channels):
            for die in range(self.config.dies_per_channel):
                key = (channel, die)
                self.schedulers[key] = DieScheduler(
                    key, self.config, self.events,
                    service_time_fn=self._service_time,
                    on_complete=self._on_transaction_complete)
        self._cold_retention_months = 0.0
        self._preconditioned_pe_cycles = 0
        self._outstanding_requests = 0
        #: Installed by :meth:`install_faults`; ``None`` keeps the read path
        #: and the admission pump byte-for-byte on their fault-free code.
        self._fault_injector: Optional[FaultInjector] = None
        #: True while an in-stream BARRIER is draining the device: the
        #: admission pump stalls until every admitted request completes.
        self._barrier_active = False
        #: Arrival time of the earliest barrier seen this run.  Requests
        #: stamped after it may legitimately be admitted "late" (the drain
        #: stalled the pump past their arrival time); they are admitted at
        #: the current clock, so the barrier's cost lands in their latency.
        self._barrier_stall_begin_us = float("inf")
        # Streaming admission state (valid only during run()).
        self._source: Optional[Iterator[HostRequest]] = None
        self._source_exhausted = True
        self._scheduled_arrivals = 0
        self._lookahead = DEFAULT_LOOKAHEAD_REQUESTS
        # Completion bookkeeping for in-flight reads, keyed by request_id —
        # the simulator never writes to caller-owned HostRequest objects.
        # Finished trackers go back to a free list, so a streaming run
        # allocates O(max in-flight reads) trackers, not O(trace).
        self._read_progress: Dict[int, _ReadProgress] = {}
        self._progress_pool: list = []
        # Reads only ever see a handful of distinct (P/E, retention)
        # conditions; interning the OperatingCondition objects keeps the
        # per-read path free of dataclass construction and validation.
        self._condition_cache: Dict[tuple, OperatingCondition] = {}
        self._breakdown_cache: Dict[tuple, object] = {}
        #: Optional hook invoked as ``hook(request, now_us)`` whenever a host
        #: request completes (reads: last page ready; writes: buffer
        #: admission).  Closed-loop load generators use it to issue each
        #: client's next request the moment an outstanding one finishes.
        self.on_request_complete: Optional[
            Callable[[HostRequest, float], None]] = None

    @property
    def distinct_read_conditions(self) -> int:
        """How many distinct (P/E, retention) conditions reads have seen.

        Under ``mapping="block"`` this is at most two (preconditioned cold
        data and fresh rewrites); live DFTL garbage collection erodes that
        uniformity, and this counter is how the wear_dynamics experiment
        shows the condition diversity GC creates.
        """
        return len(self._condition_cache)

    # -- preconditioning ------------------------------------------------------------
    def precondition(self, pe_cycles: int = 0, retention_months: float = 0.0,
                     fill_fraction: float = DEFAULT_FILL_FRACTION) -> None:
        """Install the experiment's operating condition (Section 7.1).

        Every block receives the requested P/E-cycle count and the logical
        space is pre-filled with data whose retention age is
        ``retention_months``.  Pages the workload overwrites during the run
        become fresh again, so cold pages (never updated) retain the long
        retention age — exactly the behaviour the paper's cold-ratio
        discussion relies on.
        """
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in (0, 1]")
        pages_to_fill = int(self.config.logical_pages * fill_fraction)
        if self.dftl is not None:
            self.dftl.precondition_fill(pages_to_fill,
                                        retention_months=retention_months,
                                        pe_cycles=pe_cycles)
        else:
            self.ftl.precondition_fill(pages_to_fill,
                                       retention_months=retention_months,
                                       pe_cycles=pe_cycles)
        self._cold_retention_months = retention_months
        self._preconditioned_pe_cycles = pe_cycles
        # Most reads of the run see the cold preconditioned data; vectorize
        # its retry-step slab up front so the read hot path serves from the
        # grid immediately.  The fresh-write condition and GC-created P/E
        # levels fill lazily once their reads actually appear.
        self.backend.prefill_conditions([(pe_cycles, retention_months)])

    # -- fault injection ------------------------------------------------------------
    def install_faults(self, plan) -> None:
        """Arm a :class:`~repro.ssd.faults.FaultPlan` for the next run.

        An empty plan installs nothing, keeping the simulator on the exact
        fault-free code path.  Call after :meth:`precondition` and before
        :meth:`run`.
        """
        plan = FaultPlan.coerce(plan)
        if not plan:
            return
        if self.dftl is None and any(spec.kind == "grown_bad_blocks"
                                     for spec in plan.faults):
            raise ValueError(
                "grown_bad_blocks faults require the page-mapped FTL "
                '(SsdConfig(mapping="page"))')
        self._fault_injector = FaultInjector(plan, self)

    def retire_bad_block(self, plane_index: int, block_id: int) -> None:
        """Retire one grown-bad block, scheduling its remap flash traffic."""
        operation = self.dftl.retire_block(plane_index, block_id,
                                          self.events.now_us)
        self._enqueue_block_rewrite(operation, self.dftl.planes)
        self.metrics.fault_remapped_pages += operation.relocated_pages
        self.metrics.grown_bad_blocks += 1

    # -- running ----------------------------------------------------------------------
    def run(self, requests: Iterable[HostRequest],
            lookahead: int = DEFAULT_LOOKAHEAD_REQUESTS) -> SimulationResult:
        """Simulate a stream of host requests and return the result.

        ``requests`` may be any iterable, including a generator: arrivals
        are injected through a bounded-lookahead admission pump that keeps
        at most ``lookahead`` future arrivals scheduled, so the event
        queue's size — and therefore the run's memory — is independent of
        the stream length.  Streams must be ordered by arrival time up to
        the lookahead window (workload generators and trace readers emit
        monotone arrivals); pre-materialized sequences are sorted up front,
        preserving the historical contract for explicit request lists.
        """
        if lookahead < 1:
            raise ValueError("lookahead must be at least 1")
        if isinstance(requests, Sequence):
            source: Iterator[HostRequest] = iter(
                sorted(requests, key=lambda request: request.arrival_us))
        else:
            source = iter(requests)
        self._source = source
        self._source_exhausted = False
        self._scheduled_arrivals = 0
        self._lookahead = lookahead
        try:
            self._pump()
            self.events.run()
        finally:
            # Release generator-backed sources deterministically even when
            # the run aborts mid-stream (e.g. an out-of-order trace): a
            # suspended `iter_msrc_csv` generator holds an open file handle
            # until close() runs its with-block exit.
            closer = getattr(self._source, "close", None)
            self._source = None
            self._source_exhausted = True
            if closer is not None:
                closer()
        return self._finalize_run()

    def run_closed_loop(self, source) -> SimulationResult:
        """Simulate a closed-loop load generator instead of an open stream.

        ``source`` is a :class:`~repro.workloads.closed_loop.ClosedLoopSource`
        (or anything with its ``start()``/``on_complete()`` protocol): every
        client keeps a fixed number of requests outstanding, and each
        completion triggers the owning client's next request after its think
        time.  Arrival times therefore *react to device latency* — the
        classical closed-loop model — rather than following a fixed trace.
        """
        initial = source.start()
        if self.on_request_complete is not None:
            raise RuntimeError(
                "on_request_complete is already in use; run_closed_loop "
                "installs its own completion hook")
        # Requests carry their client index in queue_id; per-client latency
        # attribution is part of the closed-loop model.
        self.track_tenants = True
        self.on_request_complete = (
            lambda request, now: self._inject_followups(source, request, now))
        try:
            for request in initial:
                self.inject(request)
            self.events.run()
        finally:
            self.on_request_complete = None
        return self._finalize_run()

    def inject(self, request: HostRequest) -> None:
        """Schedule one host request's arrival directly (closed-loop path).

        Bypasses the streaming admission pump: closed-loop sources create
        arrivals in reaction to completions, so there is no ordered stream
        to pump from.  The arrival must not be in the simulated past.
        """
        if request.arrival_us < self.events.now_us:
            raise ValueError(
                f"request {request.request_id} arrives at "
                f"{request.arrival_us} us, before the current simulation "
                f"clock ({self.events.now_us} us)")
        self._outstanding_requests += 1
        self.events.schedule_call(request.arrival_us,
                                  self._on_request_arrival, request)

    def _inject_followups(self, source, request: HostRequest,
                          now_us: float) -> None:
        for followup in source.on_complete(request, now_us):
            self.inject(followup)

    def _finalize_run(self) -> SimulationResult:
        self.metrics.simulated_time_us = self.events.now_us
        for key, scheduler in self.schedulers.items():
            self.metrics.record_die_busy(key, scheduler.total_busy_us)
        self.metrics.grid_hits = self.backend.grid_hits
        if self.dftl is not None:
            # Translation reads/writes are counted at enqueue time; the
            # mapper-internal cache and GC counters are snapshotted here,
            # mirroring the backend's grid counters.
            self.metrics.mapping_cache_hits = self.dftl.cmt_hits
            self.metrics.mapping_cache_misses = self.dftl.cmt_misses
            self.metrics.gc_invocations = self.dftl.gc_invocations
        return SimulationResult(
            policy_name=self.policy.name,
            config=self.config,
            metrics=self.metrics,
            preconditioned_pe_cycles=self._preconditioned_pe_cycles,
            preconditioned_retention_months=self._cold_retention_months,
            device_id=self.device_id)

    def _pump(self) -> None:
        """Admit arrivals from the source until the lookahead window is full.

        The window deficit is pulled and validated in stream order, then
        handed to the event core as one bulk push: arrivals get their
        sequence numbers in admission order (ties break exactly as with
        per-request pushes), and a full-window refill pays one heapify
        instead of 64 sift-ups.  Nothing executes between the pulls — the
        pump runs to completion before the event loop resumes — so deferring
        the heap insertion to the end of the pull loop is unobservable.
        """
        if self._barrier_active or self._source_exhausted:
            return
        deficit = self._lookahead - self._scheduled_arrivals
        if deficit <= 0:
            return
        now_us = self.events.now_us
        admitted = []
        try:
            while deficit > 0:
                try:
                    # Explicit StopIteration handling: a stray None element
                    # in a buggy stream must error out below, not end the
                    # run early.
                    request = next(self._source)
                except StopIteration:
                    self._source_exhausted = True
                    break
                arrival_us = request.arrival_us
                if arrival_us < now_us:
                    if arrival_us >= self._barrier_stall_begin_us:
                        # The request is late only because a barrier drained
                        # the device past its stamped arrival; admit it now —
                        # the stall becomes part of its measured response
                        # time.
                        arrival_us = now_us
                    else:
                        raise ValueError(
                            f"request {request.request_id} arrives at "
                            f"{request.arrival_us} us, before the admission "
                            f"pump's clock ({self.events.now_us} us); "
                            "streamed requests must be ordered by arrival "
                            "time up to the lookahead window (currently "
                            f"{self._lookahead} requests) — sort the stream "
                            "or raise run(..., lookahead=N)")
                self._outstanding_requests += 1
                self._scheduled_arrivals += 1
                admitted.append((arrival_us, request))
                deficit -= 1
        finally:
            # Flush even when a mid-window pull raises: every admission
            # counted above must own an event.
            if len(admitted) == 1:
                self.events.schedule_call(admitted[0][0],
                                          self._on_request_arrival,
                                          admitted[0][1])
            elif admitted:
                self.events.schedule_batch(self._on_request_arrival, admitted)

    # -- host-request handling ------------------------------------------------------------
    def _on_request_arrival(self, request: HostRequest) -> None:
        self._scheduled_arrivals -= 1
        self._pump()
        if self._fault_injector is not None:
            self._fault_injector.poll(self.events.now_us)
        if request.kind is RequestKind.READ:
            self._start_read_request(request)
        elif request.kind is RequestKind.WRITE:
            self._admit_or_defer_write(request)
        else:
            self._handle_control_request(request)

    def _handle_control_request(self, request: HostRequest) -> None:
        """Apply an in-stream control event (DISCARD / BARRIER / MARK).

        Control events move no data and are never recorded into the latency
        histograms; they complete instantly at arrival (a barrier's cost
        shows up as the admission stall it causes, not as its own latency).
        """
        now = self.events.now_us
        if request.kind is RequestKind.DISCARD:
            self.metrics.control_discards += 1
            for lpn in request.lpns:
                if self._discard_lpn(lpn % self.config.logical_pages):
                    self.metrics.trimmed_pages += 1
            self._run_gc_if_needed()
        elif request.kind is RequestKind.BARRIER:
            self.metrics.control_barriers += 1
            self._barrier_active = True
            self._barrier_stall_begin_us = min(self._barrier_stall_begin_us,
                                               now)
        else:
            self.metrics.control_marks += 1
        self._outstanding_requests -= 1
        if self.on_request_complete is not None:
            self.on_request_complete(request, now)
        self._maybe_resume_after_barrier()

    def _discard_lpn(self, lpn: int) -> bool:
        """TRIM one logical page; True when it was actually mapped."""
        if self.dftl is not None:
            mapped = self.dftl.is_mapped(lpn)
            ops = self.dftl.trim(lpn, self.events.now_us)
            self._issue_translation_ops(ops)
            return mapped
        return self.ftl.trim(lpn)

    def _maybe_resume_after_barrier(self) -> None:
        if self._barrier_active and self._outstanding_requests == 0:
            self._barrier_active = False
            self._pump()

    def _start_read_request(self, request: HostRequest) -> None:
        if self._progress_pool:
            progress = self._progress_pool.pop()
            progress.pending_pages = request.page_count
            progress.last_page_ready_us = None
        else:
            progress = _ReadProgress(request.page_count)
        self._read_progress[request.request_id] = progress
        now_us = self.events.now_us
        schedulers = self.schedulers
        physical_for_read = self._physical_for_read
        read_kind = TransactionKind.READ
        for lpn in range(request.start_lpn,
                         request.start_lpn + request.page_count):
            physical = physical_for_read(lpn)
            transaction = FlashTransaction(
                read_kind, lpn, physical.channel, physical.die,
                physical.plane, physical.block, physical.page, now_us,
                request, None, physical)
            schedulers[(physical.channel, physical.die)].enqueue(transaction)

    def _physical_for_read(self, lpn: int) -> PhysicalPage:
        """Resolve a read target, lazily mapping never-written cold data."""
        lpn = lpn % self.config.logical_pages
        if self.dftl is not None:
            physical, ops = self.dftl.lookup(lpn, self.events.now_us)
            self._issue_translation_ops(ops)
            if physical is None:
                physical, _, more = self.dftl.write(
                    lpn, retention_months=self._cold_retention_months,
                    now_us=self.events.now_us)
                self._issue_translation_ops(more)
            return physical
        physical = self.ftl.lookup(lpn)
        if physical is None:
            # The workload reads data that was written before the trace
            # started; treat it as preconditioned cold data.
            physical, _ = self.ftl.write(
                lpn, retention_months=self._cold_retention_months)
            self.ftl.block_metadata(physical).pe_cycles = (
                self._preconditioned_pe_cycles)
        return physical

    def _admit_or_defer_write(self, request: HostRequest) -> None:
        if self.write_buffer.try_admit(request.page_count):
            self._complete_write_admission(request)
        else:
            self.write_buffer.enqueue_waiter(request)

    def _complete_write_admission(self, request: HostRequest) -> None:
        now = self.events.now_us
        self.metrics.record_write(
            now - request.arrival_us,
            tenant=request.queue_id if self.track_tenants else None)
        self._outstanding_requests -= 1
        logical_pages = self.config.logical_pages
        for lpn in range(request.start_lpn,
                         request.start_lpn + request.page_count):
            self._issue_program(lpn % logical_pages, request)
        self._run_gc_if_needed()
        if self.on_request_complete is not None:
            self.on_request_complete(request, now)
        self._maybe_resume_after_barrier()

    def _issue_program(self, lpn: int, request: Optional[HostRequest]) -> None:
        if self.dftl is not None:
            physical, _, ops = self.dftl.write(
                lpn, retention_months=0.0, now_us=self.events.now_us)
            self._issue_translation_ops(ops)
        else:
            physical, _ = self.ftl.write(lpn, retention_months=0.0)
        self.metrics.host_programs += 1
        transaction = FlashTransaction(
            kind=TransactionKind.PROGRAM, lpn=lpn,
            channel=physical.channel, die=physical.die, plane=physical.plane,
            block=physical.block, page=physical.page,
            issue_us=self.events.now_us, request=request, physical=physical)
        self.schedulers[physical.die_key()].enqueue(transaction)

    def _issue_translation_ops(self, ops: Sequence[TranslationOp]) -> None:
        """Schedule DFTL translation-page traffic as real flash transactions."""
        for op in ops:
            if op.kind == "read":
                kind = TransactionKind.TRANS_READ
                self.metrics.translation_reads += 1
            else:
                kind = TransactionKind.TRANS_PROGRAM
                self.metrics.translation_writes += 1
            physical = op.physical
            transaction = FlashTransaction(
                kind=kind, lpn=None, channel=physical.channel,
                die=physical.die, plane=physical.plane, block=physical.block,
                page=physical.page, issue_us=self.events.now_us, request=None,
                physical=physical)
            self.schedulers[physical.die_key()].enqueue(transaction)

    # -- flash service times -----------------------------------------------------------------
    def _service_time(self, transaction: FlashTransaction) -> float:
        kind = transaction.kind
        # Host and GC reads dominate every workload this simulator runs;
        # dispatch them before the rarer program/erase kinds.
        if kind is TransactionKind.READ or kind is TransactionKind.GC_READ:
            return self._read_service_time(transaction)
        timing = self.config.timing
        if transaction.kind in (TransactionKind.PROGRAM,
                                TransactionKind.GC_PROGRAM,
                                TransactionKind.TRANS_PROGRAM):
            return timing.t_dma_page_us + timing.t_prog_us
        if transaction.kind is TransactionKind.ERASE:
            return timing.t_bers_us
        if transaction.kind is TransactionKind.TRANS_READ:
            # Translation pages are hot, constantly rewritten metadata: they
            # read at default timing with no retry walk — one sensing pass
            # for the page type plus transfer and decode.
            physical = transaction.physical
            if physical is None:
                physical = PhysicalPage(transaction.channel, transaction.die,
                                        transaction.plane, transaction.block,
                                        transaction.page)
            page_type = self.dftl.page_type_of(physical)
            return (timing.read.sensing_latency_us(page_type)
                    + timing.t_dma_page_us + timing.t_ecc_us)
        return self._read_service_time(transaction)

    def _read_service_time(self, transaction: FlashTransaction) -> float:
        physical = transaction.physical
        if physical is None:
            # Synthetically constructed transactions (tests) may carry only
            # the scalar address fields.
            physical = PhysicalPage(transaction.channel, transaction.die,
                                    transaction.plane, transaction.block,
                                    transaction.page)
        if self.dftl is not None:
            pe_cycles = self.dftl.pe_cycles_of(physical)
            page_type = self.dftl.page_type_of(physical)
            retention = self.dftl.retention_months_of(physical,
                                                      self.events.now_us)
        else:
            metadata = self.ftl.block_metadata(physical)
            pe_cycles = metadata.pe_cycles
            page_type = self.ftl.page_type_of(physical)
            retention = metadata.page_retention_months[transaction.page]
        behaviour = self.backend.read_behaviour(physical, page_type,
                                                pe_cycles, retention)
        fault_extra = 0
        fault_factor = 1.0
        if self._fault_injector is not None:
            self._fault_injector.record_read(physical)
            self._fault_injector.poll(self.events.now_us)
            fault_extra, fault_factor = self._fault_injector.read_penalty(
                physical, self.events.now_us)
            if fault_extra:
                behaviour = behaviour.degraded(fault_extra)
        if self._uses_reduced_timing:
            steps = behaviour.retry_steps_reduced
        else:
            steps = behaviour.retry_steps
        # Controller-local breakdown memo: temperature and policy are fixed
        # per simulator, so (steps, page type, condition) keys the policy's
        # own memoized breakdown exactly.  A first read under any new
        # (P/E, retention) always misses here, so the condition-diversity
        # counter (``len(self._condition_cache)``) still sees every
        # distinct condition.
        breakdown_key = (steps, page_type, pe_cycles, retention)
        breakdown = self._breakdown_cache.get(breakdown_key)
        if breakdown is None:
            condition_key = (pe_cycles, retention)
            condition = self._condition_cache.get(condition_key)
            if condition is None:
                condition = OperatingCondition(
                    pe_cycles=pe_cycles, retention_months=retention,
                    temperature_c=self.config.temperature_c)
                self._condition_cache[condition_key] = condition
            breakdown = self.policy.breakdown_for(steps, page_type, condition)
            self._breakdown_cache[breakdown_key] = breakdown
        response_us = breakdown.response_us
        die_busy_us = breakdown.die_busy_us

        if behaviour.reduced_timing_fallback and self._uses_reduced_timing:
            # The reduced-timing retry operation exhausted the table; AR2
            # falls back to a full default-timing read-retry operation
            # (Section 6.2).  Charge the failed attempt plus the fallback.
            fallback = self.policy.latency_model.baseline(
                behaviour.retry_steps, page_type)
            response_us += fallback.response_us
            die_busy_us += fallback.die_busy_us
            self.metrics.reduced_timing_fallbacks += 1

        if fault_extra or fault_factor != 1.0:
            # A degraded die/plane stretches the whole operation — sensing,
            # transfer and decode alike — so the factor applies on top of
            # whatever extra retry steps the fault already added.
            response_us *= fault_factor
            die_busy_us *= fault_factor
            self.metrics.faulted_reads += 1

        transaction.retry_steps = breakdown.retry_steps
        transaction.response_us = response_us
        return die_busy_us

    # -- completions ----------------------------------------------------------------------------
    def _on_transaction_complete(self, transaction: FlashTransaction) -> None:
        if transaction.kind is TransactionKind.READ:
            self._complete_host_read_page(transaction)
        elif transaction.kind is TransactionKind.PROGRAM:
            self._complete_host_program_page(transaction)
        # GC reads/programs and erases need no per-completion bookkeeping
        # beyond the die-busy accounting the scheduler already did.

    def _complete_host_read_page(self, transaction: FlashTransaction) -> None:
        request = transaction.request
        response_us = transaction.response_us
        if response_us is None:
            # Only synthetically constructed transactions get here; the
            # read service path always stamps response_us.
            response_us = (transaction.completion_us
                           - transaction.service_start_us)
        page_ready_us = transaction.service_start_us + response_us
        self.metrics.record_retry_steps(transaction.retry_steps)
        if request is None:
            return
        progress = self._read_progress[request.request_id]
        if (progress.last_page_ready_us is None
                or page_ready_us > progress.last_page_ready_us):
            progress.last_page_ready_us = page_ready_us
        progress.pending_pages -= 1
        if progress.pending_pages == 0:
            del self._read_progress[request.request_id]
            self._progress_pool.append(progress)
            self.metrics.record_read(
                progress.last_page_ready_us - request.arrival_us,
                tenant=request.queue_id if self.track_tenants else None)
            self._outstanding_requests -= 1
            if self.on_request_complete is not None:
                self.on_request_complete(request, self.events.now_us)
            self._maybe_resume_after_barrier()

    def _complete_host_program_page(self, transaction: FlashTransaction) -> None:
        self.write_buffer.release(1)
        self._admit_waiting_writes()
        self._run_gc_if_needed()

    def _admit_waiting_writes(self) -> None:
        while True:
            waiter = self.write_buffer.pop_waiter()
            if waiter is None:
                return
            if self.write_buffer.try_admit(waiter.page_count):
                self._complete_write_admission(waiter)
            else:
                self.write_buffer.requeue_waiter_front(waiter)
                return

    # -- garbage collection ------------------------------------------------------------------------
    def _run_gc_if_needed(self) -> None:
        if self.dftl is not None:
            planes = self.dftl.planes
            operations = self.dftl.collect_if_needed(self.events.now_us)
        else:
            planes = self.ftl.planes
            operations = self.gc.collect_if_needed()
        for operation in operations:
            self._enqueue_block_rewrite(operation, planes)
            self.metrics.gc_programs += operation.relocated_pages
            self.metrics.gc_erases += 1

    def _enqueue_block_rewrite(self, operation, planes) -> None:
        """Schedule the flash work of collecting or retiring one block.

        Each valid page is read and re-programmed, then any translation-page
        updates the relocations caused are issued (DFTL only), and finally
        the victim block is erased.
        """
        for source, destination in zip(operation.relocations,
                                       operation.destinations):
            self._enqueue_gc_transaction(TransactionKind.GC_READ, source)
            self._enqueue_gc_transaction(TransactionKind.GC_PROGRAM,
                                         destination)
        self._issue_translation_ops(operation.translation_ops)
        plane = planes[operation.plane_index]
        erase_target = PhysicalPage(plane.channel, plane.die, plane.plane,
                                    operation.victim_block, 0)
        self._enqueue_gc_transaction(TransactionKind.ERASE, erase_target)

    def _enqueue_gc_transaction(self, kind: TransactionKind,
                                physical: PhysicalPage) -> None:
        transaction = FlashTransaction(
            kind=kind, lpn=None, channel=physical.channel, die=physical.die,
            plane=physical.plane, block=physical.block, page=physical.page,
            issue_us=self.events.now_us, request=None, physical=physical)
        self.schedulers[physical.die_key()].enqueue(transaction)


def aged_simulator(policy: Union[str, ReadRetryPolicy],
                   config: Optional[SsdConfig],
                   rpt: Optional[ReadTimingParameterTable],
                   *,
                   pe_cycles: int,
                   retention_months: float,
                   fill_fraction: float,
                   faults: Optional[FaultPlan] = None,
                   **options) -> SsdSimulator:
    """A simulator preconditioned to one aged state, ready to run.

    The single place every runner (sweep cells, fleet devices, sessions,
    experiments) builds its device, so an experiment cell means the same
    device wherever it runs: policy (registry name or instance) ->
    :class:`SsdSimulator` -> :meth:`~SsdSimulator.precondition` -> optional
    :meth:`~SsdSimulator.install_faults`.  The fill fraction is required so
    no caller can silently fall back to the default.

    :param options: further :class:`SsdSimulator` keyword arguments
        (``device_id``, ``track_tenants``, ...).
    """
    simulator = SsdSimulator(config=config, policy=policy, rpt=rpt, **options)
    simulator.precondition(pe_cycles=pe_cycles,
                           retention_months=retention_months,
                           fill_fraction=fill_fraction)
    if faults is not None:
        simulator.install_faults(faults)
    return simulator


RequestSource = Union[Iterable[HostRequest],
                      Callable[[], Iterable[HostRequest]]]


def _policy_streams(requests: RequestSource) -> Callable[[], Iterable[HostRequest]]:
    """Normalize a request source into a per-policy stream factory.

    Sequences are replayed directly — the simulator no longer mutates
    caller-owned requests, so the same objects can serve every policy.
    A bare iterator/generator can only be consumed once, so it is drained
    into a list first; pass a zero-argument factory instead to keep a
    multi-policy comparison fully streaming.
    """
    if callable(requests):
        return requests
    if isinstance(requests, Sequence):
        return lambda: requests
    materialized = list(requests)
    return lambda: materialized


def simulate_policies(policies: Iterable[Union[str, ReadRetryPolicy]],
                      requests: RequestSource,
                      config: SsdConfig = None,
                      pe_cycles: int = 0,
                      retention_months: float = 0.0,
                      rpt: ReadTimingParameterTable = None
                      ) -> Dict[str, SimulationResult]:
    """Run the same workload against several policies.

    :param requests: the request stream — a sequence of
        :class:`HostRequest` objects (replayed as-is for every policy; the
        simulator does not mutate them), a zero-argument factory returning a
        fresh iterable per policy (the fully streaming option for large
        traces), or a one-shot iterator (materialized once, then replayed).
    """
    results: Dict[str, SimulationResult] = {}
    stream_factory = _policy_streams(requests)
    shared_rpt = rpt or ReadTimingParameterTable.default()
    for policy in policies:
        result = aged_simulator(policy, config, shared_rpt,
                                pe_cycles=pe_cycles,
                                retention_months=retention_months,
                                fill_fraction=DEFAULT_FILL_FRACTION
                                ).run(stream_factory())
        results[result.policy_name] = result
    return results
