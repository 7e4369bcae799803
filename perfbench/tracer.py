"""Span tracer for the benchmark's traced run.

The tracer replaces layer entry points of the simulator with timing
wrappers at class level, so it needs no change inside the program.  It is
installed before any simulator is constructed, because the controller hands
bound callbacks (``_service_time``, ``_on_transaction_complete``) to its die
schedulers in ``__init__``.

Every wrapped call becomes a span ``(id, name, start, end, parent, round)``.
A layer's self time is its span duration minus the time of the spans nested
directly inside it.  Each round opens a root span; its self time is the
``unattributed`` remainder, so the self times of all layers plus
``unattributed`` add up to the traced wall time exactly.

Aggregates (calls and self time per span name) cover every span.  Raw spans
are kept in memory up to ``span_limit`` (a fleet round makes millions) and
written out as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

CALL = "call"
ITER = "iter"

#: (module, class, attribute, span name, how the result is traced).  Names
#: are the repo's module paths, so a span reads as the layer it times.
#: ``iter`` targets return lazy iterators: each ``next()`` is one span, so the
#: time spent producing requests is charged to the generator, not to the
#: simulator that pulls from it.
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.workloads.synthetic", "SyntheticWorkload", "iter_requests", "workloads.gen", ITER),
    ("repro.workloads.router", "StripeRouter", "shard", "workloads.router.shard", ITER),
    ("repro.workloads.router", "StripeRouter", "split", "workloads.router.split", CALL),
    ("repro.ssd.controller", "SsdSimulator", "precondition", "ssd.controller.precondition", CALL),
    ("repro.ssd.controller", "SsdSimulator", "run", "ssd.controller.run", CALL),
    ("repro.ssd.controller", "SsdSimulator", "_on_request_arrival", "ssd.controller.arrival", CALL),
    ("repro.ssd.controller", "SsdSimulator", "_service_time", "ssd.controller.service_time", CALL),
    (
        "repro.ssd.controller",
        "SsdSimulator",
        "_on_transaction_complete",
        "ssd.controller.complete",
        CALL,
    ),
    ("repro.ssd.ftl", "FlashTranslationLayer", "precondition_fill", "ssd.ftl.precondition_fill", CALL),
    ("repro.ssd.ftl", "FlashTranslationLayer", "planes_needing_gc", "ssd.ftl.planes_needing_gc", CALL),
    ("repro.ssd.engine", "EventQueue", "run", "ssd.engine.run", CALL),
    ("repro.ssd.scheduler", "DieScheduler", "enqueue", "ssd.scheduler.enqueue", CALL),
    ("repro.ssd.scheduler", "DieScheduler", "_complete", "ssd.scheduler.complete", CALL),
    ("repro.ssd.flash_backend", "FlashBackend", "read_behaviour", "ssd.flash_backend.read_behaviour", CALL),
    ("repro.ssd.flash_backend", "FlashBackend", "peek_read_batch", "ssd.flash_backend.peek_read_batch", CALL),
    ("repro.ssd.retry_grid", "RetryStepGrid", "behaviour", "ssd.retry_grid.behaviour", CALL),
    ("repro.ssd.retry_grid", "RetryStepGrid", "peek_batch", "ssd.retry_grid.peek_batch", CALL),
    ("repro.ssd.retry_grid", "RetryStepGrid", "prefill", "ssd.retry_grid.prefill", CALL),
    (
        "repro.errors.batch",
        "BatchErrorModel",
        "read_behaviour_lattice",
        "errors.batch.read_behaviour_lattice",
        CALL,
    ),
    ("repro.ssd.dftl", "DftlMapper", "precondition_fill", "ssd.dftl.precondition_fill", CALL),
    ("repro.ssd.dftl", "DftlMapper", "lookup", "ssd.dftl.lookup", CALL),
    ("repro.ssd.dftl", "DftlMapper", "write", "ssd.dftl.write", CALL),
    ("repro.ssd.dftl", "DftlMapper", "collect_if_needed", "ssd.dftl.collect_if_needed", CALL),
    ("repro.ssd.metrics", "SimulationMetrics", "record_read", "ssd.metrics.record_read", CALL),
    ("repro.ssd.metrics", "SimulationMetrics", "record_write", "ssd.metrics.record_write", CALL),
    ("repro.ssd.metrics", "SimulationMetrics", "merge", "ssd.metrics.merge", CALL),
    ("repro.sim.fleet", "FleetRunner", "run", "sim.fleet.run", CALL),
    ("repro.sim.fleet", "FleetResult", "absorb_device", "sim.fleet.absorb_device", CALL),
    ("repro.sim.sweep", "SweepRunner", "run", "sim.sweep.run", CALL),
)

#: The RPT build is a plain function the benchmark calls itself during
#: set-up; it is timed with :meth:`Tracer.span` instead of a wrapper.
RPT_SPAN = "characterization.rpt_builder.build_rpt"

#: Root span of each round; its self time is reported as ``unattributed``.
ROOT_SPAN = "unattributed"

#: Every span name, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(target[3] for target in TARGETS) + (RPT_SPAN, ROOT_SPAN)


class _TracedIterator:
    """Iterator proxy that records one span per ``next()``."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.stack:
            return next(self._inner)
        frame = tracer.enter(self._name)
        try:
            return next(self._inner)
        finally:
            tracer.leave(frame)

    def close(self) -> None:
        closer = getattr(self._inner, "close", None)
        if closer is not None:
            closer()


class Tracer:
    """Collects spans at the wrapped layer boundaries while a round is open."""

    def __init__(self, span_limit: int = 20_000):
        self.span_limit = span_limit
        #: Open frames: ``[span id, name, start, time covered by children]``.
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        #: Events ``EventQueue.run`` reported executing.
        self.engine_events = 0
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: Targets that do not exist in this version of the program.
        self.missing: List[str] = []
        self._round = ""
        self._next_id = 0
        self._patched: List[tuple] = []

    # -- spans ------------------------------------------------------------------
    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def leave(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); return its duration."""
        end = time.perf_counter()
        span_id, name, start, children = frame
        self.stack.pop()
        duration = end - start
        parent = 0
        if self.stack:
            outer = self.stack[-1]
            outer[3] += duration
            parent = outer[0]
        self.calls[name] += 1
        self.self_s[name] += duration - children
        if len(self.spans) < self.span_limit or not self.stack:
            # Round roots are always kept so the trace shows every round.
            self.spans.append((span_id, name, start, end, parent, self._round))
        else:
            self.dropped_spans += 1
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        if not self.stack:
            yield
            return
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def begin_round(self, label: str) -> None:
        if self.stack:
            raise RuntimeError("a traced round is already open")
        self._round = label
        self.enter(ROOT_SPAN)

    def end_round(self) -> float:
        """Close the round's root span and return its wall time."""
        while len(self.stack) > 1:
            # A round that raised can leave inner frames open; close them so
            # the next round starts from an empty stack.
            self.leave(self.stack[-1])
        return self.leave(self.stack[-1])

    # -- wrappers ---------------------------------------------------------------
    def _wrap(self, function, name: str, kind: str):
        tracer = self
        stack = self.stack
        engine = name == "ssd.engine.run"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if engine:
                tracer.engine_events += result
            elif kind == ITER and not isinstance(result, (list, tuple, _TracedIterator)):
                result = _TracedIterator(tracer, name, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        for module_name, class_name, attribute, name, kind in TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            original = None if owner is None else vars(owner).get(attribute)
            if original is None:
                self.missing.append(f"{module_name}.{class_name}.{attribute}")
                continue
            setattr(owner, attribute, self._wrap(original, name, kind))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------------
    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (``ph: X``)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "round": label},
            }
            for span_id, name, start, end, parent, label in self.spans
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, kept_spans=len(events), dropped_spans=self.dropped_spans),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
