"""Retry-grid slab transport: the one path slabs take from parent to workers.

Sweep cells and fleet devices both start by installing the
:class:`~repro.ssd.retry_grid.RetryStepGrid` slabs of their aged condition.
Building those behaviour lattices once in the parent, instead of once per
worker, is the point of sharing; shipping the built arrays *inside every
payload* would still cost one pickle per payload.  Both runners therefore
go through the same two calls:

* :func:`grid_transport` (parent) prefills the (P/E, retention) and
  (P/E, 0) slabs of every given condition, publishes them **once** through
  ``multiprocessing.shared_memory`` and yields the payload transport — a
  small picklable descriptor (segment name, array layout, content
  fingerprint, publication epoch).  Where shared memory is unavailable or
  switched off it yields the exported slabs inline instead.  The segment
  is closed and unlinked when the block exits, so it never outlives its
  run, even when a worker crashes mid-shard;
* :func:`install_payload_slabs` (worker) installs whatever the payload
  carries into the process-shared grid.  A stale or vanished segment falls
  back to the inline form; absent both, the worker recomputes its slabs,
  which is slower but bitwise-identical.

Underneath, :func:`publish_slabs` packs exported slabs into one segment and
:func:`attach_slabs` maps a descriptor back into read-only, zero-copy array
views.  Worker attachments are cached process-wide by segment name so a
fleet shard's payloads attach once.  Segment names are reused across runs
of a long-lived worker, so every cached attachment is validated against the
descriptor's ``(epoch, fingerprint)`` pair and explicitly detached on a
mismatch — a stale attachment from an earlier run (a different geometry, a
rebuilt grid) can never serve a new spec.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ssd.retry_grid import shared_grid

#: Per-page-type array fields of one exported slab, in packing order.
_ARRAY_FIELDS = ("retry_steps", "retry_steps_reduced", "reduced_timing_fallback")
_FIELD_DTYPES = {
    "retry_steps": np.dtype(np.int16),
    "retry_steps_reduced": np.dtype(np.int16),
    "reduced_timing_fallback": np.dtype(bool),
}

#: Monotonic per-process counters: segment names are ``pid + counter`` (no
#: randomness — deterministic, and unique while the publishing process lives),
#: epochs order publications so stale worker attachments are detectable.
_SEGMENT_COUNTER = itertools.count()
_EPOCH_COUNTER = itertools.count(1)

#: Worker-side attachment cache: segment name -> (shm, epoch, fingerprint).
#: Bounded FIFO — a long-lived pool worker serving many runs keeps only the
#: most recent attachments open.
_ATTACHMENTS: Dict[str, Tuple[object, int, str]] = {}
_MAX_ATTACHMENTS = 4


class SlabTransportError(RuntimeError):
    """An attach failed (missing segment, fingerprint mismatch, bad layout)."""


def _shared_memory_module():
    from multiprocessing import shared_memory

    return shared_memory


def _next_segment_name() -> str:
    return f"repro_slab_{os.getpid()}_{next(_SEGMENT_COUNTER)}"


def _fingerprint(layout: List[dict], data: bytes) -> str:
    digest = hashlib.sha256(repr(layout).encode("utf-8"))
    digest.update(data)
    return digest.hexdigest()[:16]


class SlabSegment:
    """Parent-side handle of one published slab segment."""

    def __init__(self, shm, descriptor: dict):
        self._shm = shm
        self.descriptor = descriptor

    @property
    def name(self) -> str:
        return self.descriptor["name"]

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Workers that still hold an attachment keep reading their mapped
        pages; the name just disappears from the namespace, so nothing
        leaks into ``/dev/shm`` after the run — crashed workers included.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SlabSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def publish_slabs(exports: Sequence[dict]) -> Optional[SlabSegment]:
    """Pack exported slabs into one shared-memory segment.

    :param exports: :meth:`RetryStepGrid.export_slabs` entries.
    :return: the published :class:`SlabSegment`, or ``None`` when shared
        memory is unavailable (the caller then ships the exports inline).
    """
    if not exports:
        return None
    try:
        shared_memory = _shared_memory_module()
    except ImportError:
        return None
    layout: List[dict] = []
    chunks: List[bytes] = []
    offset = 0
    for entry in exports:
        page_types: Dict[str, dict] = {}
        for name, arrays in entry["page_types"].items():
            fields = {}
            for field in _ARRAY_FIELDS:
                array = np.ascontiguousarray(arrays[field], dtype=_FIELD_DTYPES[field])
                data = array.tobytes()
                fields[field] = (offset, int(array.shape[0]))
                chunks.append(data)
                offset += len(data)
            page_types[name] = fields
        layout.append(
            {
                "pe_cycles": entry["pe_cycles"],
                "retention_months": entry["retention_months"],
                "page_types": page_types,
            }
        )
    payload = b"".join(chunks)
    try:
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(payload)), name=_next_segment_name()
        )
    except (OSError, ValueError):
        return None
    shm.buf[: len(payload)] = payload
    descriptor = {
        "name": shm.name,
        "epoch": next(_EPOCH_COUNTER),
        "fingerprint": _fingerprint(layout, payload),
        "size": len(payload),
        "layout": layout,
    }
    return SlabSegment(shm, descriptor)


def _untracked_attach(shared_memory, name: str):
    """Attach without registering with the resource tracker.

    An attaching worker does not own the segment; letting the resource
    tracker register the attachment would unlink it behind the publisher's
    back (and, because the tracker's cache is a set, confuse the
    publisher's own register/unregister pairing when publisher and worker
    share a process).  Python 3.13 has ``track=False`` for exactly this;
    earlier versions register unconditionally on attach, so registration
    is suppressed for the duration of the constructor instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track flag
        pass
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - non-posix
        return shared_memory.SharedMemory(name=name, create=False)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


def _detach(name: str) -> None:
    entry = _ATTACHMENTS.pop(name, None)
    if entry is None:
        return
    try:
        entry[0].close()
    except BufferError:  # pragma: no cover - caller still holds views
        pass


def detach_all() -> None:
    """Drop every cached attachment (test isolation hook)."""
    for name in list(_ATTACHMENTS):
        _detach(name)


def attach_slabs(descriptor: dict) -> List[dict]:
    """Rebuild export-shaped slabs from a published descriptor.

    The returned arrays are read-only views of the shared segment, valid
    while the attachment stays cached — consume them promptly (the grid's
    ``install_slabs`` interns the values immediately).

    :raises SlabTransportError: when the segment is gone or its content
        does not match the descriptor's fingerprint.
    """
    name = descriptor["name"]
    cached = _ATTACHMENTS.get(name)
    if cached is not None and (cached[1], cached[2]) != (
        descriptor["epoch"],
        descriptor["fingerprint"],
    ):
        # The epoch check: a long-lived worker whose earlier run attached a
        # same-named segment must not serve the new spec from stale pages.
        _detach(name)
        cached = None
    if cached is None:
        try:
            shared_memory = _shared_memory_module()
            shm = _untracked_attach(shared_memory, name)
        except (ImportError, OSError, ValueError) as error:
            raise SlabTransportError(f"cannot attach slab segment {name!r}: {error}") from error
        size = descriptor["size"]
        if shm.size < size:
            shm.close()
            raise SlabTransportError(
                f"slab segment {name!r} holds {shm.size} bytes, descriptor expects {size}"
            )
        fingerprint = _fingerprint(descriptor["layout"], bytes(shm.buf[:size]))
        if fingerprint != descriptor["fingerprint"]:
            shm.close()
            raise SlabTransportError(
                f"slab segment {name!r} content does not match its descriptor "
                "(stale or foreign segment)"
            )
        while len(_ATTACHMENTS) >= _MAX_ATTACHMENTS:
            _detach(next(iter(_ATTACHMENTS)))
        _ATTACHMENTS[name] = (shm, descriptor["epoch"], descriptor["fingerprint"])
        cached = _ATTACHMENTS[name]
    shm = cached[0]
    exports: List[dict] = []
    for entry in descriptor["layout"]:
        page_types = {}
        for page_name, fields in entry["page_types"].items():
            arrays = {}
            for field in _ARRAY_FIELDS:
                offset, length = fields[field]
                view = np.ndarray(
                    (length,), dtype=_FIELD_DTYPES[field], buffer=shm.buf, offset=offset
                )
                view.flags.writeable = False
                arrays[field] = view
            page_types[page_name] = arrays
        exports.append(
            {
                "pe_cycles": entry["pe_cycles"],
                "retention_months": entry["retention_months"],
                "page_types": page_types,
            }
        )
    return exports


def payload_slabs(payload: dict) -> Optional[List[dict]]:
    """The slabs a worker payload carries, via whichever transport it used.

    Attach failures (the publishing run already cleaned up, a stale
    descriptor) fall back to the payload's inline ``grid_slabs`` — absent
    both, the worker simply recomputes its slabs, which is slower but
    bitwise-identical.
    """
    descriptor = payload.get("grid_segment")
    if descriptor is not None:
        try:
            return attach_slabs(descriptor)
        except SlabTransportError:
            pass
    return payload.get("grid_slabs")


def install_payload_slabs(payload: dict, config, rpt) -> None:
    """Install a worker payload's slabs into this process's shared grid.

    A fork-start worker usually inherited the parent's slabs already;
    ``install_slabs`` then no-ops.
    """
    slabs = payload_slabs(payload)
    if slabs:
        shared_grid(config, rpt).install_slabs(slabs)


@contextlib.contextmanager
def grid_transport(config, rpt, conditions: Iterable, use_shared_memory: bool) -> Iterator[dict]:
    """Build the slabs of ``conditions`` once and yield the payload transport.

    Every device reads cold data at its condition and rewritten data at
    (P/E, 0), so both pairs are prefilled per distinct condition, in sorted
    order (a deterministic slab layout).  The yielded dict is merged into
    every worker payload: ``{"grid_segment": descriptor}`` when the slabs
    went to shared memory, else ``{"grid_slabs": exports}``.

    :param conditions: objects with ``pe_cycles`` and ``retention_months``
        (:class:`repro.sim.spec.Condition`).
    """
    grid = shared_grid(config, rpt)
    pairs = set()
    for condition in conditions:
        pairs.add((condition.pe_cycles, float(condition.retention_months)))
        pairs.add((condition.pe_cycles, 0.0))
    exports = []
    for pair in sorted(pairs):
        # Export each slab right after its prefill: with more conditions
        # than the grid's slab bound, a batch export would miss early slabs.
        grid.prefill([pair])
        exports.extend(grid.export_slabs([pair]))
    segment = publish_slabs(exports) if use_shared_memory else None
    if segment is None:
        yield {"grid_slabs": exports}
        return
    with segment:
        yield {"grid_segment": segment.descriptor}
