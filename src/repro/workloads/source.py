"""The unified ``WorkloadSource`` protocol and its serialization registry.

Every stream-producing object — :class:`~repro.sim.spec.WorkloadSpec`,
``SyntheticWorkload``, ``TraceReplay``, ``TenantMix``, ``ClosedLoopSource``
and the scenario sources — implements one duck-typed protocol, so fleet
sharding, manifests and scenario wrappers never special-case a source:

* ``iter_requests(config, footprint_pages=None)`` — a fresh, lazily
  generated :class:`~repro.ssd.request.HostRequest` stream, ordered by
  arrival time.  ``footprint_pages`` overrides the addressable page count
  (the fleet passes the array's logical size so a striped stream spans
  every device);
* ``to_dict()`` / ``from_dict(payload)`` — a JSON-able round-trip so run
  manifests record the source exactly and fleet workers rebuild it from a
  pickled payload;
* ``label`` — a short human identity for reports and cache keys;
* ``source_kind`` — a class-level tag naming the source in serialized form.

:func:`source_to_dict` stamps the kind into the payload and
:func:`source_from_dict` resolves it back through a registry of the
built-in source classes, so a manifest alone reproduces any scenario run.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

#: Registered source classes, keyed by their ``source_kind`` tag.
_SOURCE_KINDS: Dict[str, Type] = {}

_BUILTINS_LOADED = False


def register_source(cls: Type) -> Type:
    """Register a source class under its ``source_kind`` tag.

    Usable as a decorator.  Registering the same kind twice with a
    different class is an error — serialized manifests must stay
    unambiguous.
    """
    kind = getattr(cls, "source_kind", None)
    if not isinstance(kind, str) or not kind:
        raise TypeError(
            f"{cls.__name__} needs a non-empty 'source_kind' class attribute "
            "to be registered as a workload source"
        )
    existing = _SOURCE_KINDS.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"source kind {kind!r} is already registered by {existing.__name__}")
    _SOURCE_KINDS[kind] = cls
    return cls


def _ensure_builtins() -> None:
    """Import (and thereby register) every built-in source class lazily.

    Registration lives here rather than at package import so the protocol
    module stays cycle-free: the source classes do not import this module,
    and this module imports them only when serialization is actually used.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from repro.sim.spec import WorkloadSpec
    from repro.workloads.closed_loop import ClosedLoopSource
    from repro.workloads.scenarios import SCENARIO_SOURCES
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.tenants import TenantMix
    from repro.workloads.trace import TraceReplay

    for cls in (
        WorkloadSpec,
        TenantMix,
        SyntheticWorkload,
        TraceReplay,
        ClosedLoopSource,
        *SCENARIO_SOURCES,
    ):
        register_source(cls)
    _BUILTINS_LOADED = True


def source_kinds() -> tuple:
    """Every registered source kind, sorted (for error messages and docs)."""
    _ensure_builtins()
    return tuple(sorted(_SOURCE_KINDS))


def is_workload_source(value) -> bool:
    """Whether ``value`` implements the ``WorkloadSource`` protocol."""
    return all(callable(getattr(value, name, None)) for name in ("iter_requests", "to_dict"))


def source_to_dict(source) -> dict:
    """Serialize any workload source, stamping its ``kind`` tag."""
    if not is_workload_source(source):
        raise TypeError(
            f"{source!r} is not a workload source (needs iter_requests() and to_dict())"
        )
    kind = getattr(type(source), "source_kind", None)
    if not isinstance(kind, str) or not kind:
        raise TypeError(
            f"{type(source).__name__} carries no 'source_kind' tag; only "
            "registered sources can be serialized into a manifest"
        )
    payload = dict(source.to_dict())
    payload["kind"] = kind
    return payload


def source_from_dict(payload: dict):
    """Rebuild a workload source from a :func:`source_to_dict` payload."""
    _ensure_builtins()
    payload = dict(payload)
    kind = payload.pop("kind", None)
    if kind is None:
        raise ValueError(
            "source payload carries no 'kind' tag; serialize sources with source_to_dict()"
        )
    cls = _SOURCE_KINDS.get(kind)
    if cls is None:
        raise KeyError(f"unknown source kind {kind!r}; registered kinds: {list(source_kinds())}")
    return cls.from_dict(payload)


def as_workload_source(
    value,
    num_requests: Optional[int] = None,
    seed: Optional[int] = None,
    mean_interarrival_us: Optional[float] = None,
    footprint_fraction: Optional[float] = None,
):
    """Coerce ``value`` into a workload source.

    Ready sources (anything implementing the protocol) pass through
    untouched; catalog names, shapes and spec dicts build a
    :class:`~repro.sim.spec.WorkloadSpec`; a ``kind``-tagged dict resolves
    through the source registry.
    """
    from repro.sim.spec import WorkloadSpec
    from repro.workloads.tenants import TenantMix

    if isinstance(value, dict):
        if "kind" in value:
            return source_from_dict(value)
        if "tenants" in value:
            return TenantMix.from_dict(value)
        return WorkloadSpec.coerce(
            value,
            num_requests=num_requests,
            seed=seed,
            mean_interarrival_us=mean_interarrival_us,
            footprint_fraction=footprint_fraction,
        )
    if is_workload_source(value) and not isinstance(value, (str, WorkloadSpec)):
        return value
    return WorkloadSpec.coerce(
        value,
        num_requests=num_requests,
        seed=seed,
        mean_interarrival_us=mean_interarrival_us,
        footprint_fraction=footprint_fraction,
    )
