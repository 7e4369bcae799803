"""Declarative experiment registry: named experiments with typed parameters.

This module is the experiment-layer counterpart of the policy registry in
:mod:`repro.sim.registry`.  Every ``fig*``/``table*``/ablation harness
registers its ``run()`` function with :func:`register_experiment`, declaring

* the **paper artifact** it reproduces ("Figure 14", "Table 2", ...),
* **tags** so callers can address whole suites (``paper``, ``system``,
  ``characterization``, ``ablation``), and
* a :class:`ParamSpec` — the typed parameters ``run()`` accepts, with their
  full defaults plus named **profiles** (``full``/``fast``/``smoke``) that
  replace the old hardcoded ``_FAST_OVERRIDES`` dict in the runner.

The registry resolves a (profile, overrides) pair into the exact keyword
arguments for ``run()``, validating override names up front so a typo
produces a helpful error instead of an opaque ``TypeError`` from deep
inside the harness.  The resolved parameters are also what the
:class:`~repro.experiments.store.ArtifactStore` content-addresses results
by.

>>> from repro.experiments.api import default_experiment_registry
>>> registry = default_experiment_registry()
>>> registry.names(tag="system")  # doctest: +NORMALIZE_WHITESPACE
('fig14', 'fig15', 'tail_latency', 'fleet_capacity', 'wear_dynamics',
 'adversarial_scenarios', 'ablation_rpt', 'ablation_scheduling',
 'ablation_extensions')
>>> registry.entry("fig05").params.resolve(profile="fast")["num_chips"]
4
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.ssd.config import SsdConfig

#: The named parameter profiles every experiment understands.  ``full`` is
#: the declared defaults (paper-scale, minutes to hours), ``fast`` completes
#: in seconds-to-a-minute per experiment, ``smoke`` is CI-sized.
PROFILES = ("full", "fast", "smoke")

_MISSING = object()


class ExperimentLookupError(ValueError):
    """Raised when an experiment name is not in the registry."""


class DuplicateExperimentError(ValueError):
    """Raised when an experiment name is registered twice without overwrite."""


class UnknownProfileError(ValueError):
    """Raised when a profile name is not one of :data:`PROFILES`."""


class ParameterValueError(ValueError):
    """Raised when a CLI override value cannot be parsed as the declared type."""


class UnknownParameterError(ValueError):
    """Raised when an override names a parameter the experiment lacks."""

    def __init__(self, experiment: str, unknown: Iterable[str],
                 valid: Iterable[str]):
        self.experiment = experiment
        self.unknown = tuple(sorted(unknown))
        self.valid = tuple(valid)
        names = ", ".join(repr(name) for name in self.unknown)
        valid_text = (", ".join(self.valid)
                      if self.valid else "(none — this experiment takes "
                      "no parameters)")
        super().__init__(
            f"unknown parameter(s) {names} for experiment "
            f"{experiment!r}; valid parameters: {valid_text}")


def _coerce_like(template, raw: str):
    """Parse a CLI string into the type of ``template`` (a default value)."""
    if isinstance(template, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(template, int):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    if isinstance(template, str):
        return raw
    # Sequence-valued (or untyped/None-default) parameters: accept JSON
    # ("[[1000, 6.0]]") with a comma-list fallback ("usr_1,stg_0" — or a
    # single "usr_1", which still means a one-element sequence).
    try:
        parsed = json.loads(raw)
    except ValueError:
        parts = tuple(part.strip() for part in raw.split(",") if part.strip())
        if isinstance(template, (list, tuple)):
            element = template[0] if template else None
            if element is not None and not isinstance(element, str):
                raise ValueError(
                    f"{raw!r} is not valid JSON; a sequence of "
                    f"{type(element).__name__}s must be written as JSON, "
                    f"e.g. '[[1000, 6.0]]'")
            return parts
        return parts if len(parts) > 1 else raw
    return _tuplify(parsed)


def _tuplify(value):
    """Lists (from JSON) to tuples, recursively — run() signatures and the
    cache key both treat sequences as immutable."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter.

    :param name: keyword name in the experiment's ``run()`` signature.
    :param default: the ``full``-profile value.
    :param help: one-line description for ``repro-experiment list``.
    :param profiles: per-profile values; profiles not listed here fall back
        to ``default``.  Use the :func:`param` helper to write these as
        keyword arguments (``param("num_chips", 12, fast=4, smoke=2)``).
    :param cache_relevant: whether the parameter affects the result rows.
        Execution-only knobs (worker-process counts and the like) declare
        ``cache_relevant=False`` so they are excluded from the artifact
        store's content address — runs differing only in such knobs are
        guaranteed bitwise identical and share one cached artifact.
    """

    name: str
    default: object
    help: str = ""
    profiles: Mapping[str, object] = field(default_factory=dict)
    cache_relevant: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.profiles) - set(PROFILES)
        if unknown:
            raise UnknownProfileError(
                f"parameter {self.name!r} declares unknown profile(s) "
                f"{sorted(unknown)}; profiles are {PROFILES}")

    def value_for(self, profile: str):
        value = self.profiles.get(profile, _MISSING)
        return self.default if value is _MISSING else value

    def coerce(self, raw):
        """Parse a ``--set name=value`` CLI string into this param's type."""
        if not isinstance(raw, str):
            return _tuplify(raw) if isinstance(raw, list) else raw
        template = self.default
        if template is None:
            # Untyped default: look for any typed profile value to mimic.
            for value in self.profiles.values():
                if value is not None:
                    template = value
                    break
        try:
            return _coerce_like(template, raw)
        except ValueError as error:
            raise ParameterValueError(
                f"invalid value {raw!r} for parameter {self.name!r}: "
                f"{error}") from error


def param(name: str, default, help: str = "", *,  # noqa: A002 - mirrors argparse
          fast=_MISSING, smoke=_MISSING, cache_relevant: bool = True) -> Param:
    """Concise :class:`Param` constructor with per-profile keywords."""
    profiles = {}
    if fast is not _MISSING:
        profiles["fast"] = fast
    if smoke is not _MISSING:
        profiles["smoke"] = smoke
    return Param(name=name, default=default, help=help, profiles=profiles,
                 cache_relevant=cache_relevant)


class ParamSpec:
    """Ordered collection of :class:`Param` declarations for one experiment."""

    def __init__(self, *params: Param):
        self._params: Dict[str, Param] = {}
        for entry in params:
            if entry.name in self._params:
                raise ValueError(f"duplicate parameter {entry.name!r}")
            self._params[entry.name] = entry

    def names(self) -> Tuple[str, ...]:
        return tuple(self._params)

    def get(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def cache_params(self, resolved: Mapping[str, object]) -> Dict[str, object]:
        """The subset of resolved parameters that content-addresses a run
        (declared parameters with ``cache_relevant=False`` are dropped)."""
        return {name: value for name, value in resolved.items()
                if name not in self._params or self._params[name].cache_relevant}

    def validate_overrides(self, overrides: Mapping[str, object],
                           experiment: str = "?") -> None:
        """Reject overrides naming parameters this spec does not declare."""
        unknown = set(overrides) - set(self._params)
        if unknown:
            raise UnknownParameterError(experiment, unknown, self.names())

    def resolve(self, profile: str = "full",
                overrides: Optional[Mapping[str, object]] = None,
                experiment: str = "?",
                coerce: bool = False) -> Dict[str, object]:
        """The exact ``run()`` keyword arguments for (profile, overrides).

        :param coerce: parse string override values (from CLI ``--set``)
            into the declared parameter types.
        :raises UnknownProfileError: for a profile not in :data:`PROFILES`.
        :raises UnknownParameterError: for an override the spec lacks.
        """
        if profile not in PROFILES:
            raise UnknownProfileError(
                f"unknown profile {profile!r}; choose from {PROFILES}")
        overrides = dict(overrides or {})
        self.validate_overrides(overrides, experiment=experiment)
        resolved = {name: entry.value_for(profile)
                    for name, entry in self._params.items()}
        for name, value in overrides.items():
            resolved[name] = (self._params[name].coerce(value)
                              if coerce else value)
        return resolved


@dataclass
class ExperimentRegistration:
    """One registry entry: the harness function plus its declared surface."""

    name: str
    fn: Callable
    artifact: str = ""
    tags: Tuple[str, ...] = ()
    params: ParamSpec = field(default_factory=ParamSpec)
    doc: str = ""
    order: int = 0

    def resolve_params(self, profile: str = "full",
                       overrides: Optional[Mapping[str, object]] = None,
                       coerce: bool = False) -> Dict[str, object]:
        return self.params.resolve(profile=profile, overrides=overrides,
                                   experiment=self.name, coerce=coerce)

    def run(self, profile: str = "full",
            overrides: Optional[Mapping[str, object]] = None):
        """Resolve parameters and execute the harness (no caching here)."""
        return self.fn(**self.resolve_params(profile=profile,
                                             overrides=overrides))


class ExperimentRegistry:
    """A case-insensitive mapping from experiment names to harnesses."""

    def __init__(self):
        self._entries: Dict[str, ExperimentRegistration] = {}
        self._order = 0

    @staticmethod
    def _key(name: str) -> str:
        return str(name).strip().lower()

    # -- registration ---------------------------------------------------------
    def register(self, name: str, fn: Callable, *,
                 artifact: str = "",
                 tags: Iterable[str] = (),
                 params: Iterable[Param] = (),
                 doc: str = "",
                 overwrite: bool = False) -> ExperimentRegistration:
        """Register ``fn`` (a keyword-callable harness) under ``name``."""
        if not name or not name.strip():
            raise ValueError("experiment name must be a non-empty string")
        name = name.strip()
        key = self._key(name)
        if key in self._entries and not overwrite:
            raise DuplicateExperimentError(
                f"experiment {name!r} already registered; pass "
                "overwrite=True to replace it")
        spec = params if isinstance(params, ParamSpec) else ParamSpec(*params)
        self._check_signature(name, fn, spec)
        previous = self._entries.get(key)
        registration = ExperimentRegistration(
            name=name, fn=fn, artifact=artifact, tags=tuple(tags),
            params=spec, doc=doc,
            order=previous.order if previous is not None else self._order)
        if previous is None:
            self._order += 1
        self._entries[key] = registration
        return registration

    @staticmethod
    def _check_signature(name: str, fn: Callable, spec: ParamSpec) -> None:
        """Every declared parameter must be a keyword ``fn`` accepts."""
        signature = inspect.signature(fn)
        accepts_kwargs = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values())
        if accepts_kwargs:
            return
        missing = [entry.name for entry in spec
                   if entry.name not in signature.parameters]
        if missing:
            raise ValueError(
                f"experiment {name!r} declares parameter(s) {missing} "
                f"that {fn.__name__}() does not accept")

    def register_experiment(self, name: Optional[str] = None, *,
                            artifact: str = "",
                            tags: Iterable[str] = (),
                            params: Iterable[Param] = (),
                            overwrite: bool = False):
        """Decorator form of :meth:`register` for harness functions."""
        def decorator(fn):
            experiment_name = name or fn.__name__
            doc = ((fn.__doc__ or "").strip().splitlines() or [""])[0]
            self.register(experiment_name, fn, artifact=artifact, tags=tags,
                          params=params, doc=doc, overwrite=overwrite)
            return fn
        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registration (mainly for tests)."""
        del self._entries[self._key(self.entry(name).name)]

    # -- lookup ---------------------------------------------------------------
    def entry(self, name: str) -> ExperimentRegistration:
        registration = self._entries.get(self._key(name))
        if registration is None:
            raise ExperimentLookupError(
                f"unknown experiment {name!r}; available: "
                f"{sorted(self.names())}")
        return registration

    def canonical_name(self, name: str) -> str:
        return self.entry(name).name

    def names(self, tag: Optional[str] = None) -> Tuple[str, ...]:
        """Registered names (registration order), optionally by tag."""
        entries = sorted(self._entries.values(), key=lambda entry: entry.order)
        if tag is not None:
            entries = [entry for entry in entries if tag in entry.tags]
        return tuple(entry.name for entry in entries)

    def tags(self) -> Tuple[str, ...]:
        seen = set()
        for entry in self._entries.values():
            seen.update(entry.tags)
        return tuple(sorted(seen))

    def resolve_targets(self, target: str) -> Tuple[str, ...]:
        """Expand a CLI target — a name, a tag, or ``all`` — into names."""
        if self._key(target) == "all":
            return self.names()
        if self._key(target) in self._entries:
            return (self.canonical_name(target),)
        tagged = self.names(tag=target)
        if tagged:
            return tagged
        raise ExperimentLookupError(
            f"unknown experiment or tag {target!r}; experiments: "
            f"{sorted(self.names())}; tags: {sorted(self.tags())}")

    # -- dunder sugar ---------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return self._key(str(name)) in self._entries

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExperimentRegistry({', '.join(self.names())})"


#: The process-wide default registry.  The experiment modules populate it at
#: import time via the :func:`register_experiment` decorator.
DEFAULT_EXPERIMENT_REGISTRY = ExperimentRegistry()


def register_experiment(name: Optional[str] = None, *,
                        artifact: str = "",
                        tags: Iterable[str] = (),
                        params: Iterable[Param] = (),
                        overwrite: bool = False):
    """Decorator registering a harness in the default experiment registry."""
    return DEFAULT_EXPERIMENT_REGISTRY.register_experiment(
        name, artifact=artifact, tags=tags, params=params,
        overwrite=overwrite)


def default_experiment_config(**overrides) -> SsdConfig:
    """The scaled-down SSD used by the system-level experiments."""
    defaults = dict(blocks_per_plane=24, pages_per_block=48)
    defaults.update(overrides)
    return SsdConfig.scaled(**defaults)


#: Modules whose import populates the default registry, in presentation
#: order (this order is the registry order, and therefore the order
#: ``run all`` executes and EXPERIMENTS.md documents).
EXPERIMENT_MODULES = (
    "table1", "table2", "fig04b", "fig05", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig14", "fig15", "tail_latency", "fleet_capacity",
    "wear_dynamics", "adversarial_scenarios", "ablation",
)


def default_experiment_registry() -> ExperimentRegistry:
    """The default registry, with all built-in experiments loaded."""
    import importlib

    for module in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")
    return DEFAULT_EXPERIMENT_REGISTRY
