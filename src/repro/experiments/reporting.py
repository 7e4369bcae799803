"""Shared result container, run manifests and serialization for experiments.

An :class:`ExperimentResult` is the unit the experiment layer passes around:
tidy rows plus the headline numbers the paper quotes.  Since the registry
redesign it also carries a :class:`RunManifest` (the exact resolved
parameters, profile, seed and repro version that produced it) and
round-trips losslessly through plain dicts / JSON / CSV, which is what lets
the :class:`~repro.experiments.store.ArtifactStore` content-address results
and serve byte-identical cached copies.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

#: Version of the serialized result layout.  Part of every cache key, so
#: bumping it invalidates all stored artifacts at once.  Version 2: sweep
#: rows and metric summaries carry tail-latency columns (p99/p999), and
#: percentiles are histogram estimates rather than exact order statistics.
#: Version 3: sweep rows and metric summaries carry the wear-dynamics
#: columns (write_amplification, mapping_cache_hit_rate, gc_invocations,
#: translation_reads/writes) introduced with the DFTL page mapping.
SCHEMA_VERSION = 3


def jsonify(value):
    """Canonicalize ``value`` into plain JSON-native Python types.

    Tuples become lists and numpy scalars become their Python equivalents,
    so that a result serialized before and after a JSON round-trip compares
    (and dumps) identically — the property the artifact cache's
    "cached == fresh" guarantee rests on.
    """
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if hasattr(value, "item") and type(value).__module__ == "numpy":
        return value.item()
    return value


class DegenerateRunError(RuntimeError):
    """A run finished without exercising what it measures."""


@dataclass
class RunManifest:
    """Provenance of one experiment run.

    :param experiment: registry name of the experiment.
    :param params: the fully resolved parameters passed to ``run()``.
    :param profile: the profile the parameters were resolved from.
    :param seed: the run's seed parameter, if the experiment declares one.
    :param repro_version: ``repro.__version__`` that produced the result.
    :param schema_version: serialized-layout version (cache-key component).
    :param cache_key: content address in the artifact store, if computed.
    """

    experiment: str
    params: Dict[str, object] = field(default_factory=dict)
    profile: Optional[str] = None
    seed: Optional[int] = None
    repro_version: str = ""
    schema_version: int = SCHEMA_VERSION
    cache_key: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": jsonify(self.params),
            "profile": self.profile,
            "seed": self.seed,
            "repro_version": self.repro_version,
            "schema_version": self.schema_version,
            "cache_key": self.cache_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        return cls(experiment=data["experiment"],
                   params=dict(data.get("params") or {}),
                   profile=data.get("profile"),
                   seed=data.get("seed"),
                   repro_version=data.get("repro_version", ""),
                   schema_version=data.get("schema_version", SCHEMA_VERSION),
                   cache_key=data.get("cache_key"))


@dataclass
class ExperimentResult:
    """Tabular result of one experiment.

    :param name: experiment identifier (``"fig05"`` etc.).
    :param title: human-readable title referencing the paper artifact.
    :param rows: list of dict rows; all rows share the same keys.
    :param headline: the headline numbers the paper quotes in prose, used by
        EXPERIMENTS.md and the regression tests.
    :param notes: free-form caveats (e.g. reduced sample counts).
    :param manifest: provenance of the run (attached by the runner).
    """

    name: str
    title: str
    rows: List[dict] = field(default_factory=list)
    headline: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    manifest: Optional[RunManifest] = None

    def columns(self) -> List[str]:
        if not self.rows:
            return []
        return list(self.rows[0].keys())

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]

    def filter_rows(self, approx: Optional[Mapping[str, float]] = None,
                    tolerance: float = 1e-9, **criteria) -> List[dict]:
        """Rows matching all the given column values.

        ``criteria`` columns are compared with exact ``==``; ``approx``
        columns are numeric and match within ``tolerance``, which is what
        float-valued sweep axes (e.g. ``pre_reduction``) need — ``0.54``
        recomputed through arithmetic rarely equals the literal exactly.

        >>> result.filter_rows(pe_cycles=1000, approx={"reduction": 0.47})
        """
        approx = approx or {}

        def approx_match(row) -> bool:
            for key, value in approx.items():
                actual = row.get(key)
                if actual is None or abs(actual - value) > tolerance:
                    return False
            return True

        return [row for row in self.rows
                if all(row.get(key) == value
                       for key, value in criteria.items())
                and approx_match(row)]

    def first_row(self, approx: Optional[Mapping[str, float]] = None,
                  tolerance: float = 1e-9, **criteria) -> Optional[dict]:
        """First matching row, or None (lookup sugar for headline code)."""
        matched = self.filter_rows(approx=approx, tolerance=tolerance,
                                   **criteria)
        return matched[0] if matched else None

    def require(
        self, why: str, group_by: Optional[str] = None, **checks: Callable[[object], bool]
    ) -> "ExperimentResult":
        """Postcondition of a run: it has rows and every row passes every check.

        A run that finishes without exercising what it measures (no GC in a
        wear experiment, no fault in a fault experiment) raises
        :class:`DegenerateRunError` instead of passing as coverage.

        :param why: what the checks establish, for the error message.
        :param group_by: when given, one group of rows sharing this column's
            value (one workload, one pattern) passing in every row suffices.
        :param checks: column name -> predicate its value must satisfy.
        """
        if not self.rows:
            raise DegenerateRunError(f"{self.name} produced no rows, so not {why}")
        failures = []
        for index, row in enumerate(self.rows):
            for column, passes in checks.items():
                if not passes(row[column]):
                    failures.append((index, f"{column} = {row[column]!r}"))
                    break
        if group_by is not None:
            failed = {self.rows[index][group_by] for index, _ in failures}
            if any(row[group_by] not in failed for row in self.rows):
                return self
        if failures:
            index, problem = failures[0]
            scope = f" (and no {group_by} passes in every row)" if group_by else ""
            raise DegenerateRunError(f"{self.name} row {index}: {problem}{scope}, so not {why}")
        return self

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (canonical JSON-native types, see :func:`jsonify`)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "rows": jsonify(self.rows),
            "headline": jsonify(self.headline),
            "notes": list(self.notes),
            "manifest": self.manifest.to_dict() if self.manifest else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentResult":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"cannot load result with schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})")
        manifest = data.get("manifest")
        return cls(name=data["name"], title=data["title"],
                   rows=[dict(row) for row in data.get("rows", [])],
                   headline=dict(data.get("headline") or {}),
                   notes=list(data.get("notes") or []),
                   manifest=RunManifest.from_dict(manifest)
                   if manifest else None)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON document (ends with a newline)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        """The rows as an RFC-4180 CSV document (header + one line per row)."""
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        columns = self.columns()
        writer.writerow(columns)
        for row in jsonify(self.rows):
            writer.writerow([row[column] for column in columns])
        return buffer.getvalue()

    # -- rendering ---------------------------------------------------------------
    def to_text(self, max_rows: Optional[int] = None) -> str:
        """Render the result as a fixed-width text table.

        :param max_rows: print at most this many rows (``0`` prints only the
            header); ``None`` prints them all.
        """
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        lines = [self.title, "=" * len(self.title)]
        if self.headline:
            lines.append("")
            lines.append("Headline numbers:")
            for key, value in self.headline.items():
                lines.append(f"  - {key}: {value}")
        if self.rows:
            lines.append("")
            columns = self.columns()
            rows = self.rows if max_rows is None else self.rows[:max_rows]
            widths = {column: max([len(str(column))]
                                  + [len(str(row[column])) for row in rows])
                      for column in columns}
            header = "  ".join(str(column).ljust(widths[column])
                               for column in columns)
            lines.append(header)
            lines.append("-" * len(header))
            for row in rows:
                lines.append("  ".join(str(row[column]).ljust(widths[column])
                                       for column in columns))
            if max_rows is not None and len(self.rows) > max_rows:
                lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text(max_rows=30)
