"""The ``repro-experiment`` command-line tool and suite-run machinery.

The CLI is organized around subcommands over the declarative experiment
registry (:mod:`repro.experiments.api`)::

    repro-experiment list [--tag system] [--format json]
    repro-experiment run all --profile fast --jobs 4
    repro-experiment run fig14 --set num_requests=200 --no-cache
    repro-experiment export all --profile smoke --format csv --dir out/
    repro-experiment show fig14 --profile fast

``run``/``export`` accept an experiment name, a tag (``paper``,
``ablation``, ``system``, ...) or ``all``.  Results are cached in a
content-addressed :class:`~repro.experiments.store.ArtifactStore` keyed by
the fully resolved parameters, so re-runs are instant and an interrupted
suite resumes where it stopped; independent experiments of a suite fan out
over the same process pool the sweep runner uses
(:func:`repro.sim.sweep.pool_map`), with parallel and cached runs producing
byte-identical exports to serial fresh runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.api import (
    ExperimentLookupError,
    ExperimentRegistration,
    ParameterValueError,
    UnknownParameterError,
    UnknownProfileError,
    default_experiment_registry,
)
from repro.experiments.reporting import ExperimentResult, RunManifest, jsonify
from repro.experiments.store import ArtifactStore, cache_key
from repro.sim.sweep import pool_map
from repro.version import __version__

Targets = Union[str, Sequence[str]]


# -- execution -----------------------------------------------------------------
def _execute(name: str, profile: str,
             params: Mapping[str, object]) -> ExperimentResult:
    """Run one experiment fresh and attach its run manifest."""
    entry = default_experiment_registry().entry(name)
    result = entry.fn(**dict(params))
    result.manifest = RunManifest(
        experiment=entry.name, params=jsonify(dict(params)), profile=profile,
        seed=params.get("seed"), repro_version=__version__,
        cache_key=cache_key(entry.name, entry.params.cache_params(params)))
    return result


def _suite_worker(payload: dict) -> Tuple[dict, float]:
    """Pool-friendly wrapper: plain dicts in, plain dicts out."""
    # Wall-clock reads here time the harness for progress display; no
    # simulation result depends on them.
    started = time.perf_counter()  # repro-lint: disable=no-wall-clock
    result = _execute(payload["name"], payload["profile"], payload["params"])
    elapsed = time.perf_counter() - started  # repro-lint: disable=no-wall-clock
    return result.to_dict(), elapsed


def run_experiment(name: str, profile: Optional[str] = None,
                   fast: bool = False,
                   store: Optional[ArtifactStore] = None,
                   **overrides) -> ExperimentResult:
    """Run one experiment by name and return its result.

    :param profile: parameter profile (``full``/``fast``/``smoke``);
        defaults to ``full``.
    :param fast: legacy alias for ``profile="fast"``.
    :param store: optional :class:`ArtifactStore`; when given, a cached
        result for the same resolved parameters is returned instead of
        re-running, and fresh results are persisted.
    :param overrides: experiment parameters, validated against the declared
        :class:`~repro.experiments.api.ParamSpec`.
    :raises ExperimentLookupError: for an unknown experiment name.
    :raises UnknownParameterError: for an override the experiment lacks.
    """
    entry = default_experiment_registry().entry(name)
    profile = profile or ("fast" if fast else "full")
    params = entry.resolve_params(profile=profile, overrides=overrides)
    if store is not None:
        cached = store.load(entry.name, entry.params.cache_params(params))
        if cached is not None:
            return cached
    result = _execute(entry.name, profile, params)
    if store is not None:
        store.save(result)
    return result


@dataclass
class SuiteRun:
    """One suite entry: the result plus where it came from."""

    name: str
    result: ExperimentResult
    cached: bool
    seconds: float


def _filtered_overrides(entry: ExperimentRegistration,
                        overrides: Mapping[str, object],
                        coerce: bool) -> Dict[str, object]:
    subset = {name: value for name, value in overrides.items()
              if name in entry.params}
    if coerce:
        subset = {name: entry.params.get(name).coerce(value)
                  for name, value in subset.items()}
    return subset


def run_suite(targets: Targets = "all", profile: str = "fast",
              overrides: Optional[Mapping[str, object]] = None,
              jobs: int = 1,
              store: Optional[ArtifactStore] = None,
              coerce: bool = False) -> List[SuiteRun]:
    """Run a set of experiments, optionally cached and in parallel.

    :param targets: an experiment name, a tag, ``"all"``, or a sequence of
        those; duplicates are collapsed, registry order is preserved.
    :param overrides: parameter overrides; each is applied to every selected
        experiment that declares the parameter, and a name no selected
        experiment declares raises :class:`UnknownParameterError`.
    :param jobs: worker processes for fresh experiments (cache hits never
        occupy a worker).
    :param coerce: parse string override values per the declared types
        (the CLI's ``--set key=value`` path).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    registry = default_experiment_registry()
    if isinstance(targets, str):
        targets = (targets,)
    selected: List[str] = []
    for target in targets:
        for name in registry.resolve_targets(target):
            if name not in selected:
                selected.append(name)

    overrides = dict(overrides or {})
    declared_anywhere = set()
    for name in selected:
        declared_anywhere.update(registry.entry(name).params.names())
    unknown = set(overrides) - declared_anywhere
    if unknown:
        raise UnknownParameterError("/".join(selected) or "?", unknown,
                                    tuple(sorted(declared_anywhere)))

    plan: List[dict] = []
    for name in selected:
        entry = registry.entry(name)
        params = entry.resolve_params(
            profile=profile,
            overrides=_filtered_overrides(entry, overrides, coerce))
        cached = (store.load(entry.name, entry.params.cache_params(params))
                  if store is not None else None)
        plan.append({"name": entry.name, "profile": profile,
                     "params": params, "cached": cached})

    fresh = [payload for payload in plan if payload["cached"] is None]
    fresh_runs: Dict[str, SuiteRun] = {}

    def _collect(outcome) -> None:
        # Runs in the parent as each result arrives, so finished experiments
        # are persisted even if a later one crashes — an interrupted suite
        # resumes from the artifact store.
        data, seconds = outcome
        result = ExperimentResult.from_dict(data)
        if store is not None:
            store.save(result)
        fresh_runs[result.manifest.experiment] = SuiteRun(
            name=result.manifest.experiment, result=result,
            cached=False, seconds=seconds)

    pool_map(_suite_worker, fresh, jobs, on_result=_collect)

    return [SuiteRun(name=payload["name"], result=payload["cached"],
                     cached=True, seconds=0.0)
            if payload["cached"] is not None else fresh_runs[payload["name"]]
            for payload in plan]


def run_all(fast: bool = True, jobs: int = 1,
            store: Optional[ArtifactStore] = None) -> List[ExperimentResult]:
    """Run the full paper-artifact suite (fast parameters by default)."""
    runs = run_suite(targets="paper", profile="fast" if fast else "full",
                     jobs=jobs, store=store)
    return [run.result for run in runs]


# -- CLI -----------------------------------------------------------------------
_EXPORTERS = {"json": lambda result: result.to_json(),
              "csv": lambda result: result.to_csv()}


def _parse_sets(pairs: Sequence[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key.strip():
            raise ParameterValueError(
                f"--set expects key=value, got {pair!r}")
        overrides[key.strip()] = value
    return overrides


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _make_store(args) -> Optional[ArtifactStore]:
    if getattr(args, "no_cache", False):
        return None
    return ArtifactStore(root=getattr(args, "cache_dir", None))


def _export_suite(runs: Sequence[SuiteRun], directory: str,
                  fmt: str) -> List[str]:
    import pathlib

    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for run in runs:
        path = target / f"{run.name}.{fmt}"
        path.write_text(_EXPORTERS[fmt](run.result))
        written.append(str(path))
    return written


def _cmd_list(args) -> int:
    registry = default_experiment_registry()
    names = registry.names(tag=args.tag)
    if args.format == "json":
        payload = []
        for name in names:
            entry = registry.entry(name)
            payload.append({
                "name": entry.name,
                "artifact": entry.artifact,
                "tags": list(entry.tags),
                "doc": entry.doc,
                "params": [{"name": parameter.name,
                            "default": jsonify(parameter.default),
                            "profiles": jsonify(dict(parameter.profiles)),
                            "help": parameter.help}
                           for parameter in entry.params],
            })
        print(json.dumps(payload, indent=2))
        return 0
    for name in names:
        entry = registry.entry(name)
        tags = ", ".join(entry.tags)
        print(f"{entry.name:22} {entry.artifact}  [{tags}]")
        if args.params:
            for parameter in entry.params:
                profiles = "".join(
                    f"  {profile}={jsonify(value)!r}"
                    for profile, value in parameter.profiles.items())
                print(f"    --set {parameter.name}="
                      f"{jsonify(parameter.default)!r}{profiles}"
                      f"  # {parameter.help}")
    if not args.params:
        print(f"\n{len(names)} experiments; tags: "
              f"{', '.join(registry.tags())}")
    return 0


def _suite_from_args(args) -> List[SuiteRun]:
    return run_suite(targets=args.target, profile=args.profile,
                     overrides=_parse_sets(args.set), jobs=args.jobs,
                     store=_make_store(args), coerce=True)


def _cmd_run(args) -> int:
    runs = _suite_from_args(args)
    outputs = []
    for run in runs:
        source = "cached" if run.cached else f"ran in {run.seconds:.1f}s"
        print(f"== {run.name} [{args.profile}] ({source})")
        text = run.result.to_text(max_rows=args.max_rows)
        outputs.append(text)
        print(text)
        print()
    if args.out:
        import pathlib

        parent = pathlib.Path(args.out).parent
        parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write("\n\n".join(outputs) + "\n")
    if args.export:
        for path in _export_suite(runs, args.export, args.format):
            print(f"exported {path}")
    return 0


def _cmd_export(args) -> int:
    for path in _export_suite(_suite_from_args(args), args.dir, args.format):
        print(path)
    return 0


def _cmd_show(args) -> int:
    registry = default_experiment_registry()
    entry = registry.entry(args.name)
    params = entry.params.cache_params(
        entry.resolve_params(profile=args.profile,
                             overrides=_parse_sets(args.set), coerce=True))
    store = ArtifactStore(root=args.cache_dir)
    result = store.load(entry.name, params)
    if result is None:
        print(f"no cached artifact for {entry.name!r} with profile "
              f"{args.profile!r} (key {store.key(entry.name, params)}); "
              f"run `repro-experiment run {entry.name} "
              f"--profile {args.profile}` first", file=sys.stderr)
        return 1
    if args.format == "json":
        print(result.to_json(), end="")
    else:
        print(result.to_text(max_rows=args.max_rows))
    return 0


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", nargs="+",
                        help="experiment name, tag, or 'all'")
    parser.add_argument("--profile", default="full",
                        choices=("full", "fast", "smoke"),
                        help="parameter profile (default: full)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a declared parameter (repeatable)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="run fresh experiments on N worker processes")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the artifact store entirely")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact store root "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate the tables and figures of the read-retry "
                    "paper from the declarative experiment registry.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments, tags and parameters")
    list_parser.add_argument("--tag", default=None,
                             help="only experiments carrying this tag")
    list_parser.add_argument("--params", action="store_true",
                             help="also list each declared parameter")
    list_parser.add_argument("--format", default="text",
                             choices=("text", "json"))
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run experiments (cached, optionally in parallel)")
    _add_common_run_options(run_parser)
    run_parser.add_argument("--max-rows", type=_non_negative_int,
                            default=None, metavar="N",
                            help="limit the number of printed rows")
    run_parser.add_argument("--out", default=None, metavar="FILE",
                            help="also write the rendered table(s) to FILE")
    run_parser.add_argument("--export", default=None, metavar="DIR",
                            help="also export one file per experiment to DIR")
    run_parser.add_argument("--format", default="json",
                            choices=tuple(_EXPORTERS),
                            help="export format for --export")
    run_parser.set_defaults(handler=_cmd_run)

    export_parser = subparsers.add_parser(
        "export", help="run (or reuse cached) experiments and write "
                       "JSON/CSV artifacts")
    _add_common_run_options(export_parser)
    export_parser.add_argument("--format", default="json",
                               choices=tuple(_EXPORTERS))
    export_parser.add_argument("--dir", default="exports", metavar="DIR",
                               help="output directory (default: ./exports)")
    export_parser.set_defaults(handler=_cmd_export)

    show_parser = subparsers.add_parser(
        "show", help="display a cached artifact without running anything")
    show_parser.add_argument("name", help="experiment name")
    show_parser.add_argument("--profile", default="full",
                             choices=("full", "fast", "smoke"))
    show_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                             help="parameter overrides identifying the run")
    show_parser.add_argument("--cache-dir", default=None, metavar="DIR")
    show_parser.add_argument("--format", default="text",
                             choices=("text", "json"))
    show_parser.add_argument("--max-rows", type=_non_negative_int,
                             default=None, metavar="N")
    show_parser.set_defaults(handler=_cmd_show)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ExperimentLookupError, ParameterValueError,
            UnknownParameterError, UnknownProfileError) as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `... | head`); not an error.
        # Point stdout at devnull so the interpreter's flush-at-exit does
        # not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
