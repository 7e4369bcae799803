"""Correctness checks the benchmark runs before it reports any number.

* :func:`golden_preflight` re-runs the grid stored in
  ``tests/data/block_mode_golden.json`` through the public ``SweepRunner``
  and compares every stored row and summary value bitwise.  The fixture is
  only read.
* :func:`diff_records` is the one comparator used for the golden grid, for
  round-to-round repeats and for traced-against-untraced runs.
* :func:`perturbation_self_test` proves the comparator is live: it nudges
  one summary field by one ulp and requires the comparison to fail.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import List, Optional, Tuple


def diff_records(reference, candidate, path: str = "", strict: bool = True) -> List[str]:
    """Paths where ``candidate`` differs from ``reference``, compared exactly.

    With ``strict=False`` keys the candidate has beyond the reference are
    ignored (the golden fixture predates some summary columns).
    """
    if isinstance(reference, dict):
        if not isinstance(candidate, dict):
            return [f"{path}: expected a mapping, got {type(candidate).__name__}"]
        problems = []
        for key, value in reference.items():
            if key not in candidate:
                problems.append(f"{path}/{key}: missing")
            else:
                problems.extend(diff_records(value, candidate[key], f"{path}/{key}", strict))
        if strict:
            problems.extend(f"{path}/{key}: unexpected" for key in candidate if key not in reference)
        return problems
    if isinstance(reference, (list, tuple)):
        if not isinstance(candidate, (list, tuple)) or len(candidate) != len(reference):
            return [f"{path}: expected a sequence of {len(reference)} items"]
        problems = []
        for index, (left, right) in enumerate(zip(reference, candidate)):
            problems.extend(diff_records(left, right, f"{path}[{index}]", strict))
        return problems
    if reference != candidate:
        return [f"{path}: {candidate!r} != {reference!r}"]
    return []


def _golden_records(fixture: dict) -> dict:
    rows = {
        f"{row['workload']}|{row['pe_cycles']}|{row['retention_months']}|{row['policy']}": row
        for row in fixture["rows"]
    }
    return {"rows": rows, "summaries": fixture["summaries"]}


def golden_preflight(fixture_path: Path) -> Tuple[List[str], dict]:
    """Re-run the block-mode golden grid; return (problems, fresh records)."""
    from repro.sim.sweep import SweepRunner
    from repro.ssd.config import SsdConfig

    fixture = json.loads(fixture_path.read_text())
    runner = SweepRunner(config=SsdConfig.scaled(**fixture["config"]), use_shared_memory=False)
    sweep = runner.run(
        policies=fixture["policies"],
        workloads=fixture["workloads"],
        conditions=[tuple(condition) for condition in fixture["conditions"]],
        num_requests=fixture["num_requests"],
        seed=fixture["seed"],
    )
    summaries = {
        f"{workload}|{pe_cycles}|{months}|{policy}": result.metrics.summary()
        for (workload, pe_cycles, months), cell in sweep.cells.items()
        for policy, result in cell.items()
    }
    fresh = _golden_records({"rows": sweep.rows, "summaries": summaries})
    problems = diff_records(_golden_records(fixture), fresh, "golden", strict=False)
    if len(sweep.rows) != len(fixture["rows"]):
        problems.append(f"golden: {len(sweep.rows)} rows, fixture has {len(fixture['rows'])}")
    if set(summaries) != set(fixture["summaries"]):
        problems.append("golden: the re-run grid has different cells than the fixture")
    return problems, fresh


def _first_float(record, path: str = "") -> Optional[Tuple[str, list]]:
    """Locate the first float leaf: (its path, [container, key])."""
    is_dict = isinstance(record, dict)
    for key, value in record.items() if is_dict else enumerate(record):
        child = f"{path}/{key}" if is_dict else f"{path}[{key}]"
        if isinstance(value, float) and value != 0.0:
            return child, [record, key]
        if isinstance(value, (dict, list)):
            found = _first_float(value, child)
            if found is not None:
                return found
    return None


def perturbation_self_test(reference: dict) -> Tuple[bool, str]:
    """Nudge one float of a copy by one ulp; the comparator must object."""
    perturbed = copy.deepcopy(reference)
    found = _first_float(perturbed)
    if found is None:
        return False, "no float field to perturb"
    path, (container, key) = found
    container[key] = math.nextafter(container[key], math.inf)
    caught = diff_records(reference, perturbed)
    if len(caught) != 1 or not caught[0].startswith(f"{path}:"):
        return False, f"comparator missed a one-ulp change at {path}: {caught}"
    return True, f"one-ulp change at {path} detected"
