"""Every example script must run end to end (tiny parameters).

Examples are documentation that executes; without coverage they silently
rot as the APIs underneath them move.  Each test runs one script from
``examples/`` in-process via :func:`runpy.run_path` (so a failure gives a
real traceback, not an exit code) with parameters shrunk to keep the whole
module in the seconds range.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: script name -> tiny-parameter argv tail.
EXAMPLES = {
    "quickstart.py": ["60"],
    "policy_comparison.py": ["--workloads", "usr_1", "--requests", "60",
                             "--processes", "1"],
    "parallel_sweep.py": ["--processes", "1", "--requests", "40"],
    "trace_replay.py": ["--requests", "80"],
    "experiment_registry.py": ["--profile", "smoke", "--jobs", "1",
                               "--tag", "characterization"],
    "characterize_chips.py": ["--chips", "2", "--blocks", "1"],
    "fleet_capacity.py": ["--devices", "2", "--requests", "60",
                          "--processes", "1"],
}


def run_example(script: str, argv, monkeypatch, capsys):
    path = EXAMPLES_DIR / script
    monkeypatch.setattr(sys, "argv", [str(path)] + list(argv))
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # scripts may write scratch files
    output = run_example(script, EXAMPLES[script], monkeypatch, capsys)
    assert output.strip(), f"{script} produced no output"


def test_every_example_is_covered():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    missing = scripts - set(EXAMPLES)
    assert not missing, (
        f"examples {sorted(missing)} have no smoke test; add them to "
        "EXAMPLES with tiny parameters")
