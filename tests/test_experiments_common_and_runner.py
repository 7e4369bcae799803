"""Tests for the shared experiment defaults and the CLI runner."""

import json

import pytest

import repro
from repro.experiments.api import default_experiment_config
from repro.experiments.fig14 import DEFAULT_CONDITION_GRID
from repro.experiments.runner import main as runner_main
from repro.sim import Simulation, SweepRunner
from repro.ssd.config import SsdConfig


class TestVersion:
    def test_version_exported(self):
        assert repro.__version__.count(".") == 2


class TestDefaultConfig:
    def test_default_experiment_config_is_scaled(self):
        config = default_experiment_config()
        assert isinstance(config, SsdConfig)
        assert config.blocks_per_plane < 1888
        assert config.channels == 4

    def test_overrides_pass_through(self):
        config = default_experiment_config(blocks_per_plane=10)
        assert config.blocks_per_plane == 10


class TestSweepGrid:
    @pytest.fixture(scope="class")
    def sweep(self, default_rpt):
        runner = SweepRunner(config=SsdConfig.tiny(), rpt=default_rpt)
        return runner.run(policies=("Baseline", "NoRR"), workloads=("usr_1",),
                          conditions=((1000, 6.0),), num_requests=60)

    def test_grid_structure(self, sweep):
        grid = sweep.to_grid()
        assert set(grid) == {"usr_1"}
        assert set(grid["usr_1"]) == {(1000, 6.0)}
        assert set(grid["usr_1"][(1000, 6.0)]) == {"Baseline", "NoRR"}

    def test_normalized_rows(self, sweep):
        rows = sweep.rows
        assert len(rows) == 2
        baseline = next(row for row in rows if row["policy"] == "Baseline")
        norr = next(row for row in rows if row["policy"] == "NoRR")
        assert baseline["normalized_response_time"] == pytest.approx(1.0)
        assert norr["normalized_response_time"] < 1.0
        assert baseline["class"] == "read-dominant"

    def test_unknown_workload_rejected(self, default_rpt):
        with pytest.raises(KeyError):
            SweepRunner(config=SsdConfig.tiny(), rpt=default_rpt).run(
                policies=("Baseline",), workloads=("not-a-workload",),
                conditions=((0, 0.0),), num_requests=10)

    def test_default_condition_grid_shape(self):
        assert len(DEFAULT_CONDITION_GRID) == 9
        assert (0, 0.0) in DEFAULT_CONDITION_GRID
        assert (2000, 12.0) in DEFAULT_CONDITION_GRID


class TestComparePolicies:
    def test_simulation_returns_means(self, tiny_ssd_config):
        run = (Simulation(tiny_ssd_config)
               .policies("Baseline", "NoRR")
               .synthetic(read_ratio=0.9, cold_ratio=0.7,
                          mean_interarrival_us=300.0, n=60)
               .condition(pec=1000, months=6.0)
               .run())
        result = {name: result.mean_response_time_us for name, result in run}
        assert result["NoRR"] < result["Baseline"]

    def test_quick_ssd_comparison_wrapper(self):
        result = repro.quick_ssd_comparison(num_requests=60, seed=1)
        assert set(result) == {"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}


class TestRunnerCli:
    def test_cli_runs_single_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "table1.txt"
        exit_code = runner_main(["run", "table1", "--out", str(out_file)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert out_file.read_text().startswith("Table 1")

    def test_cli_profile_and_max_rows(self, capsys):
        exit_code = runner_main(["run", "fig11", "--profile", "fast",
                                 "--max-rows", "3"])
        assert exit_code == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_cli_max_rows_zero_prints_header_only(self, capsys):
        exit_code = runner_main(["run", "table1", "--max-rows", "0"])
        assert exit_code == 0
        assert "more rows)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["run", "table1"],
                                         ["show", "table1"]])
    def test_cli_rejects_negative_max_rows(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            runner_main(command + ["--max-rows", "-1"])
        assert exit_info.value.code == 2
        assert "--max-rows" in capsys.readouterr().err

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            runner_main(["figure-zero"])

    def test_cli_rejects_unknown_subtarget(self):
        with pytest.raises(SystemExit):
            runner_main(["run", "figure-zero"])


class TestHeadlineReportScript:
    def test_report_configs_cover_all_experiments(self):
        """The EXPERIMENTS.md generator runs every registered experiment."""
        import importlib.util
        import pathlib

        from repro.experiments import EXPERIMENT_NAMES

        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "generate_experiments_report.py")
        module_spec = importlib.util.spec_from_file_location("report", script)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        assert set(module.CONFIGS) == set(EXPERIMENT_NAMES)

    def test_headline_artifact_is_valid_json_when_present(self):
        import pathlib

        artifact = (pathlib.Path(__file__).resolve().parents[1]
                    / "experiments_headlines.json")
        if not artifact.exists():
            pytest.skip("headline report not generated")
        report = json.loads(artifact.read_text())
        assert "fig14" in report and "headline" in report["fig14"]
