"""Tests for the parallel sweep runner and its worker-pool fan-out."""

import multiprocessing
import os

import pytest

from repro.sim import Condition, SweepRunner, WorkloadSpec
from repro.sim import sweep as sweep_module
from repro.sim.fleet import FleetRunner, FleetSpec
from repro.ssd.config import SsdConfig
from repro.ssd.retry_grid import RetryStepGrid, clear_shared_grids

POLICIES = ("Baseline", "PnAR2", "NoRR")
WORKLOADS = ("usr_1", "stg_0")
CONDITIONS = ((0, 0.0), (1000, 6.0))


@pytest.fixture(scope="module")
def tiny_config():
    return SsdConfig.tiny()


@pytest.fixture(scope="module")
def serial_result(tiny_config):
    runner = SweepRunner(config=tiny_config, processes=1)
    return runner.run(policies=POLICIES, workloads=WORKLOADS,
                      conditions=CONDITIONS, num_requests=50)


class TestSweepResult:
    def test_row_grid_shape(self, serial_result):
        assert len(serial_result.rows) == (
            len(POLICIES) * len(WORKLOADS) * len(CONDITIONS))
        assert {row["workload"] for row in serial_result.rows} == set(WORKLOADS)

    def test_rows_normalized_to_baseline(self, serial_result):
        for row in serial_result.filter_rows(policy="Baseline"):
            assert row["normalized_response_time"] == pytest.approx(1.0)
        for row in serial_result.filter_rows(policy="NoRR"):
            # At the fresh (0 PEC, 0 mo) condition no read retries, so NoRR
            # ties the Baseline; under aging it must win outright.
            assert row["normalized_response_time"] <= 1.0
        aged = serial_result.filter_rows(policy="NoRR", workload="usr_1",
                                         pe_cycles=1000)
        assert aged and all(row["normalized_response_time"] < 1.0
                            for row in aged)

    def test_workload_classes(self, serial_result):
        assert all(row["class"] == "read-dominant"
                   for row in serial_result.filter_rows(workload="usr_1"))
        assert all(row["class"] == "write-dominant"
                   for row in serial_result.filter_rows(workload="stg_0"))

    def test_cell_accessor(self, serial_result):
        cell = serial_result.cell("usr_1", 1000, 6.0)
        assert set(cell) == set(POLICIES)
        assert cell["Baseline"].preconditioned_pe_cycles == 1000

    def test_to_grid_matches_legacy_layout(self, serial_result):
        grid = serial_result.to_grid()
        assert set(grid) == set(WORKLOADS)
        assert set(grid["usr_1"]) == {(0, 0.0), (1000, 6.0)}
        assert set(grid["usr_1"][(1000, 6.0)]) == set(POLICIES)

    def test_table_renders(self, serial_result):
        text = serial_result.table(max_rows=5)
        assert "normalized_response_time" in text
        assert "more rows" in text


class TestParallelEquality:
    def test_parallel_rows_bitwise_identical(self, tiny_config, serial_result):
        parallel = SweepRunner(config=tiny_config, processes=4).run(
            policies=POLICIES, workloads=WORKLOADS, conditions=CONDITIONS,
            num_requests=50)
        assert parallel.rows == serial_result.rows
        for key, cell in serial_result.cells.items():
            for policy, result in cell.items():
                other = parallel.cells[key][policy]
                # Histogram equality covers bucket counts, the exact count
                # and the compensated sum — i.e. the full recorder state.
                assert other.metrics.read_latency == \
                    result.metrics.read_latency
                assert other.metrics.summary() == result.metrics.summary()

    def test_rows_carry_tail_latency_columns(self, serial_result):
        for row in serial_result.rows:
            assert row["p999_response_us"] >= row["p99_response_us"] >= 0.0
        aged = serial_result.filter_rows(policy="Baseline", workload="usr_1",
                                         pe_cycles=1000)
        assert all(row["p99_response_us"] > row["mean_response_us"]
                   for row in aged)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="slabs are inherited only by forked workers")
class TestForkedWorkersInheritSlabs:
    def test_forked_workers_build_no_prefilled_slabs(self, tiny_config,
                                                     tmp_path, monkeypatch):
        log = tmp_path / "slab_builds.txt"
        build_slab = RetryStepGrid._build_slab

        def recording_build_slab(self, key):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {key[0]} {key[1]!r}\n")
            return build_slab(self, key)

        monkeypatch.setattr(RetryStepGrid, "_build_slab", recording_build_slab)
        sweep_conditions = CONDITIONS + ((2000, 12.0),)
        clear_shared_grids()
        try:
            SweepRunner(config=tiny_config, processes=2).run(
                policies=("Baseline", "PnAR2"), workloads=WORKLOADS,
                conditions=sweep_conditions, num_requests=50)
            fleet = FleetSpec(devices=4, config=tiny_config,
                              condition=Condition(1500, 3.0))
            FleetRunner(fleet, processes=2, shard_devices=2).run(
                WorkloadSpec(name="usr_1", num_requests=80, seed=3,
                             mean_interarrival_us=700.0),
                policies=("Baseline", "PnAR2"))
        finally:
            clear_shared_grids()
        prefilled = {(pe, float(months))
                     for pe, months in sweep_conditions + ((1500, 3.0),)}
        prefilled |= {(pe, 0.0) for pe, _ in prefilled}
        builds = [line.split() for line in log.read_text().splitlines()]
        parent = str(os.getpid())
        assert {(int(pe), float(months)) for pid, pe, months in builds
                if pid == parent} == prefilled
        # Workers only build the P/E levels their own GC creates mid-run;
        # every slab the parent prefilled before forking is inherited.
        worker_keys = {(int(pe), float(months)) for pid, pe, months in builds
                       if pid != parent}
        assert worker_keys and not worker_keys & prefilled


class TestStreamCache:
    def test_stream_reused_across_conditions(self, tiny_config):
        sweep_module._STREAM_CACHE.clear()
        stats = sweep_module._STREAM_CACHE_STATS
        before = dict(stats)
        SweepRunner(config=tiny_config, processes=1).run(
            policies=("NoRR",), workloads=("usr_1",),
            conditions=((0, 0.0), (1000, 6.0), (2000, 12.0)),
            num_requests=30)
        assert stats["misses"] - before["misses"] == 1
        assert stats["hits"] - before["hits"] == 2

    def test_per_cell_seeds_vary_streams(self, tiny_config):
        runner = SweepRunner(config=tiny_config, per_cell_seeds=True)
        result = runner.run(policies=("NoRR",), workloads=("usr_1",),
                            conditions=((0, 0.0), (1000, 6.0)),
                            num_requests=30)
        first = result.cell("usr_1", 0, 0.0)["NoRR"]
        second = result.cell("usr_1", 1000, 6.0)["NoRR"]
        assert first.metrics.read_latency != second.metrics.read_latency


class TestValidation:
    def test_rejects_empty_grid(self, tiny_config):
        runner = SweepRunner(config=tiny_config)
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=())
        with pytest.raises(ValueError):
            runner.run(policies=POLICIES, workloads=("usr_1",),
                       conditions=())

    def test_rejects_unknown_workload(self, tiny_config):
        with pytest.raises(KeyError):
            SweepRunner(config=tiny_config).run(
                policies=POLICIES, workloads=("not-a-workload",))

    def test_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            SweepRunner(processes=0)

    def test_duplicate_workload_labels_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="collide"):
            SweepRunner(config=tiny_config).run(
                policies=("NoRR",), workloads=("usr_1", "USR_1"))

    def test_distinct_synthetic_specs_get_distinct_cells(self, tiny_config):
        from repro.workloads.synthetic import WorkloadShape

        read_heavy = WorkloadSpec(shape=WorkloadShape(read_ratio=0.95),
                                  num_requests=30)
        write_heavy = WorkloadSpec(shape=WorkloadShape(read_ratio=0.10),
                                   num_requests=30)
        assert read_heavy.label != write_heavy.label
        result = SweepRunner(config=tiny_config).run(
            policies=("Baseline",), workloads=(read_heavy, write_heavy),
            conditions=((0, 0.0),))
        assert len(result.cells) == 2
        reads = [result.cell(spec.label, 0, 0.0)["Baseline"].metrics.host_reads
                 for spec in (read_heavy, write_heavy)]
        assert reads[0] > reads[1]

    def test_explicit_spec_keeps_its_own_fields(self, tiny_config):
        spec = WorkloadSpec(name="usr_1", num_requests=30,
                            mean_interarrival_us=300.0,
                            footprint_fraction=0.5)
        runner = SweepRunner(config=tiny_config, mean_interarrival_us=700.0)
        result = runner.run(policies=("NoRR",), workloads=(spec,),
                            conditions=((0, 0.0),))
        used = result.workloads[0]
        assert used.mean_interarrival_us == 300.0
        assert used.footprint_fraction == 0.5

    def test_workload_spec_objects_accepted(self, tiny_config):
        spec = WorkloadSpec(name="usr_1", num_requests=30, seed=2,
                            mean_interarrival_us=700.0)
        result = SweepRunner(config=tiny_config).run(
            policies=("NoRR",), workloads=(spec,),
            conditions=(Condition(0, 0.0),))
        assert result.cell("usr_1", 0, 0.0)["NoRR"].metrics.host_reads > 0


class TestFillFraction:
    def test_cell_honours_fill_fraction(self, tiny_config):
        from repro.sim import Simulation

        policies = ("Baseline", "PnAR2")
        sparse = Condition(1000, 6.0, fill_fraction=0.3)
        sweep = SweepRunner(config=tiny_config).run(
            policies=policies, workloads=("usr_1",), conditions=(sparse,),
            num_requests=60, seed=3)
        session = (Simulation(tiny_config)
                   .policies(policies)
                   .workload("usr_1", n=60, seed=3, mean_interarrival_us=700.0,
                             footprint_fraction=0.8)
                   .condition(pec=1000, months=6.0, fill=0.3)
                   .run())
        cell = sweep.cell("usr_1", 1000, 6.0)
        for policy in policies:
            expected = session[policy]
            got = cell[policy]
            assert got.policy_name == expected.policy_name
            assert got.config == expected.config
            assert got.preconditioned_pe_cycles == expected.preconditioned_pe_cycles
            assert (got.preconditioned_retention_months
                    == expected.preconditioned_retention_months)
            assert got.device_id == expected.device_id
            assert got.metrics.read_latency == expected.metrics.read_latency
            assert got.metrics.write_latency == expected.metrics.write_latency
            assert got.metrics.summary() == expected.metrics.summary()
        dense = SweepRunner(config=tiny_config).run(
            policies=policies, workloads=("usr_1",),
            conditions=(Condition(1000, 6.0),), num_requests=60, seed=3)
        assert (dense.cell("usr_1", 1000, 6.0)["Baseline"].metrics.summary()
                != cell["Baseline"].metrics.summary())

    def test_conditions_differing_only_in_fill_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="conditions collide"):
            SweepRunner(config=tiny_config).run(
                policies=("NoRR",), workloads=("usr_1",), num_requests=20,
                conditions=(Condition(1000, 6.0, fill_fraction=0.3),
                            Condition(1000, 6.0)))


def _echo_or_fail(payload):
    if payload == "fail":
        raise RuntimeError("payload failed")
    return payload * 2


class TestPoolMapOnResult:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_results_delivered_in_payload_order(self, processes):
        delivered = []
        results = sweep_module.pool_map(_echo_or_fail, [3, 1, 2, 5], processes,
                                        on_result=delivered.append)
        assert delivered == results == [6, 2, 4, 10]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_results_before_a_failure_already_delivered(self, processes):
        delivered = []
        with pytest.raises(RuntimeError, match="payload failed"):
            sweep_module.pool_map(_echo_or_fail, [1, 2, "fail", 4], processes,
                                  on_result=delivered.append)
        assert delivered == [2, 4]

    def test_reused_pool_keeps_order_across_calls(self):
        with sweep_module.WorkerPool(2) as pool:
            assert pool.pool_map(_echo_or_fail, [1, 2, 3]) == [2, 4, 6]
            delivered = []
            assert pool.pool_map(_echo_or_fail, [4, 5],
                                 on_result=delivered.append) == [8, 10]
            assert delivered == [8, 10]


class TestMainSmoke:
    def test_python_m_repro_entry_point(self, capsys):
        from repro.__main__ import main

        exit_code = main(["--workloads", "usr_1", "--requests", "40"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "normalized_response_time" in out
        assert "Baseline" in out
