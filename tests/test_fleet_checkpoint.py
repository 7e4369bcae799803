"""Fleet checkpoint/resume and serial == sharded-parallel equivalence.

Covers the rack-scale execution path: sharded runs checkpoint per-shard
device metrics and resume bitwise-identically; corrupted checkpoint entries
are detected (payload digest) and recomputed rather than trusted; the parent
prefills every device condition's slabs before forking, publishes nothing in
shared memory and leaves no worker behind when one crashes; and a sharded
parallel run matches the serial run row for row.
"""

import json
import logging
import multiprocessing
import os

import pytest

from repro.experiments.store import CheckpointStore
from repro.sim.fleet import (
    FLEET_SHARD_KIND,
    PROBE_TRAIL_KIND,
    FleetRunner,
    FleetSpec,
    SloCapacitySearch,
)
from repro.core.rpt import ReadTimingParameterTable
from repro.sim.spec import Condition, WorkloadSpec
from repro.ssd.config import SsdConfig
from repro.ssd.retry_grid import clear_shared_grids, prefill_shared_grid, shared_grid

CONFIG = SsdConfig.tiny()


def _workload(n=120, seed=3, interarrival=700.0):
    return WorkloadSpec(name="usr_1", num_requests=n, seed=seed,
                        mean_interarrival_us=interarrival)


def _fleet(devices=4):
    return FleetSpec(devices=devices, config=CONFIG, condition=Condition(1000, 6.0))


def _rows(run_result):
    return run_result.result.device_rows()


# -- checkpoint/resume ---------------------------------------------------------
class TestCheckpointResume:
    def test_uncheckpointed_and_checkpointed_runs_match(self, tmp_path):
        reference = FleetRunner(_fleet(), shard_devices=2).run(_workload())
        stored = FleetRunner(_fleet(), shard_devices=2, checkpoint=str(tmp_path)).run(_workload())
        assert _rows(stored) == _rows(reference)
        assert stored.result.p99() == reference.result.p99()
        assert stored.manifest["checkpoints"] == {"hits": 0, "stored": 2}

    def test_interrupted_run_resumes_bitwise_identical(self, tmp_path, caplog):
        reference = FleetRunner(_fleet(), shard_devices=1).run(_workload())
        store = CheckpointStore(tmp_path)
        FleetRunner(_fleet(), shard_devices=1, checkpoint=store).run(_workload())
        # Simulate a SIGKILL mid-run: only some shard checkpoints survive.
        entries = sorted(store.entries(FLEET_SHARD_KIND))
        assert len(entries) == 4
        for path in entries[:2]:
            path.unlink()
        with caplog.at_level(logging.INFO, logger="repro.sim.fleet"):
            resumed = FleetRunner(_fleet(), shard_devices=1, checkpoint=store).run(_workload())
        assert resumed.manifest["checkpoints"]["hits"] == 2
        assert resumed.manifest["checkpoints"]["stored"] == 2
        served = [record for record in caplog.records
                  if "served from checkpoint" in record.getMessage()]
        assert len(served) == 2
        # Bitwise equality with the never-checkpointed reference.
        assert _rows(resumed) == _rows(reference)
        assert resumed.result.p99() == reference.result.p99()
        assert resumed.result.mean_response_us() == reference.result.mean_response_us()
        flags = [timing.from_checkpoint for timing in resumed.result.shard_timings]
        assert flags.count(True) == 2 and flags.count(False) == 2

    def test_corrupt_checkpoint_is_detected_and_recomputed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(), shard_devices=2, checkpoint=store)
        reference = runner.run(_workload())
        assert reference.manifest["checkpoints"] == {"hits": 0, "stored": 2}
        # Tamper with one entry but keep it valid JSON: the embedded digest
        # no longer matches, so the load must miss instead of trusting it.
        path = sorted(store.entries(FLEET_SHARD_KIND))[0]
        document = json.loads(path.read_text())
        document["payload"]["devices"] = [999]
        path.write_text(json.dumps(document))
        resumed = FleetRunner(_fleet(), shard_devices=2, checkpoint=store).run(_workload())
        assert resumed.manifest["checkpoints"] == {"hits": 1, "stored": 1}
        assert _rows(resumed) == _rows(reference)

    def test_torn_checkpoint_write_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store)
        reference = runner.run(_workload(60))
        path = sorted(store.entries(FLEET_SHARD_KIND))[0]
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        resumed = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60))
        assert resumed.manifest["checkpoints"] == {"hits": 0, "stored": 1}
        assert _rows(resumed) == _rows(reference)

    def test_different_workload_never_hits_anothers_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path)
        FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60, seed=1))
        other = FleetRunner(_fleet(2), shard_devices=2, checkpoint=store).run(_workload(60, seed=2))
        assert other.manifest["checkpoints"]["hits"] == 0


# -- capacity-search probe trail -----------------------------------------------
class TestCapacitySearchResume:
    def test_probe_trail_replays_and_matches(self, tmp_path, caplog):
        spec = _fleet(2)

        def search(checkpoint):
            runner = FleetRunner(spec, shard_devices=1, checkpoint=checkpoint)
            return SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.2,
                                     max_probes=4).find(_workload(60), policy="Baseline")

        reference = search(None)
        first = search(CheckpointStore(tmp_path))
        with caplog.at_level(logging.INFO, logger="repro.sim.fleet"):
            resumed = search(CheckpointStore(tmp_path))
        assert any("served from checkpoint" in record.getMessage()
                   for record in caplog.records)
        for result in (first, resumed):
            assert result.probe_rows() == reference.probe_rows()
            assert result.max_rate_rps == reference.max_rate_rps
            assert result.converged == reference.converged
        # The replayed search still materializes the winning fleet result.
        if reference.fleet is not None:
            assert resumed.fleet is not None
            assert resumed.fleet.device_rows() == reference.fleet.device_rows()

    def test_trail_is_stored_under_its_own_kind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        runner = FleetRunner(_fleet(2), shard_devices=1, checkpoint=store)
        SloCapacitySearch(runner, target_p99_us=4000.0, tolerance=0.2,
                          max_probes=3).find(_workload(60))
        assert store.entries(PROBE_TRAIL_KIND)


# -- worker slabs: prefilled in the parent, inherited by forked workers -------
def _crashing_device(payload):
    raise RuntimeError("worker crashed mid-shard")


class TestWorkerSlabs:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform")
    def test_parallel_run_publishes_no_shared_memory(self):
        before = set(os.listdir("/dev/shm"))
        FleetRunner(_fleet(2), processes=2, shard_devices=2).run(_workload(60))
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_use_shared_memory_is_ignored(self):
        on = FleetRunner(_fleet(2), processes=2, shard_devices=2,
                         use_shared_memory=True).run(_workload(60))
        off = FleetRunner(_fleet(2), processes=2, shard_devices=2,
                          use_shared_memory=False).run(_workload(60))
        assert _rows(on) == _rows(off)
        assert on.manifest == off.manifest
        assert "slab_transport" not in on.manifest

    def test_parent_prefills_every_device_condition(self):
        conditions = (Condition(1000, 6.0), Condition(2000, 12.0),
                      Condition(1000, 6.0), Condition(500, 1.0))
        fleet = FleetSpec(devices=4, config=CONFIG, device_conditions=conditions)
        rpt = ReadTimingParameterTable.default()
        clear_shared_grids()
        try:
            FleetRunner(fleet, processes=2, shard_devices=2).run(_workload(60))
            grid = shared_grid(CONFIG, rpt)
            builds = grid.slab_builds
            # Nothing left to build: the run already held every slab its
            # devices read before the pool forked its workers.
            prefill_shared_grid(CONFIG, rpt, conditions)
            assert grid.slab_builds == builds
        finally:
            clear_shared_grids()

    def test_crashed_worker_leaves_no_children(self, monkeypatch):
        monkeypatch.setattr("repro.sim.fleet._run_fleet_device", _crashing_device)
        with pytest.raises(RuntimeError, match="worker crashed"):
            FleetRunner(_fleet(2), processes=2, shard_devices=2).run(_workload(60))
        assert multiprocessing.active_children() == []


# -- serial == sharded parallel ------------------------------------------------
class TestExecutionEquivalence:
    def test_serial_matches_sharded_parallel(self):
        serial = FleetRunner(_fleet(), shard_devices=4, processes=1).run(_workload())
        parallel = FleetRunner(_fleet(), shard_devices=2, processes=2).run(_workload())
        assert _rows(serial) == _rows(parallel)
        assert serial.result.p99() == parallel.result.p99()
        assert serial.result.mean_response_us() == parallel.result.mean_response_us()

    def test_shard_size_does_not_change_results(self):
        coarse = FleetRunner(_fleet(), shard_devices=64).run(_workload())
        fine = FleetRunner(_fleet(), shard_devices=1).run(_workload())
        assert _rows(coarse) == _rows(fine)
        assert len(coarse.result.shard_timings) == 1
        assert len(fine.result.shard_timings) == 4

    def test_uneven_chunks_and_resume_match_serial(self, tmp_path):
        # 13 devices in shards of 5 (5, 5, 3) split over three workers gives
        # chunks of uneven size, including single-device chunks.
        fleet = FleetSpec(devices=13, replication=2, config=CONFIG,
                          condition=Condition(1000, 6.0))
        workload = _workload(200)
        serial = FleetRunner(fleet, shard_devices=5).run(workload)
        parallel = FleetRunner(fleet, shard_devices=5, processes=3).run(workload)
        store = CheckpointStore(tmp_path)
        FleetRunner(fleet, shard_devices=5, checkpoint=store).run(workload)
        documents = [json.loads(path.read_text())
                     for path in sorted(store.entries(FLEET_SHARD_KIND))]
        # The checkpoint key keeps its shape: one entry per shard of devices.
        assert {tuple(sorted(document["params"])) for document in documents} == {
            ("devices", "faults", "fleet", "lookahead", "policy", "rpt", "schema",
             "shard", "source")}
        assert sorted(document["params"]["devices"] for document in documents) == [
            [0, 5], [5, 10], [10, 13]]
        for path in sorted(store.entries(FLEET_SHARD_KIND))[:2]:
            path.unlink()
        resumed = FleetRunner(fleet, shard_devices=5, processes=3,
                              checkpoint=store).run(workload)
        assert resumed.manifest["checkpoints"] == {"hits": 1, "stored": 2}
        assert [row["device"] for row in _rows(serial)] == list(range(13))
        for other in (parallel, resumed):
            assert _rows(other) == _rows(serial)
            assert other.result.p99() == serial.result.p99()
            assert other.result.mean_response_us() == serial.result.mean_response_us()
