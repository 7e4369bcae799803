"""Tests for the MSRC and YCSB generator presets."""

import pytest

from repro.ssd.request import RequestKind
from repro.workloads.msrc import msrc_shape
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.ycsb import ycsb_shape


class TestMsrcPreset:
    def test_shape_carries_ratios(self):
        shape = msrc_shape(read_ratio=0.36, cold_ratio=0.22)
        assert shape.read_ratio == 0.36
        assert shape.cold_ratio == 0.22
        assert shape.zipf_theta == 0.0
        assert shape.sequential_fraction > 0.2

    def test_generator_produces_multi_page_requests(self):
        workload = SyntheticWorkload(msrc_shape(0.75, 0.72),
                                     footprint_pages=4096, seed=1)
        requests = workload.generate(400)
        assert any(request.page_count > 1 for request in requests)

    def test_interarrival_override(self):
        workload = SyntheticWorkload(
            msrc_shape(0.9, 0.9, mean_interarrival_us=50.0),
            footprint_pages=4096, seed=1)
        requests = workload.generate(300)
        duration = requests[-1].arrival_us
        assert duration / len(requests) < 120.0


class TestYcsbPreset:
    def test_shape_is_skewed_and_small_requests(self):
        shape = ycsb_shape(read_ratio=0.99, cold_ratio=0.6)
        assert shape.zipf_theta == pytest.approx(0.99)
        assert shape.mean_request_pages < 2.0

    def test_scan_heavy_variant(self):
        shape = ycsb_shape(read_ratio=0.99, cold_ratio=0.98, scan_heavy=True)
        assert shape.mean_request_pages > 2.0
        assert shape.sequential_fraction >= 0.4

    def test_generator_is_read_dominated(self):
        workload = SyntheticWorkload(ycsb_shape(0.98, 0.72),
                                     footprint_pages=4096, seed=2)
        requests = workload.generate(500)
        reads = sum(1 for request in requests
                    if request.kind is RequestKind.READ)
        assert reads / len(requests) > 0.93

    def test_zipf_concentrates_accesses(self):
        workload = SyntheticWorkload(ycsb_shape(1.0, 0.0),
                                     footprint_pages=8192, seed=3)
        requests = workload.generate(800)
        # With theta ~ 0.99, a small fraction of pages receives a large share
        # of the accesses.
        counts = {}
        for request in requests:
            counts[request.start_lpn] = counts.get(request.start_lpn, 0) + 1
        top_share = sum(sorted(counts.values(), reverse=True)[:20]) / len(requests)
        assert top_share > 0.15
