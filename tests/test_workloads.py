"""Tests for the trace format and the synthetic workload generators."""

import io

import pytest

from repro.ssd.request import RequestKind
from repro.workloads import (
    SyntheticWorkload,
    WORKLOAD_CATALOG,
    WorkloadShape,
    catalog_workload,
    read_msrc_csv,
    records_to_requests,
    workload_names,
    write_msrc_csv,
)
from repro.workloads.catalog import (
    READ_DOMINANT_WORKLOADS,
    WRITE_DOMINANT_WORKLOADS,
    WorkloadSpec,
    table2_rows,
)
from repro.workloads.trace import TraceRecord


class TestTraceFormat:
    def test_csv_roundtrip(self):
        records = [
            TraceRecord(0.0, True, 0, 16 * 1024, hostname="stg", disk_number=0),
            TraceRecord(150.5, False, 32 * 1024, 64 * 1024, hostname="stg"),
        ]
        buffer = io.StringIO()
        assert write_msrc_csv(records, buffer) == 2
        buffer.seek(0)
        parsed = read_msrc_csv(buffer)
        assert len(parsed) == 2
        assert parsed[0].is_read and not parsed[1].is_read
        assert parsed[1].timestamp_us == pytest.approx(150.5)
        assert parsed[1].size_bytes == 64 * 1024

    def test_read_msrc_csv_max_records(self):
        buffer = io.StringIO("0,host,0,Read,0,4096\n10,host,0,Write,4096,4096\n")
        assert len(read_msrc_csv(buffer, max_records=1)) == 1

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            read_msrc_csv(io.StringIO("1,host,0,Read\n"))

    def test_records_to_requests_page_rounding(self):
        records = [TraceRecord(5.0, True, offset_bytes=10_000, size_bytes=20_000)]
        requests = records_to_requests(records, page_size_bytes=16 * 1024)
        assert len(requests) == 1
        assert requests[0].kind is RequestKind.READ
        assert requests[0].start_lpn == 0
        assert requests[0].page_count == 2

    def test_records_to_requests_wraps_logical_space(self):
        records = [TraceRecord(0.0, False, offset_bytes=10 * 16 * 1024,
                               size_bytes=16 * 1024)]
        requests = records_to_requests(records, logical_pages=4)
        assert requests[0].start_lpn == 2

    def test_record_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(-1.0, True, 0, 4096)
        with pytest.raises(ValueError):
            TraceRecord(0.0, True, 0, 0)


class TestSyntheticWorkload:
    def test_deterministic_per_seed(self):
        shape = WorkloadShape(read_ratio=0.8, cold_ratio=0.5)
        first = SyntheticWorkload(shape, 4096, seed=3).generate(100)
        second = SyntheticWorkload(shape, 4096, seed=3).generate(100)
        assert [(r.kind, r.start_lpn, r.page_count) for r in first] == \
               [(r.kind, r.start_lpn, r.page_count) for r in second]

    def test_arrivals_are_increasing(self):
        workload = SyntheticWorkload(WorkloadShape(), 4096, seed=1)
        requests = workload.generate(200)
        arrivals = [request.arrival_us for request in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0

    def test_addresses_stay_in_footprint(self):
        workload = SyntheticWorkload(WorkloadShape(read_ratio=0.5), 2048, seed=2)
        for request in workload.generate(500):
            assert 0 <= request.start_lpn < 2048
            assert request.start_lpn + request.page_count <= 2048

    def test_measured_ratios_track_shape(self):
        shape = WorkloadShape(read_ratio=0.9, cold_ratio=0.7,
                              mean_interarrival_us=100.0)
        workload = SyntheticWorkload(shape, 8192, seed=4)
        requests = workload.generate(3000)
        measured = workload.measured_ratios(requests)
        assert measured["read_ratio"] == pytest.approx(0.9, abs=0.05)
        assert measured["cold_ratio"] == pytest.approx(0.7, abs=0.12)

    def test_writes_never_touch_cold_region(self):
        shape = WorkloadShape(read_ratio=0.3, cold_ratio=0.5,
                              cold_region_fraction=0.6)
        workload = SyntheticWorkload(shape, 4096, seed=5)
        requests = workload.generate(1000)
        cold_limit = int(4096 * 0.6)
        for request in requests:
            if request.kind is RequestKind.WRITE:
                assert request.start_lpn >= cold_limit

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadShape(read_ratio=1.5)
        with pytest.raises(ValueError):
            WorkloadShape(mean_interarrival_us=0.0)
        with pytest.raises(ValueError):
            SyntheticWorkload(WorkloadShape(), footprint_pages=8)
        with pytest.raises(ValueError):
            SyntheticWorkload(WorkloadShape(), 4096).generate(0)

    def test_zipf_skews_towards_low_indexes(self):
        uniform = SyntheticWorkload(WorkloadShape(zipf_theta=0.0,
                                                  read_ratio=1.0), 8192, seed=6)
        skewed = SyntheticWorkload(WorkloadShape(zipf_theta=0.99,
                                                 read_ratio=1.0), 8192, seed=6)
        mean_uniform = sum(r.start_lpn for r in uniform.generate(800)) / 800
        mean_skewed = sum(r.start_lpn for r in skewed.generate(800)) / 800
        assert mean_skewed < mean_uniform


class TestCatalog:
    def test_twelve_workloads(self):
        assert len(workload_names()) == 12
        assert set(WRITE_DOMINANT_WORKLOADS) | set(READ_DOMINANT_WORKLOADS) == \
            set(workload_names())

    def test_table2_values_match_paper(self):
        assert WORKLOAD_CATALOG["stg_0"].read_ratio == 0.15
        assert WORKLOAD_CATALOG["stg_0"].cold_ratio == 0.38
        assert WORKLOAD_CATALOG["proj_1"].cold_ratio == 0.96
        assert WORKLOAD_CATALOG["YCSB-C"].read_ratio == 0.99
        assert WORKLOAD_CATALOG["YCSB-E"].scan_heavy

    def test_read_dominant_classification(self):
        assert not WORKLOAD_CATALOG["stg_0"].read_dominant
        assert not WORKLOAD_CATALOG["hm_0"].read_dominant
        assert WORKLOAD_CATALOG["prn_1"].read_dominant

    def test_generate_workload(self):
        requests = catalog_workload("YCSB-B", 4096, seed=1).generate(200)
        assert len(requests) == 200
        reads = sum(1 for request in requests
                    if request.kind is RequestKind.READ)
        assert reads / len(requests) > 0.9

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            catalog_workload("nope", 4096)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "OTHER", 0.5, 0.5)
        with pytest.raises(ValueError):
            WorkloadSpec("x", "MSRC", 1.5, 0.5)

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 12
        assert {"workload", "suite", "read_ratio", "cold_ratio", "class"} <= set(rows[0])
