#!/usr/bin/env python3
"""Replay an MSRC-format block trace on the simulated SSD — streaming.

Demonstrates the streaming trace substrate: the example first synthesizes a
trace file in the MSRC CSV layout (the same layout the public enterprise
traces use), so the script is self-contained, then replays it through the
iterator-based reader — CSV rows flow through
``iter_msrc_csv -> iter_records_to_requests -> SsdSimulator.run`` one
request at a time, so the trace is never materialized in memory and the
same command handles a million-line file.  Each policy re-opens the file
via a stream factory, and the fixed-memory histogram recorder reports the
latency tail (p50/p99/p999) alongside the mean.

Point ``--trace`` at a real MSRC CSV file to replay it instead.

Usage::

    python examples/trace_replay.py [--trace FILE] [--requests N]
"""

import argparse
import os
import tempfile

from repro.sim import Simulation
from repro.ssd.config import SsdConfig
from repro.workloads import (
    catalog_workload,
    iter_msrc_csv,
    iter_records_to_requests,
    write_msrc_csv,
)
from repro.workloads.trace import TraceRecord


def synthesize_trace(path: str, num_requests: int, page_size: int) -> None:
    """Stream a prn_1-like request sequence into an MSRC CSV file."""
    records = (TraceRecord(timestamp_us=request.arrival_us,
                           is_read=request.is_read,
                           offset_bytes=request.start_lpn * page_size,
                           size_bytes=request.page_count * page_size,
                           hostname="prn", disk_number=1)
               for request in catalog_workload(
                   "prn_1", 8192, seed=11).iter_requests(num_requests))
    write_msrc_csv(records, path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=str, default=None,
                        help="MSRC CSV trace to replay (synthesized if omitted)")
    parser.add_argument("--requests", type=int, default=500,
                        help="max requests to replay (and to synthesize)")
    parser.add_argument("--pe-cycles", type=int, default=1000)
    parser.add_argument("--retention-months", type=float, default=6.0)
    args = parser.parse_args()

    config = SsdConfig.scaled(blocks_per_plane=24, pages_per_block=48)
    page_size = config.page_size_kib * 1024

    trace_path = args.trace
    synthesized = False
    if trace_path is None:
        handle, trace_path = tempfile.mkstemp(suffix=".csv", prefix="msrc_")
        os.close(handle)
        synthesize_trace(trace_path, args.requests, page_size)
        synthesized = True
        print(f"Synthesized an MSRC-format trace at {trace_path}")

    def request_stream():
        # Re-opened per policy: CSV rows stream straight into the simulator
        # through the bounded-lookahead pump, one request in memory at a time.
        return iter_records_to_requests(
            iter_msrc_csv(trace_path, max_records=args.requests),
            page_size_bytes=page_size,
            logical_pages=config.logical_pages)

    run = (Simulation(config)
           .policies("Baseline", "PnAR2")
           .stream(request_stream)
           # Real multi-disk captures can be locally out of timestamp
           # order; a generous pump window absorbs that while still keeping
           # memory O(window).  Sort heavily-shuffled traces once offline.
           .lookahead(4096)
           .condition(pec=args.pe_cycles, months=args.retention_months)
           .run())
    first = next(iter(run.results.values()))
    replayed = first.metrics.host_reads + first.metrics.host_writes
    print(f"Replayed {replayed} requests per policy "
          "(streaming, trace never materialized)")
    for policy, result in run:
        metrics = result.metrics
        combined = metrics.latency("all")  # one merge serves all percentiles
        print(f"  {policy:<9} mean "
              f"{metrics.mean_response_time_us():8.1f} us | "
              f"p50 {combined.percentile(50.0):8.1f} us | "
              f"p99 {combined.p99():8.1f} us | "
              f"p999 {combined.p999():8.1f} us | "
              f"mean retry steps {metrics.mean_retry_steps():.1f}")

    if synthesized:
        os.unlink(trace_path)


if __name__ == "__main__":
    main()
