"""Benchmark of the read-retry SSD simulator: one command, one workload.

    python3 perfbench/run.py --workload aged_read --seed 1 --seconds 10 --trace 0

Run from the repository root; the simulator is imported from ``src/``.  A
run re-runs the block-mode golden grid and the comparator's perturbation
self-test first, then timed rounds until ``--seconds`` of rounds are
measured.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it spends half the time on untraced
rounds and half on rounds traced layer by layer, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object; a full report goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from checks import diff_records, golden_preflight, perturbation_self_test
from tracer import RPT_SPAN, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "block_mode_golden.json"
MANIFEST = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("aged_read", "dftl_gc", "fleet_64", "sweep_grid")

#: Completed host requests between two host-speed probes (a few ms of work),
#: and probes taken before each set-up sample.
PROBE_EVERY = 200
PROBE_BURST = 5
#: Host time of :func:`probe_s` at the reference speed, a round figure
#: between its fastest (160 us) and median (220-255 us) times on a 2-vCPU
#: Intel Xeon sandbox with Python 3.11.  Host times are scaled to it.
PROBE_REFERENCE_S = 200e-6
#: Timed rounds at least: untraced runs, and each phase of a traced run.
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
#: No round starts that would likely end past this many seconds of run time.
DEADLINE_S = 150.0

#: (name, unit, meaning) of every end-to-end metric, in report order.
END_TO_END = (
    ("sim_req_per_s", "req/s", "host requests simulated per host second (timed phase, speed-scaled)"),
    ("setup_s", "s", "host set-up before the first simulated request (speed-scaled median)"),
    ("peak_rss_mib", "MiB", "peak resident set of the benchmark process"),
    ("completed_ratio", "fraction", "completed host requests over issued (1 - failed_ratio)"),
    ("sim_read_mean_us", "us", "simulated PnAR2 mean read response time"),
)

#: Units of the modelled-device counters in the traced report.
COUNTER_UNITS = {
    "ssd.retry_grid.grid_hit_ratio": "fraction",
    "ssd.flash_backend.batched_ratio": "fraction",
    "ssd.dftl.gc_invocations": "count",
    "ssd.dftl.write_amplification": "ratio",
    "ssd.dftl.cmt_hit_ratio": "fraction",
    "ssd.dftl.translation_reads": "count",
    "device.mean_retry_steps": "steps",
    "device.die_utilization": "fraction",
    "device.reduced_timing_fallbacks": "count",
}

#: The paper's average PnAR2 response-time reduction, printed beside the
#: measured one as a reference, not as a target.
PAPER_PNAR2_REDUCTION = 0.289


@dataclass
class Round:
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    #: Median host time of the speed probe over the round.
    probe_s: float = PROBE_REFERENCE_S
    #: The workload's checked outcome (``None`` when the round raised).
    outcome: object = None
    error: Optional[str] = None

    @property
    def scaled_run_s(self) -> float:
        """The timed phase's host time at the reference host's speed."""
        return self.run_s * PROBE_REFERENCE_S / self.probe_s


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_fingerprint() -> Dict[str, object]:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_s(iterations: int = 5000) -> float:
    """Host time of a fixed pure-Python loop, about 0.2 ms.

    The loop runs none of the program's code, so it is the same on every
    commit and measures only how fast the host runs Python at that moment.
    """
    total = 0
    started = time.perf_counter()
    for index in range(iterations):
        total += index
    return time.perf_counter() - started


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """Runs the rounds of one workload and keeps what they measured."""

    def __init__(self, workload, started: float):
        from repro.characterization.rpt_builder import build_rpt
        from repro.ssd.retry_grid import clear_shared_grids

        self.workload = workload
        self.started = started
        self.build_rpt = build_rpt
        self.clear_shared_grids = clear_shared_grids
        self.setup_samples: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference = None
        self.probes: List[float] = []
        self._completions = 0
        self._probing_s = 0.0
        self._patched = []
        self._install_probes()

    def _install_probes(self) -> None:
        """Probe the host speed throughout the timed phase.

        A probe runs after every ``PROBE_EVERY`` completed host requests and
        after every simulator run (a device of the fleet, a policy of a sweep
        cell or of a single device), so the probes sample the same moments
        as the work they scale.  The wrappers add a counter increment to each
        completion; they stay installed for every round.
        """
        from repro.ssd.controller import SsdSimulator
        from repro.ssd.metrics import SimulationMetrics

        def after_run(original):
            def run(simulator, *args, **kwargs):
                result = original(simulator, *args, **kwargs)
                self.probe()
                return result

            return run

        def after_completion(original):
            def record(metrics, *args, **kwargs):
                original(metrics, *args, **kwargs)
                self._completions += 1
                if self._completions % PROBE_EVERY == 0:
                    self.probe()

            return record

        for owner, attribute, wrap in (
            (SsdSimulator, "run", after_run),
            (SimulationMetrics, "record_read", after_completion),
            (SimulationMetrics, "record_write", after_completion),
        ):
            original = vars(owner)[attribute]
            setattr(owner, attribute, wrap(original))
            self._patched.append((owner, attribute, original))

    def probe(self) -> None:
        """Sample the host speed; the probe's own time is kept out of run_s."""
        started = time.perf_counter()
        self.probes.append(probe_s())
        self._probing_s += time.perf_counter() - started

    def close(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _set_up(self, tracer=None):
        # Cold set-up: process-wide retry grids are dropped and the RPT is
        # rebuilt, as in a fresh process.
        self.clear_shared_grids()
        self.probes = [probe_s() for _ in range(PROBE_BURST)]
        started = time.perf_counter()
        with tracer.span(RPT_SPAN) if tracer else nullcontext():
            rpt = self.build_rpt()
        state = self.workload.setup(rpt)
        return state, time.perf_counter() - started

    def round(self, tracer=None, label: str = "") -> Round:
        if tracer is not None:
            tracer.begin_round(label)
        result = Round()
        started = time.perf_counter()
        state = raw = None
        try:
            state, result.setup_s = self._set_up(tracer)
            self._completions = 0
            self._probing_s = 0.0
            run_started = time.perf_counter()
            raw = self.workload.run(state)
            result.run_s = time.perf_counter() - run_started - self._probing_s
            result.probe_s = median(self.probes)
        except Exception:  # a run that raises is counted as failed, not fatal
            result.error = traceback.format_exc()
            print(result.error, file=sys.stderr)
        finally:
            result.wall_s = tracer.end_round() if tracer is not None else time.perf_counter() - started
        self.attempted += self.workload.expected_per_round
        if result.error is not None:
            self.failed += self.workload.expected_per_round
            self.problems.append(f"{label}: raised {result.error.strip().splitlines()[-1]}")
            return result
        outcome = result.outcome = self.workload.inspect(state, raw)
        self.failed += max(0, outcome.expected - outcome.completed)
        self.problems.extend(f"{label}: {problem}" for problem in outcome.problems)
        if self.reference is None:
            self.reference = outcome
        else:
            self.problems.extend(
                f"{label}: differs from the first round at {difference}"
                for difference in diff_records(self.reference.records, outcome.records)
            )
        return result

    def rounds(self, seconds: float, minimum: int, tracer=None, phase: str = "") -> List[Round]:
        """Timed rounds for ``seconds``; untraced ones follow a set-up-only sample."""
        done: List[Round] = []
        measured = 0.0
        while measured < seconds or len(done) < minimum:
            longest = max((r.wall_s for r in done), default=0.0)
            if time.perf_counter() - self.started + 1.5 * longest > DEADLINE_S:
                break
            if tracer is None:
                setup_s = self._set_up()[1]
                self.setup_samples.append(setup_s * PROBE_REFERENCE_S / median(self.probes))
            result = self.round(tracer, f"{phase}{len(done)}")
            if tracer is None and result.error is None:
                self.setup_samples.append(result.setup_s * PROBE_REFERENCE_S / result.probe_s)
            done.append(result)
            measured += result.wall_s
        return done


def end_to_end_metrics(bench: Bench, timed: List[Round]) -> Dict[str, float]:
    sim = bench.reference.sim if bench.reference is not None else {}
    run_s = median([r.scaled_run_s for r in timed if r.error is None])
    attempted = max(bench.attempted, 1)
    return {
        "sim_req_per_s": bench.workload.requests_per_round / run_s if run_s else 0.0,
        "setup_s": median(bench.setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_ratio": (attempted - bench.failed) / attempted,
        "sim_read_mean_us": sim.get("sim_read_mean_us", 0.0),
    }


def per_layer_metrics(bench: Bench, tracer: Tracer, untraced: List[Round], traced: List[Round]) -> dict:
    traced_total = sum(r.wall_s for r in traced)
    rounds = max(len(traced), 1)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": tracer.calls[name] / rounds, "unit": "count"}
        metrics[f"{name}.self_frac"] = {
            "value": tracer.self_s[name] / traced_total if traced_total else 0.0,
            "unit": "fraction",
        }
    events = tracer.engine_events / rounds
    untraced_run = median([r.scaled_run_s for r in untraced if r.error is None])
    metrics["ssd.engine.events"] = {"value": events, "unit": "count"}
    metrics["ssd.engine.events_per_s"] = {
        "value": events / untraced_run if untraced_run else 0.0,
        "unit": "1/s",
    }
    counters = bench.reference.counters if bench.reference is not None else {}
    for name, unit in COUNTER_UNITS.items():
        metrics[name] = {"value": counters.get(name, 0.0), "unit": unit}
    untraced_wall = median([r.wall_s for r in untraced if r.error is None])
    traced_wall = median([r.wall_s for r in traced if r.error is None])
    metrics["untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["tracing_overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics


def manifest_problems(metrics: dict, trace: int) -> List[str]:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    if not MANIFEST.is_file():
        return []
    declared = json.loads(MANIFEST.read_text())["per_layer" if trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in declared}
    printed = {name: entry["unit"] for name, entry in metrics.items()}
    if printed == expected:
        return []
    return [f"printed metrics differ from {MANIFEST.name}: {sorted(set(printed) ^ set(expected))}"]


def print_layer_table(tracer: Tracer, traced: List[Round]) -> List[dict]:
    traced_total = sum(r.wall_s for r in traced)
    rounds = max(len(traced), 1)
    print(f"\nper-layer self time, {len(traced)} traced rounds ({traced_total:.3f} s traced wall):")
    print(f"  {'layer':42s} {'calls/round':>12s} {'self s/round':>13s} {'share':>7s}")
    rows = []
    for name in SPAN_NAMES:
        share = tracer.self_s[name] / traced_total if traced_total else 0.0
        rows.append({"layer": name, "calls": tracer.calls[name], "self_s": tracer.self_s[name], "share": share})
        if tracer.calls[name]:
            print(
                f"  {name:42s} {tracer.calls[name] / rounds:12.0f} "
                f"{tracer.self_s[name] / rounds:13.4f} {share:7.1%}"
            )
    total = sum(tracer.self_s.values())
    if traced_total:
        print(f"  {'sum of self times':42s} {'':12s} {total / rounds:13.4f} {total / traced_total:7.1%}")
    if tracer.missing:
        print(f"  not traced (absent from this version of the program): {', '.join(tracer.missing)}")
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {SOURCE}: {error}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"perfbench: golden fixture {GOLDEN} is missing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    fingerprint = host_fingerprint()
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}\n"
        f"host: {fingerprint['cpu_model']} | {fingerprint['cores']} cores | "
        f"Python {fingerprint['python']} | numpy {fingerprint['numpy']} | processes=1"
    )
    try:
        golden_problems, fresh = golden_preflight(GOLDEN)
    except Exception:  # a broken program is reported, not fatal
        golden_problems = [f"golden grid raised {traceback.format_exc().strip().splitlines()[-1]}"]
        fresh = {"rows": {"fallback": {"mean_response_us": 1.5}}}
    self_test_ok, self_test_note = perturbation_self_test(fresh)
    print(
        f"preflight: golden grid {'bitwise identical' if not golden_problems else 'DIFFERS'}; "
        f"self-test: {self_test_note}"
    )

    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(workload, started)
    bench.problems.extend(golden_problems)
    if not self_test_ok:
        bench.problems.append(f"self-test: {self_test_note}")
    traced: List[Round] = []
    tracer = None
    try:
        if args.trace:
            timed = bench.rounds(args.seconds / 2, MIN_TRACE_ROUNDS, phase="untraced")
            tracer = Tracer()
            tracer.install()
            try:
                traced = bench.rounds(args.seconds / 2, MIN_TRACE_ROUNDS, tracer, phase="traced")
            finally:
                tracer.uninstall()
        else:
            timed = bench.rounds(args.seconds, MIN_ROUNDS)
    finally:
        bench.close()

    end_to_end = end_to_end_metrics(bench, timed)
    sim = bench.reference.sim if bench.reference is not None else {}
    ok_runs = [r.run_s for r in timed if r.error is None]
    print(
        f"rounds: {len(timed)} timed"
        + (f" + {len(traced)} traced" if args.trace else "")
        + f"; {workload.requests_per_round} host requests per round; "
        f"{len(bench.setup_samples)} set-up samples"
    )
    print(f"\n  {'metric':22s} {'value':>14s}  {'unit':9s} meaning")
    for name, unit, meaning in END_TO_END:
        print(f"  {name:22s} {end_to_end[name]:14.4f}  {unit:9s} {meaning}")
    if ok_runs:
        print(
            f"  (unscaled: median {workload.requests_per_round / median(ok_runs):.0f} req/s, "
            f"range {workload.requests_per_round / max(ok_runs):.0f}"
            f"-{workload.requests_per_round / min(ok_runs):.0f} req/s; speed probe median "
            f"{median([r.probe_s for r in timed if r.error is None]) * 1e6:.1f} us, "
            f"reference {PROBE_REFERENCE_S * 1e6:.0f} us)"
        )
    if sim:
        samples = sim["sim_read_samples"]
        for name in ("sim_read_p99_us", "sim_read_p999_us"):
            print(f"  {name:22s} {sim[name]:14.4f}  {'us':9s} simulated PnAR2 read tail (printed only)")
        print(
            f"  PnAR2 read samples per round: {samples} ({samples // 100} beyond p99, "
            f"{samples // 1000} beyond p999)"
        )
        if "pnar2_read_reduction" in sim:
            print(
                f"  {'pnar2_read_reduction':22s} {sim['pnar2_read_reduction']:14.4f}  {'fraction':9s} "
                "1 - PnAR2/Baseline simulated mean read (printed only)\n"
                f"  paper reference: PnAR2 cuts response time by {PAPER_PNAR2_REDUCTION:.1%} on "
                "average (a reference, not a target; the model is not validated against hardware)"
            )
    print(
        f"  failures: {bench.failed} of {bench.attempted} issued host requests did not complete "
        f"(failed_ratio {bench.failed / max(bench.attempted, 1):.4f})"
    )

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "end_to_end": end_to_end,
        "simulated": sim,
        "rounds": [
            {
                "setup_s": r.setup_s,
                "run_s": r.run_s,
                "probe_s": r.probe_s,
                "wall_s": r.wall_s,
                "host_side": r.outcome.host if r.outcome else {},
                "failed": r.error is not None,
            }
            for r in timed
        ],
        "setup_samples_s": bench.setup_samples,
    }
    if args.trace:
        metrics = per_layer_metrics(bench, tracer, timed, traced)
        report["layers"] = print_layer_table(tracer, traced)
        report["missing_trace_targets"] = tracer.missing
        report["traced_rounds"] = [{"wall_s": r.wall_s, "failed": r.error is not None} for r in traced]
        shard_s = [r.outcome.host["sim.fleet.shard_elapsed_s"] for r in traced if r.outcome and r.outcome.host]
        if shard_s:
            print(f"  sim.fleet shard elapsed_s (the runner's own timer), traced rounds: {shard_s}")
        print(
            f"  tracing overhead: {metrics['tracing_overhead_s']['value']:.3f} s per round "
            f"(traced {metrics['traced_wall_s']['value']:.3f} s - "
            f"untraced {metrics['untraced_wall_s']['value']:.3f} s)"
        )
        tracer.write_chrome_trace(
            OUT / f"{args.workload}-seed{args.seed}.trace.json",
            {"workload": args.workload, "seed": args.seed, "host": fingerprint},
        )
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in end_to_end.items()}
    bench.problems.extend(manifest_problems(metrics, args.trace))
    report["metrics"] = metrics
    report["problems"] = bench.problems

    correct = not bench.problems and bench.failed == 0
    for problem in bench.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(bench.problems) > 20:
        print(f"  ... and {len(bench.problems) - 20} more check failures")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
