"""The repository benchmark: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each request sequence is a pure function of workload and
seed, generated before timing starts):

``admit_churn``
    In-process admission service on the 25 %-load Fig. 13/14 schedule,
    closed loop; the fast path decides nearly everything.
``admit_saturated``
    The same mix on the 75 %-load schedule; about one decision in eight
    falls through to the full re-solve, which dominates the wall time.
``frontend_mixed``
    The 2-shard socket cluster (``repro frontend serve --cluster``)
    driven open loop at a nominal rate, then closed loop for its
    capacity, with accepted admits, removes and rejects.
``fig14_sim``
    Schedule -> GCL -> simulation for E-TSN, PERIOD and AVB at 50 % load.

End-to-end metrics (``--trace 0``) carry one name per quantity on every
workload, since every run must print all of them; the workload's own
names (``decisions_per_s``, ``rtt_p99_ms``, ``capacity_rps``, ...) are
printed on stderr:

``throughput_per_s``
    decisions/s (admit_*), the capacity: median over closed-loop
    windows of the answered requests per second (frontend_mixed),
    simulated events per host second over schedule + GCL + simulation
    (fig14_sim).
``latency_p50_ms``
    median decision time (admit_*); median over one-second windows of
    each window's median round trip at the nominal rate
    (frontend_mixed); median time of one pass, schedule -> GCL ->
    simulation for all three methods (fig14_sim).
``latency_tail_ms``
    p99 decision time (admit_*); the same windowed median of each
    window's p90 round trip (frontend_mixed), whose p99 moved by more
    than 2x from run to run with host stalls; p90 of the pass times
    (fig14_sim).
``setup_s``
    median of five (fig14_sim: nine) set-ups: base workload and
    schedule, service or server start, pre-population (the offered
    request sequence is generated separately and not counted).
``peak_rss_mb``
    peak RSS of this process (admit_*: after the first timed trial, as
    later trials add only the benchmark's own samples), or of the
    server child (frontend_mixed).

Every timing behind these metrics but frontend_mixed's round trips, and
every set-up, is scaled to a reference host speed measured alongside the
work (:mod:`perfbench.host`; frontend_mixed runs pinned to one CPU and
samples that CPU, see :mod:`perfbench.frontend`): the shared host this
was tuned on slowed identical work by up to 2x for minutes at a time,
which no statistic over a run's own timings removes.  The raw figures
and the host's speed factor are on stderr.

Failures (exceptions, ``server_busy``, transport errors, unanswered
requests) are the result's ``failed`` out of ``attempted``; a reject
verdict is not a failure.

``--trace 1`` makes a separate traced run and prints the per-layer
metrics instead; a layer a workload does not exercise reports 0.  The
result is the last line of stdout, one JSON object; a human-readable
report with each workload's own metric names, sample counts and
correctness verdict goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("admit_churn", "admit_saturated", "frontend_mixed", "fig14_sim")

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    # service (admission, store)
    "service.submit.self_ms": "ms",
    "service.publish.calls": "count",
    "service.publish.ms": "ms",
    "service.decisions.fastpath": "count",
    "service.decisions.incremental": "count",
    "service.decisions.full": "count",
    "service.decisions.heuristic": "count",
    "service.decisions.rejected": "count",
    # service.fastpath
    "fastpath.evaluate.calls": "count",
    "fastpath.evaluate.self_ms": "ms",
    "fastpath.conclusive_ratio": "ratio",
    # core.incremental, core.schedule, core.heuristic (re-solve rungs)
    "incremental.place.calls": "count",
    "incremental.place.ms": "ms",
    "schedule.validate_delta.calls": "count",
    "schedule.validate_delta.ms": "ms",
    "resolve.calls": "count",
    "resolve.ms": "ms",
    "resolve.success_ratio": "ratio",
    # cluster (coordinator, twophase), from the server's export
    "cluster.cross_frac": "ratio",
    "cluster.twophase.aborts": "count",
    "cluster.shard_batch_ms.p50": "ms",
    "cluster.cross_ms.p50": "ms",
    # frontend (server, cache), from the server's export
    "frontend.queue_wait_ms.p50": "ms",
    "frontend.queue_wait_ms.p99": "ms",
    "frontend.batch_ms.p50": "ms",
    "frontend.batch_size.mean": "count",
    "frontend.cache_hit_ratio": "ratio",
    "frontend.busy": "count",
    # client side of frontend.protocol
    "client.encode_us": "us",
    "client.decode_us": "us",
    "client.gen_late_ms": "ms",
    # core.baselines, core.gcl, sim
    "baselines.build_schedule_ms": "ms",
    "gcl.build_ms": "ms",
    "sim.build_ms": "ms",
    "sim.run_ms": "ms",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    # every workload
    "traced_wall_ms": "ms",
    "unattributed_ms": "ms",
    "trace_overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import frontend, inproc, simwork

    if name == "frontend_mixed":
        return frontend.run(ROOT, seed, seconds, trace)
    if name == "fig14_sim":
        return simwork.run(seed, seconds, trace)
    return inproc.run(name, seed, seconds, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.result import own_peak_rss_mb

    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)

    if trace:
        units = PER_LAYER
        values = {name: outcome.metrics.get(name, 0) for name in units}
    else:
        units = END_TO_END
        values = dict(outcome.metrics)
        values["setup_s"] = outcome.setup_s
        values.setdefault("peak_rss_mb", own_peak_rss_mb())
    correct = not outcome.problems
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "problems": outcome.problems[:20],
        "attempted": outcome.attempted, "failed": outcome.failed,
        "setup_s": outcome.setup_s, **outcome.report,
    }
    print(json.dumps(report, indent=1, default=str), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
