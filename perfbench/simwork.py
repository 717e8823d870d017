"""``fig14_sim``: the paper's evaluation pipeline at 50 % load.

One pass runs, for each of ``etsn``, ``period`` and ``avb``: schedule
(``build_schedule``) -> ``build_gcl`` -> ``TsnSimulation`` over
:data:`DURATION_MS` simulated ms.  This is the only workload that
touches ``core.gcl`` and ``sim`` (the inner loop of ``repro.campaign``).
The simulated statistics repeat exactly for a given seed, so every pass
is also checked against the first one and the reference seed's pass
against the golden file.

Latency samples are whole passes (all three methods), so every method's
pipeline counts toward both the median and the tail.  Each method run
is timed and scaled to the reference host speed (:mod:`perfbench.host`)
before a pass's runs are added up.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from perfbench import golden, spans
from perfbench.host import HostMeter
from perfbench.result import Outcome, median_setup
from perfbench.stats import min_samples_for, percentile, tail, unattributed_ms
from repro.core import build_gcl
from repro.core.baselines import build_schedule
from repro.experiments import simulation_workload
from repro.model.units import milliseconds
from repro.sim import SimConfig, TsnSimulation

LOAD = 0.5
BASE_SEED = 1
METHODS = ("etsn", "period", "avb")
#: Simulated time per method run: short enough that a run makes enough
#: passes for the :data:`TAIL` percentile with ten samples beyond it.
DURATION_MS = 100
ECT_NAME = "s1e"
#: Tail percentile of the pass time.
TAIL = 0.9
MIN_PASSES = min_samples_for(TAIL)
#: Passes of a traced run, at least.
MIN_TRACED_PASSES = 10
SETUP_REPEATS = 9
LAYERS = ("baselines.build_schedule", "gcl.build", "sim.build", "sim.run")


def set_up():
    return simulation_workload(LOAD, seed=BASE_SEED)


def method_run(workload, method: str, seed: int, recorder) -> Dict:
    """One schedule -> GCL -> simulation run; returns its statistics."""
    with recorder.span("baselines.build_schedule"):
        schedule, mode = build_schedule(
            workload.topology, workload.tct_streams, workload.ect_streams,
            method,
        )
    with recorder.span("gcl.build"):
        gcl = build_gcl(
            schedule, mode=mode, ect_proxies=schedule.meta.get("ect_proxies")
        )
    config = SimConfig(
        duration_ns=milliseconds(DURATION_MS), seed=seed,
        cbs_on_ect=(mode == "avb"),
    )
    with recorder.span("sim.build"):
        simulation = TsnSimulation(schedule, gcl, config)
    with recorder.span("sim.run"):
        report = simulation.run()
    ect = report.recorder.stats(ECT_NAME)
    return {
        "events": report.num_events,
        "frames_lost": report.frames_lost,
        "ect": [ect.count, ect.average_ns, ect.minimum_ns, ect.maximum_ns,
                ect.stddev_ns],
    }


def golden_pass(workload) -> Dict[str, Dict]:
    return {
        method: method_run(workload, method, golden.SEED, spans.NullRecorder())
        for method in METHODS
    }


def drive(
    workload, seed: int, seconds: float, min_passes: int, recorder,
    meter: Optional[HostMeter] = None,
) -> Tuple[List[Dict], List[float], List[int]]:
    """Whole passes until ``seconds`` have passed and ``min_passes``
    were made, ticking ``meter`` (when given) before each method run;
    returns stats, and per method run its time in ms and tick."""
    clock = time.perf_counter
    stats: List[Dict] = []
    times_ms: List[float] = []
    ticks: List[int] = []
    started = clock()
    while clock() - started < seconds or len(times_ms) < (
            min_passes * len(METHODS)):
        for method in METHODS:
            if meter is not None:
                ticks.append(meter.tick())
            before = clock()
            stats.append(method_run(workload, method, seed, recorder))
            times_ms.append((clock() - before) * 1e3)
    return stats, times_ms, ticks


def pass_ms(runs_ms: List[float]) -> List[float]:
    """Per pass, the sum of its method runs."""
    per = len(METHODS)
    return [sum(runs_ms[k:k + per]) for k in range(0, len(runs_ms), per)]


def check(stats: List[Dict], first: List[Dict]) -> List[str]:
    """No frame lost, and every pass repeats the first exactly."""
    problems = []
    for index, run in enumerate(stats):
        method = METHODS[index % len(METHODS)]
        if run["frames_lost"]:
            problems.append(f"{method}: {run['frames_lost']} frames lost")
        if run != first[index % len(METHODS)]:
            problems.append(f"{method}: pass {index // len(METHODS)} "
                            f"differs from the first pass")
    return problems


def check_golden(workload) -> List[str]:
    expected = golden.load()["fig14_sim"]
    got = golden_pass(workload)
    return [f"{method}: golden {expected[method]}, got {got[method]}"
            for method in METHODS if expected[method] != got[method]]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    workload, setup_s = median_setup(set_up, SETUP_REPEATS)
    # the golden pass first: checks the pipeline and warms it
    problems = check_golden(workload)
    budget = seconds / 2 if trace else seconds
    meter = HostMeter()
    stats, raw_ms, ticks = drive(
        workload, seed, budget, MIN_TRACED_PASSES if trace else MIN_PASSES,
        spans.NullRecorder(), meter,
    )
    first = stats[: len(METHODS)]
    problems += check(stats, first)
    pass_events = sum(run["events"] for run in first)
    passes_ms = pass_ms(meter.scale(raw_ms, ticks))
    if not trace:
        rate = pass_events * len(passes_ms) / (sum(passes_ms) / 1e3)
        p50, tail_pass = percentile(passes_ms, 0.5), tail(passes_ms, TAIL)
        raw_passes_ms = pass_ms(raw_ms)
        return Outcome(
            attempted=len(stats), failed=0, problems=problems,
            setup_s=setup_s,
            metrics={
                "throughput_per_s": rate,
                "latency_p50_ms": p50.value,
                "latency_tail_ms": tail_pass.value,
            },
            report={
                "sim_events_per_s": rate,
                "pass_p50_ms": p50.value,
                "pass_p90_ms": tail_pass.value,
                "passes": tail_pass.count,
                "beyond_p90": tail_pass.beyond,
                "host_speed_factor": meter.speed(),
                "raw_sim_events_per_s":
                    pass_events * len(raw_passes_ms) / (sum(raw_ms) / 1e3),
                "raw_pass_p50_ms": percentile(raw_passes_ms, 0.5).value,
            },
        )

    # traced passes: as many as untraced
    recorder = spans.SpanRecorder()
    traced_meter = HostMeter()
    traced, traced_raw_ms, traced_ticks = drive(
        workload, seed, 0.0, len(passes_ms), recorder, traced_meter)
    problems += check(traced, first)
    traced_passes_ms = pass_ms(traced_meter.scale(traced_raw_ms, traced_ticks))
    self_ms = recorder.self_ms()
    layers = {layer: self_ms.get(layer, 0.0) for layer in LAYERS}
    # the method runs: reference samples fall between them, outside
    wall_ms = sum(traced_raw_ms)
    run_ms = recorder.total_ms("sim.run")
    events = pass_events * len(traced_passes_ms)
    metrics = {
        "baselines.build_schedule_ms": layers["baselines.build_schedule"],
        "gcl.build_ms": layers["gcl.build"],
        "sim.build_ms": layers["sim.build"],
        "sim.run_ms": run_ms,
        "sim.events": events,
        "sim.host_ns_per_event": run_ms * 1e6 / events,
        "unattributed_ms": unattributed_ms(layers, wall_ms),
        "traced_wall_ms": wall_ms,
        "trace_overhead_frac": sum(traced_passes_ms) / sum(passes_ms) - 1.0,
    }
    return Outcome(
        attempted=len(stats) + len(traced), failed=0, problems=problems,
        setup_s=setup_s, metrics=metrics,
        report={"layers_self_ms": layers, "traced_wall_ms": wall_ms},
    )
