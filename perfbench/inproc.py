"""``admit_churn`` and ``admit_saturated``: one in-process caller drives
an :class:`~repro.service.AdmissionService` in a closed loop.

Both seed the store with the Fig. 13/14 40-stream schedule
(``simulation_workload(load)`` -> ``schedule_etsn``) and offer the same
kind of admit/remove mix (:mod:`perfbench.gen`).  At 25 % load the
fast path decides nearly everything, so a decision costs incremental
placement, ``validate_delta`` and the CAS publish.  At 75 % load about
one decision in eight falls through to the full re-solve rung, which
then takes most of the wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import gen, golden, spans
from perfbench.host import HostMeter
from perfbench.result import Outcome, median_setup, own_peak_rss_mb
from perfbench.stats import percentile, ratio, tail, unattributed_ms
from repro.core import audit_gcl, build_gcl, schedule_etsn, validate
from repro.experiments import simulation_workload
from repro.service import (
    AdmissionRequest,
    AdmissionService,
    AdmitTct,
    Decision,
    Remove,
    ScheduleStore,
    ServiceConfig,
)

#: Base load of the seeded schedule per workload.
LOADS = {"admit_churn": 0.25, "admit_saturated": 0.75}
#: Decisions per trial.  A run repeats trials (each a fresh service on
#: the same base schedule, offered the same requests) for the run time
#: and pools every decision's time, scaled to the reference host speed
#: (:mod:`perfbench.host`).
TRIAL_DECISIONS = {"admit_churn": 2000, "admit_saturated": 1000}
MIN_TRIALS = 2
#: Seed of the Fig. 13/14 base workload (the paper's configuration);
#: the run seed varies the offered requests only.
BASE_SEED = 1
#: Decisions replayed against the golden verdict-and-rung sequence.
GOLDEN_DECISIONS = {"admit_churn": 400, "admit_saturated": 200}
#: Decision tail percentile (needs ``min_samples_for(TAIL)`` samples).
TAIL = 0.99
SETUP_REPEATS = 5


@dataclass
class Trial:
    #: time of each submit call, ms
    times_ms: List[float]
    #: the host-meter sample each submit belongs to
    ticks: List[int]
    #: the trial's wall time, reference samples included
    elapsed_s: float


@dataclass
class Setup:
    base: object
    devices: List[str]
    service: AdmissionService


def set_up(workload: str) -> Setup:
    """Base workload, base schedule and a service over a fresh store."""
    scenario = simulation_workload(LOADS[workload], seed=BASE_SEED)
    base = schedule_etsn(
        scenario.topology, scenario.tct_streams, scenario.ect_streams
    )
    devices = [device.name for device in scenario.topology.devices]
    return Setup(base, devices, new_service(base))


def new_service(base) -> AdmissionService:
    return AdmissionService(ScheduleStore(base), config=ServiceConfig())


def drive(
    service: AdmissionService, requests: Sequence[AdmissionRequest],
    meter: Optional[HostMeter] = None,
) -> Tuple[List[Decision], Trial]:
    """Closed loop: submit each request once the previous one is
    decided, ticking ``meter`` (when given) before each submit."""
    clock = time.perf_counter
    decisions: List[Decision] = []
    times_ms: List[float] = []
    ticks: List[int] = []
    started = clock()
    for request in requests:
        if meter is not None:
            ticks.append(meter.tick())
        before = clock()
        decisions.append(service.submit(request))
        times_ms.append((clock() - before) * 1e3)
    return decisions, Trial(times_ms, ticks, clock() - started)


def verdicts(decisions: Sequence[Decision]) -> List[str]:
    """The verdict-and-rung sequence the golden file pins."""
    return [f"{d.op}:{d.rung if d.accepted else 'rejected'}"
            for d in decisions]


def check_decisions(
    requests: Sequence[AdmissionRequest], decisions: Sequence[Decision]
) -> List[str]:
    """Mix invariants: infeasible admits are rejected, and a remove is
    accepted exactly when its admit was."""
    problems: List[str] = []
    accepted = set()
    for request, decision in zip(requests, decisions):
        if decision.stream != request.stream_name:
            problems.append(f"decision for {decision.stream} answers "
                            f"{request.stream_name}")
        elif isinstance(request, AdmitTct):
            if decision.accepted:
                if gen.is_infeasible(request):
                    problems.append(f"infeasible {request.stream_name} "
                                    f"accepted")
                accepted.add(request.stream_name)
        elif isinstance(request, Remove):
            if decision.accepted != (request.name in accepted):
                problems.append(
                    f"remove {request.name}: accepted={decision.accepted} "
                    f"but admit accepted={request.name in accepted}"
                )
            accepted.discard(request.name)
    return problems


def check_schedule(schedule) -> List[str]:
    """The published schedule passes the validator and the GCL audit."""
    try:
        validate(schedule)
        audit_gcl(schedule, build_gcl(schedule, mode="etsn"))
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [f"final schedule: {type(exc).__name__}: {exc}"]
    return []


def golden_requests(workload: str, devices: Sequence[str]):
    return gen.admission_mix(
        golden.SEED, GOLDEN_DECISIONS[workload], devices
    )


def check_golden(workload: str, base, devices: Sequence[str]) -> List[str]:
    """Replay the golden seed's prefix on a fresh service and compare."""
    requests = golden_requests(workload, devices)
    decisions, _ = drive(new_service(base), requests)
    expected = golden.load()[workload]
    got = verdicts(decisions)
    for index, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            return [f"golden decision {index}: expected {want}, got {have}"]
    if len(expected) != len(got):
        return [f"golden: expected {len(expected)} decisions, got {len(got)}"]
    return []


def admission_targets() -> List[spans.Target]:
    """The entry points the traced run wraps, where the service looks
    them up at call time."""
    from repro.service import admission, fastpath, store

    targets: List[spans.Target] = [
        (admission.AdmissionService, "submit", "service.submit"),
        (store.ScheduleStore, "publish", "service.publish"),
        (fastpath, "evaluate", "fastpath.evaluate"),
        (fastpath, "validate_delta", "schedule.validate_delta"),
        (admission, "schedule_etsn", "resolve"),
        (admission, "schedule_heuristic", "resolve"),
    ]
    for primitive in ("add_tct_stream", "add_shared_tct_stream",
                      "add_ect_stream", "remove_stream"):
        targets.append((fastpath, primitive, "incremental.place"))
    return targets


#: Layers whose self times must add up (with unattributed) to the wall.
LAYERS = ("service.submit", "service.publish", "fastpath.evaluate",
          "incremental.place", "schedule.validate_delta", "resolve")


def run_trials(
    base, requests: Sequence[AdmissionRequest], first: AdmissionService,
    meter: HostMeter, until, recorder=None,
) -> Tuple[List[Trial], List[Decision], List[str], Dict[str, int]]:
    """Repeat the requests on fresh services (the first on ``first``)
    while ``until(trials)`` holds; check every trial's decisions.
    Also returns the services' counters, summed."""
    trials: List[Trial] = []
    decisions: List[Decision] = []
    problems: List[str] = []
    counters: Dict[str, int] = {}
    while until(trials):
        service = new_service(base) if trials or first is None else first
        if recorder is None:
            decided, trial = drive(service, requests, meter)
        else:
            with spans.installed(recorder, admission_targets()):
                decided, trial = drive(service, requests, meter)
        trials.append(trial)
        for name, value in service.metrics.to_dict()["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if not decisions:
            decisions = decided
            problems += check_decisions(requests, decided)
            problems += check_schedule(service.store.schedule)
        elif verdicts(decided) != verdicts(decisions):
            problems.append(f"trial {len(trials)} decided differently "
                            f"from trial 1")
    return trials, decisions, problems, counters


def scaled_ms(meter: HostMeter, trials: Sequence[Trial]) -> List[float]:
    """Every submit time of ``trials``, at the reference host speed."""
    return meter.scale([x for t in trials for x in t.times_ms],
                       [k for t in trials for k in t.ticks])


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    setup, setup_s = median_setup(lambda: set_up(workload), SETUP_REPEATS)
    requests = gen.admission_mix(seed, TRIAL_DECISIONS[workload],
                                 setup.devices)
    # the golden replay runs first: it checks the decision function and
    # warms every code path before the timed trials
    problems = check_golden(workload, setup.base, setup.devices)

    budget = seconds / 2 if trace else seconds
    clock = time.perf_counter
    started = clock()

    rss_mb: List[float] = []

    def within_budget(trials: List[Trial]) -> bool:
        if len(trials) == 1:
            # the program's footprint; later trials, identical work on
            # fresh services, add only the benchmark's own samples
            rss_mb.append(own_peak_rss_mb())
        # a trial starts only if one like the last still fits
        return len(trials) < MIN_TRIALS or (
            clock() - started + trials[-1].elapsed_s <= budget)

    meter = HostMeter()
    trials, decisions, found, _ = run_trials(
        setup.base, requests, setup.service, meter, within_budget)
    problems += found
    times_ms = scaled_ms(meter, trials)
    if not trace:
        raw_ms = [x for t in trials for x in t.times_ms]
        rate = len(times_ms) / (sum(times_ms) / 1e3)
        p50, p99 = percentile(times_ms, 0.5), tail(times_ms, TAIL)
        return Outcome(
            attempted=len(requests) * len(trials), failed=0,
            problems=problems, setup_s=setup_s,
            metrics={
                "throughput_per_s": rate,
                "latency_p50_ms": p50.value,
                "latency_tail_ms": p99.value,
                "peak_rss_mb": rss_mb[0],
            },
            report={
                "decisions_per_s": rate,
                "decision_p50_ms": p50.value,
                "decision_p99_ms": p99.value,
                "trials": len(trials),
                "samples": p99.count,
                "beyond_p99": p99.beyond,
                "host_speed_factor": meter.speed(),
                "raw_decisions_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
                "raw_decision_p50_ms": percentile(raw_ms, 0.5).value,
                "raw_decision_p99_ms": percentile(raw_ms, TAIL).value,
            },
        )

    # traced trials: half as many again, the same requests, fresh services
    recorder = spans.SpanRecorder()
    traced_meter = HostMeter()
    traced, traced_decisions, found, counters = run_trials(
        setup.base, requests, None, traced_meter,
        lambda done: len(done) < max(1, len(trials) // 2), recorder)
    problems += found
    if verdicts(traced_decisions) != verdicts(decisions):
        problems.append("traced trials decided differently from the "
                        "untraced ones")
    traced_ms = scaled_ms(traced_meter, traced)
    self_ms = recorder.self_ms()
    layers = {layer: self_ms.get(layer, 0.0) for layer in LAYERS}
    # the submit calls: reference samples fall between them, outside
    wall_ms = sum(x for t in traced for x in t.times_ms)
    by_rung: Dict[str, int] = {}
    for decision in traced_decisions:
        key = decision.rung if decision.accepted else "rejected"
        by_rung[key] = by_rung.get(key, 0) + len(traced)
    attempts = counters.get("rungs.fastpath.attempts", 0)
    conclusive = (counters.get("fastpath.accepts", 0)
                  + counters.get("fastpath.rejects", 0))
    resolves = recorder.calls("resolve")
    metrics = {
        "service.submit.self_ms": layers["service.submit"],
        "service.publish.calls": recorder.calls("service.publish"),
        "service.publish.ms": recorder.total_ms("service.publish"),
        "fastpath.evaluate.calls": recorder.calls("fastpath.evaluate"),
        "fastpath.evaluate.self_ms": layers["fastpath.evaluate"],
        "fastpath.conclusive_ratio": ratio(conclusive, attempts),
        "incremental.place.calls": recorder.calls("incremental.place"),
        "incremental.place.ms": recorder.total_ms("incremental.place"),
        "schedule.validate_delta.calls":
            recorder.calls("schedule.validate_delta"),
        "schedule.validate_delta.ms":
            recorder.total_ms("schedule.validate_delta"),
        "resolve.calls": resolves,
        "resolve.ms": recorder.total_ms("resolve"),
        "resolve.success_ratio":
            ratio(resolves - recorder.failures("resolve"), resolves),
        "unattributed_ms": unattributed_ms(layers, wall_ms),
        "traced_wall_ms": wall_ms,
        # mean scaled decision time, traced over untraced
        "trace_overhead_frac": (sum(traced_ms) / len(traced_ms))
        / (sum(times_ms) / len(times_ms)) - 1.0,
    }
    for rung in ("fastpath", "incremental", "full", "heuristic", "rejected"):
        metrics[f"service.decisions.{rung}"] = by_rung.get(rung, 0)
    return Outcome(
        attempted=len(requests) * (len(trials) + len(traced)), failed=0,
        problems=problems, setup_s=setup_s, metrics=metrics,
        report={"layers_self_ms": layers, "traced_wall_ms": wall_ms,
                "traced_trials": len(traced)},
    )
