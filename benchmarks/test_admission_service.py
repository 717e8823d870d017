"""Admission-service throughput on the Fig. 14 simulation network:
admissions/sec and p50/p99 decision latency, with and without the
analytic fast path.

The service is seeded with the 40-stream Fig. 13/14 workload, then driven
with a request mix that exercises every decision path: plain TCT admits
and removals, sharing TCT admits (the incremental primitive refuses them
while ECT is present, so without the fast path they force the full
re-solve), and a capacity hog that is conclusively rejected.

The mix runs twice — fast path on (the headline numbers) and off (ladder
continuity: the incremental and full rungs still work and their relative
order still holds).  The ratio of the two aggregate wall-clocks is the
``fastpath_speedup`` the regression gate tracks; the floor is tunable via
``REPRO_FASTPATH_SPEEDUP_FLOOR`` for loaded shared runners (the local
target is 5x)."""

import os
import time

import pytest

from repro.analysis import format_table
from repro.core import validate
from repro.experiments import simulation_workload
from repro.model.stream import Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs.histogram import nearest_rank
from repro.service import (
    AdmissionService,
    AdmitTct,
    Remove,
    ScheduleStore,
    ServiceConfig,
)

SPEEDUP_FLOOR = float(os.environ.get("REPRO_FASTPATH_SPEEDUP_FLOOR", "5.0"))


def _tct(name, src, dst, period_ms=10, length=800, share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _percentile(values, q):
    return nearest_rank(sorted(values), q / 100)


def _request_mix(devices):
    requests = []
    # plain TCT admits + churn
    for i in range(24):
        src, dst = devices[i % len(devices)], devices[(i + 5) % len(devices)]
        requests.append(_tct(f"adm{i}", src, dst))
        if i % 3 == 2:
            requests.append(Remove(f"adm{i - 1}"))
    # sharing TCT admits: without the fast path these force the full
    # re-solve rung
    for i in range(3):
        src = devices[(2 * i) % len(devices)]
        dst = devices[(2 * i + 7) % len(devices)]
        requests.append(_tct(f"share{i}", src, dst, period_ms=20, share=True))
    # a capacity hog: conclusively rejected (fast path on) or rejected
    # after climbing every rung (fast path off)
    requests.append(_tct("hog", devices[0], devices[1], period_ms=5,
                         length=80 * 1500))
    return requests


def _drive(base, requests, config):
    """Run the mix against a fresh store; returns (by_rung, wall_s)."""
    store = ScheduleStore(base)
    service = AdmissionService(store, config=config)
    started = time.perf_counter()
    decisions = [service.submit(request) for request in requests]
    wall_s = time.perf_counter() - started
    validate(store.schedule)
    assert len(decisions) == len(requests)
    assert all(d.accepted or d.reason for d in decisions)
    by_rung = {}
    for decision in decisions:
        rung = decision.rung if decision.accepted else "rejected"
        by_rung.setdefault(rung, []).append(decision.latency_ms)
    return by_rung, wall_s, service


def _rungs_json(by_rung, order):
    rungs_json = {}
    for rung in order:
        latencies = by_rung.get(rung)
        if not latencies:
            continue
        mean_ms = sum(latencies) / len(latencies)
        entry = {
            "decisions": len(latencies),
            "p50_ms": round(_percentile(latencies, 50), 3),
            "p99_ms": round(_percentile(latencies, 99), 3),
        }
        if rung != "rejected":
            # a rejection is not throughput: its latency distribution is
            # tracked (satellite histogram latency.rejected_ms), but it
            # contributes no admissions/sec metric to the gate
            entry["admissions_per_sec"] = (
                round(1e3 / mean_ms, 1) if mean_ms else None
            )
        rungs_json[rung] = entry
    return rungs_json


def test_admission_service_throughput(benchmark, emit, bench_record):
    from repro.core import schedule_etsn

    workload = simulation_workload(0.25, seed=1)
    base = schedule_etsn(workload.topology, workload.tct_streams,
                         workload.ect_streams)
    devices = [d.name for d in workload.topology.devices]
    requests = _request_mix(devices)

    by_rung_off, wall_off, _ = _drive(
        base, requests,
        ServiceConfig(heuristic_min_restarts=16, fastpath=False),
    )
    by_rung_on, wall_on, service = _drive(
        base, requests, ServiceConfig(heuristic_min_restarts=16),
    )

    all_on = [l for ls in by_rung_on.values() for l in ls]
    all_off = [l for ls in by_rung_off.values() for l in ls]
    per_sec_on = len(requests) / wall_on
    per_sec_off = len(requests) / wall_off
    speedup = wall_off / wall_on

    order = ("fastpath", "incremental", "full", "heuristic", "rejected")
    rows = []
    for label, by_rung in (("on", by_rung_on), ("off", by_rung_off)):
        for rung in order:
            latencies = by_rung.get(rung)
            if not latencies:
                continue
            rows.append([
                label, rung, len(latencies),
                f"{_percentile(latencies, 50):.2f}",
                f"{_percentile(latencies, 99):.2f}",
            ])
    rows.append(["", "aggregate on", len(requests),
                 f"{per_sec_on:.0f}/s", f"{_percentile(all_on, 99):.2f}"])
    rows.append(["", "aggregate off", len(requests),
                 f"{per_sec_off:.0f}/s", f"{_percentile(all_off, 99):.2f}"])
    rows.append(["", "speedup", "", f"{speedup:.1f}x", ""])

    bench_record("admission", {
        "benchmark": "admission_service_throughput",
        "network": "fig13-simulation",
        "seed_streams": len(workload.tct_streams) + len(workload.ect_streams),
        "decisions": len(requests),
        "admissions_per_sec": round(per_sec_on, 1),
        "p99_ms": round(_percentile(all_on, 99), 3),
        "fastpath_speedup": round(speedup, 2),
        "rungs": _rungs_json(by_rung_on, order),
        "fastpath_off": {
            "admissions_per_sec": round(per_sec_off, 1),
            "p99_ms": round(_percentile(all_off, 99), 3),
            "rungs": _rungs_json(by_rung_off, order),
        },
    })
    emit("admission_service", format_table(
        ["fastpath", "rung", "decisions", "p50_ms", "p99_ms"],
        rows,
        title=(
            "Online admission on the 40-stream Fig. 13/14 network "
            f"({len(requests)} decisions per run)"
        ),
    ))

    # the fast path decided the accepts and the reject conclusively
    assert "fastpath" in by_rung_on and "rejected" in by_rung_on
    counters = service.metrics.to_dict()["counters"]
    assert counters.get("fastpath.accepts", 0) >= 30
    assert counters.get("fastpath.rejects", 0) >= 1
    # ladder continuity with the fast path off: the mix still exercises
    # the incremental and full rungs, and incremental stays the cheaper
    assert "incremental" in by_rung_off and "full" in by_rung_off
    assert "rejected" in by_rung_off
    assert (_percentile(by_rung_off["incremental"], 50)
            <= _percentile(by_rung_off["full"], 50))
    # the headline gate: aggregate speedup and a p99 cut
    assert speedup >= SPEEDUP_FLOOR, (
        f"fast path is only {speedup:.2f}x the ladder "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert _percentile(all_on, 99) < _percentile(all_off, 99), (
        "fast path did not cut the p99 decision latency"
    )

    # hot-path timing for pytest-benchmark: one admit/remove cycle
    store = ScheduleStore(base)
    service = AdmissionService(
        store, config=ServiceConfig(heuristic_min_restarts=16)
    )

    def admit_remove_cycle():
        service.submit(_tct("bench", devices[2], devices[9]))
        service.submit(Remove("bench"))

    benchmark(admit_remove_cycle)
