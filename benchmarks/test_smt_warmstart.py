"""SMT warm start on its target case: a repeated full re-solve against
one store snapshot.

When a request falls through to the full SMT rung and publishes
nothing (a rejection, or a batch that splinters), the next full solve
runs on the same snapshot.  The admission service then seeds it with
the theory lemmas, branching state and potential of the previous solve
(:mod:`repro.smt.warmstart`).  This benchmark reproduces that pattern
on the Fig. 13 network at 40 % load: a base of ten TCT streams plus
the workload's ECT stream, with one newcomer swapped per pair.

Each pair solves ``base + first`` (exporting its warm state), then
``base + second`` cold and warm, in alternating order.  Both schedules
must pass the validator and hold the same stream set; the median
cold/warm wall-clock ratio must reach 1.2x, the bar an opt-in solver
mechanism has to clear to stay in the ladder.
"""

import statistics
import time

from repro.analysis import format_table
from repro.core.baselines import schedule_etsn
from repro.core.schedule import validate
from repro.experiments import simulation_workload

LOAD = 0.4
BASE_STREAMS = 10
PAIRS = 5
SPEEDUP_FLOOR = 1.2


def _solve(workload, tct, warm_start=None, sink=None):
    started = time.perf_counter()
    schedule = schedule_etsn(
        workload.topology, tct, workload.ect_streams, backend="smt",
        warm_start=warm_start, warm_state_sink=sink,
    )
    return schedule, time.perf_counter() - started


def test_smt_warm_start_speedup(emit):
    workload = simulation_workload(LOAD, seed=1)
    base = list(workload.tct_streams[:BASE_STREAMS])
    newcomers = workload.tct_streams[BASE_STREAMS:]
    rows, ratios = [], []
    for pair in range(PAIRS):
        first, second = newcomers[2 * pair], newcomers[2 * pair + 1]
        exported = []
        _solve(workload, base + [first], sink=exported.append)
        assert len(exported) == 1
        target = base + [second]
        if pair % 2 == 0:
            cold, cold_s = _solve(workload, target)
            warm, warm_s = _solve(workload, target, warm_start=exported[0])
        else:
            warm, warm_s = _solve(workload, target, warm_start=exported[0])
            cold, cold_s = _solve(workload, target)
        validate(cold)
        validate(warm)
        assert ({s.name for s in warm.streams}
                == {s.name for s in cold.streams})
        assert warm.meta["solver_stats"]["warm_lemmas"] > 0
        ratios.append(cold_s / warm_s)
        rows.append([pair, f"{first.name}->{second.name}",
                     f"{cold_s * 1e3:.1f}", f"{warm_s * 1e3:.1f}",
                     f"{ratios[-1]:.2f}x"])
    speedup = statistics.median(ratios)
    rows.append(["", "median", "", "", f"{speedup:.2f}x"])
    emit("smt_warmstart", format_table(
        ["pair", "swap", "cold_ms", "warm_ms", "speedup"], rows,
        title=(
            f"SMT full re-solve, cold vs warm start: Fig. 13 network, "
            f"{int(LOAD * 100)}% load, {BASE_STREAMS} TCT + "
            f"{len(workload.ect_streams)} ECT base, one newcomer swapped"
        ),
    ))
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm start median speedup {speedup:.2f}x is below "
        f"{SPEEDUP_FLOOR}x"
    )
