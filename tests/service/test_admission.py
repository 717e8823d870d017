"""AdmissionService: ladder climbing, batching, timeouts, and the
500-request storm acceptance criterion."""

import random
import time

import pytest

from repro.core.schedule import InfeasibleError, validate
from repro.model.stream import EctStream, Priorities, TctRequirement
from repro.model.units import milliseconds
from repro.obs import EventLog, filter_events
from repro.service import (
    RUNG_FASTPATH,
    RUNG_FULL,
    RUNG_HEURISTIC,
    RUNG_INCREMENTAL,
    AdmissionService,
    AdmitEct,
    AdmitTct,
    Remove,
    RungConfig,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
)
from tests.conftest import MTU_WIRE_NS


def _tct(name, src="D1", dst="D3", period_ms=8, length=1500, share=False):
    return AdmitTct(TctRequirement(
        name=name, source=src, destination=dst,
        period_ns=milliseconds(period_ms), length_bytes=length,
        priority=Priorities.SH_PL if share else Priorities.NSH_PH,
        share=share,
    ))


def _ect(name, src="D2", dst="D3", period_ms=16, length=512):
    return AdmitEct(EctStream(
        name=name, source=src, destination=dst,
        min_interevent_ns=milliseconds(period_ms),
        length_bytes=length, possibilities=4,
    ))


@pytest.fixture
def service(star_topology):
    return AdmissionService(ScheduleStore(empty_schedule(star_topology)))


@pytest.fixture
def ladder_service(star_topology):
    """A service with the analytic fast path off, so every request
    exercises the solver ladder the tests below are about."""
    return AdmissionService(
        ScheduleStore(empty_schedule(star_topology)),
        config=ServiceConfig(fastpath=False),
    )


class TestLadder:
    def test_plain_tct_decided_by_fastpath(self, service):
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_FASTPATH
        assert decision.store_version == 1
        validate(service.store.schedule)

    def test_plain_tct_lands_on_incremental_rung(self, ladder_service):
        decision = ladder_service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_INCREMENTAL
        assert decision.store_version == 1
        validate(ladder_service.store.schedule)

    def test_sharing_tct_climbs_to_full_resolve(self, ladder_service):
        service = ladder_service
        assert service.submit(_tct("base", share=True)).accepted
        assert service.submit(_ect("alarm")).accepted
        # the incremental primitive refuses sharing TCT when ECT exists,
        # so the ladder must climb to the full re-solve
        decision = service.submit(_tct("late-share", src="D2", share=True))
        assert decision.accepted
        assert decision.rung == RUNG_FULL
        assert RUNG_INCREMENTAL in decision.attempts
        validate(service.store.schedule)

    def test_overload_is_structured_rejection(self, ladder_service):
        service = ladder_service
        period = 6 * MTU_WIRE_NS
        for i in range(5):
            assert service.submit(AdmitTct(TctRequirement(
                name=f"s{i}", source="D1" if i % 2 else "D2",
                destination="D3", period_ns=period, length_bytes=1500,
                priority=Priorities.NSH_PL,
            ))).accepted
        before = service.store.snapshot()
        decision = service.submit(AdmitTct(TctRequirement(
            name="overload", source="D2", destination="D3",
            period_ns=period, length_bytes=1500,
            priority=Priorities.NSH_PL,
        )))
        assert not decision.accepted
        assert decision.rung is None
        assert "all ladder rungs failed" in decision.reason
        # every rung reported a reason
        assert set(decision.attempts) == {
            RUNG_INCREMENTAL, RUNG_FULL, RUNG_HEURISTIC,
        }
        # rejected admission did not publish anything
        assert service.store.snapshot() is before
        validate(service.store.schedule)

    def test_heuristic_rung_catches_full_failure(
        self, ladder_service, monkeypatch
    ):
        service = ladder_service
        monkeypatch.setattr(
            service, "_solve_full",
            lambda *a, **k: (_ for _ in ()).throw(InfeasibleError("stub")),
        )
        assert service.submit(_tct("base", share=True)).accepted
        assert service.submit(_ect("alarm")).accepted
        decision = service.submit(_tct("late-share", src="D2", share=True))
        assert decision.accepted
        assert decision.rung == RUNG_HEURISTIC
        assert decision.attempts[RUNG_FULL] == "stub"

    def test_unknown_rung_name_fails_fast(self, star_topology):
        config = ServiceConfig(rungs=(
            RungConfig(RUNG_FULL), RungConfig("exhaustive"),
        ))
        with pytest.raises(ValueError, match="unknown ladder rung"):
            AdmissionService(
                ScheduleStore(empty_schedule(star_topology)), config=config
            )

    @pytest.mark.parametrize("max_batch", [0, -3])
    def test_max_batch_below_one_fails_fast(self, star_topology, max_batch):
        with pytest.raises(ValueError, match="max_batch must be >= 1"):
            AdmissionService(
                ScheduleStore(empty_schedule(star_topology)),
                config=ServiceConfig(max_batch=max_batch),
            )


class TestScreening:
    def test_duplicate_name_rejected_without_solving(self, service):
        service.submit(_tct("a"))
        attempts_before = service.metrics.counter(
            f"rungs.{RUNG_INCREMENTAL}.attempts").value
        decision = service.submit(_tct("a"))
        assert not decision.accepted
        assert "already in use" in decision.reason
        assert service.metrics.counter(
            f"rungs.{RUNG_INCREMENTAL}.attempts").value == attempts_before

    @pytest.mark.parametrize("same_batch", [False, True])
    @pytest.mark.parametrize("ect_first", [False, True])
    def test_possibility_name_clash_rejected(
        self, service, same_batch, ect_first
    ):
        # "e#ps1" is both a TCT name and the ECT "e"'s first possibility
        first, second = _tct("e#ps1", src="D2"), _ect("e")
        if ect_first:
            first, second = second, first
        if same_batch:
            decisions = service.submit_many([first, second])
        else:
            decisions = [service.submit(first), service.submit(second)]
        assert decisions[0].accepted
        assert not decisions[1].accepted
        assert decisions[1].reason == "stream name 'e#ps1' already in use"
        names = [s.name for s in service.store.schedule.streams]
        assert len(names) == len(set(names))
        validate(service.store.schedule)

    def test_unroutable_request_rejected(self, service):
        decision = service.submit(_tct("ghost-route", src="D1", dst="nowhere"))
        assert not decision.accepted
        assert "unroutable" in decision.reason

    def test_remove_unknown_rejected(self, service):
        decision = service.submit(Remove("ghost"))
        assert not decision.accepted
        assert "no stream named" in decision.reason

    def test_remove_ect_retires_possibilities(self, service):
        service.submit(_tct("base", share=True))
        service.submit(_ect("alarm"))
        decision = service.submit(Remove("alarm"))
        assert decision.accepted
        assert not service.store.schedule.ect_streams
        assert not service.store.schedule.probabilistic_streams()


class TestBatching:
    def test_compatible_requests_share_one_batch(self, service):
        decisions = service.submit_many(
            [_tct("a"), _tct("b", src="D2"), _tct("c")]
        )
        assert all(d.accepted for d in decisions)
        assert len({d.batch_id for d in decisions}) == 1
        assert {d.batch_size for d in decisions} == {3}
        # one publish for the whole batch
        assert service.store.version == 1
        assert service.metrics.counter("batches.total").value == 1

    def test_name_clash_splits_batches(self, service):
        decisions = service.submit_many([_tct("a"), Remove("a")])
        assert decisions[0].accepted
        assert decisions[1].accepted  # the remove sees the admit's result
        assert decisions[0].batch_id != decisions[1].batch_id

    def test_max_batch_respected(self, star_topology):
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(max_batch=2),
        )
        decisions = service.submit_many(
            [_tct(f"s{i}", period_ms=32) for i in range(5)]
        )
        assert all(d.accepted for d in decisions)
        assert len({d.batch_id for d in decisions}) == 3

    def test_infeasible_member_does_not_sink_batch(self, service):
        period = 6 * MTU_WIRE_NS
        hog = AdmitTct(TctRequirement(
            name="hog", source="D1", destination="D3",
            period_ns=period, length_bytes=12 * 1500,
            priority=Priorities.NSH_PL,
        ))
        decisions = service.submit_many([_tct("ok1"), hog, _tct("ok2", src="D2")])
        verdicts = {d.stream: d.accepted for d in decisions}
        assert verdicts == {"ok1": True, "hog": False, "ok2": True}
        assert service.metrics.counter("batches.splintered").value == 1
        validate(service.store.schedule)


class TestTimeoutsAndRetries:
    def test_rung_timeout_climbs_ladder(self, star_topology, monkeypatch):
        config = ServiceConfig(fastpath=False, rungs=(
            RungConfig(RUNG_INCREMENTAL, timeout_s=0.02),
            RungConfig(RUNG_FULL, timeout_s=None),
        ))
        events = EventLog(clock=lambda: 0)
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)), config=config,
            events=events)
        real = service._solve_incremental

        def slow(schedule, batch):
            time.sleep(0.2)
            return real(schedule, batch)

        monkeypatch.setattr(service, "_solve_incremental", slow)
        decision = service.submit(_tct("a"))
        assert decision.accepted
        assert decision.rung == RUNG_FULL
        assert "budget" in decision.attempts[RUNG_INCREMENTAL]
        assert service.metrics.counter(
            f"rungs.{RUNG_INCREMENTAL}.timeouts").value == 1
        # the overdue solve is abandoned, accounted, and journaled
        assert service.metrics.counter(
            "solver.threads_abandoned").value == 1
        abandoned = filter_events(events.events(), kind="solver.abandoned")
        assert [e.attributes["rung"] for e in abandoned] == [RUNG_INCREMENTAL]
        # the orphan decrements the gauge as it unwinds
        deadline = time.monotonic() + 5
        while (service.metrics.gauge("solver.orphans_running").value
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert service.metrics.gauge("solver.orphans_running").value == 0

    def test_retries_do_not_apply_to_infeasible(self, star_topology, monkeypatch):
        """Each rung runs once: neither a deterministic verdict nor a
        solver error is retried; both climb to the next rung."""
        for failure, counter in (
            (InfeasibleError("deterministically full"), "failures"),
            (RuntimeError("backend hiccup"), "errors"),
        ):
            config = ServiceConfig(fastpath=False, rungs=(
                RungConfig(RUNG_FULL, timeout_s=None),
                RungConfig(RUNG_HEURISTIC, timeout_s=None),
            ))
            service = AdmissionService(
                ScheduleStore(empty_schedule(star_topology)), config=config)
            calls = {"n": 0}

            def failing(schedule, batch, failure=failure):
                calls["n"] += 1
                raise failure

            monkeypatch.setattr(service, "_solve_full", failing)
            decision = service.submit(_tct("a"))
            assert decision.accepted
            assert decision.rung == RUNG_HEURISTIC
            assert calls["n"] == 1
            assert service.metrics.counter(
                f"rungs.{RUNG_FULL}.{counter}").value == 1


class TestDeploymentEmission:
    def test_deployment_per_accepted_batch(self, star_topology):
        deployments = []
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(emit_deployments=True),
            on_deploy=deployments.append,
        )
        service.submit_many([_tct("a"), _tct("b", src="D2")])
        service.submit(_tct("dup"))
        service.submit(_tct("dup"))  # rejected: no deployment
        assert len(deployments) == 2
        assert service.metrics.counter("deployments.emitted").value == 2
        latest = service.last_deployment
        assert latest is deployments[-1]
        # the emitted deployment covers the published schedule
        assert {t.stream for t in latest.talkers} == {"a", "b", "dup"}
        assert latest.to_config_dict()["ports"]

    def test_removing_last_stream_skips_emission(self, star_topology):
        deployments = []
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(emit_deployments=True),
            on_deploy=deployments.append,
        )
        service.submit(_tct("solo"))
        decision = service.submit(Remove("solo"))
        assert decision.accepted
        # an empty schedule has no GCL to push: one deployment, one skip
        assert len(deployments) == 1
        assert (
            service.metrics.counter("deployments.skipped_empty").value == 1
        )


class TestStorm:
    """The acceptance criterion: a 500-request random admit/remove storm."""

    def test_500_request_storm(self, star_topology):
        rng = random.Random(42)
        # a service tuned for quick decisions: tight per-rung budgets and
        # a lean last-resort restart budget
        service = AdmissionService(
            ScheduleStore(empty_schedule(star_topology)),
            config=ServiceConfig(
                heuristic_min_restarts=8,
                rungs=(
                    RungConfig(RUNG_INCREMENTAL, timeout_s=10.0),
                    RungConfig(RUNG_FULL, timeout_s=10.0),
                    RungConfig(RUNG_HEURISTIC, timeout_s=10.0),
                ),
            ),
        )
        devices = ("D1", "D2", "D3")
        live = set()
        n_requests = 500
        decisions = []
        for i in range(n_requests):
            roll = rng.random()
            # keep the live population bounded so the storm churns
            # instead of only growing
            remove_p = 0.55 if len(live) >= 25 else 0.25
            if roll < remove_p and live:
                request = Remove(rng.choice(sorted(live)))
            elif roll < remove_p + 0.06:
                # deliberately hit ghosts / duplicates sometimes
                request = Remove(f"ghost{i % 7}")
            elif roll < remove_p + 0.12:
                src, dst = rng.sample(devices, 2)
                request = AdmitEct(EctStream(
                    name=f"e{i}", source=src, destination=dst,
                    min_interevent_ns=milliseconds(rng.choice((16, 32))),
                    length_bytes=rng.choice((256, 512)), possibilities=2,
                ))
            else:
                src, dst = rng.sample(devices, 2)
                request = AdmitTct(TctRequirement(
                    name=f"t{i}", source=src, destination=dst,
                    period_ns=milliseconds(rng.choice((8, 16, 32))),
                    length_bytes=rng.choice((400, 800, 1500)),
                    priority=Priorities.NSH_PH,
                ))

            decision = service.submit(request)
            decisions.append(decision)
            if decision.accepted:
                if request.op == "remove":
                    live.discard(request.stream_name)
                else:
                    live.add(request.stream_name)

        # every request got a structured decision; nothing crashed
        assert len(decisions) == n_requests
        assert all(d.accepted or d.reason for d in decisions)

        # the final snapshot passes the independent Eq. 1-7 validator
        final = service.store.schedule
        validate(final)
        names = {s.name for s in final.streams if s.parent is None}
        names.update(e.name for e in final.ect_streams)
        assert names == live

        # per-rung decision counts sum to the request total
        by_rung = service.metrics.counters_with_prefix("decisions")
        assert sum(by_rung.values()) == n_requests
        assert service.metrics.counter("requests.total").value == n_requests
        admitted = service.metrics.counter("requests.admitted").value
        rejected = service.metrics.counter("requests.rejected").value
        assert admitted + rejected == n_requests
        assert admitted > 0 and rejected > 0

        # metrics JSON is well-formed and carries latency percentiles
        import json
        data = json.loads(service.metrics_json())
        assert data["histograms"]["latency.decision_ms"]["count"] == n_requests


class TestWireFormat:
    def test_missing_field_raises_value_error(self):
        from repro.service.requests import request_from_dict

        with pytest.raises(ValueError, match="missing required field"):
            request_from_dict({"op": "admit-tct", "name": "x", "source": "D1"})

    def test_unknown_op_raises_value_error(self):
        from repro.service.requests import request_from_dict

        with pytest.raises(ValueError, match="unknown admission op"):
            request_from_dict({"op": "frobnicate"})


# The service-vs-offline equivalence stress test lives with the other
# incremental-scheduling equivalence checks in
# tests/core/test_incremental.py (TestServiceEquivalence).
