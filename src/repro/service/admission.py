"""The online admission-control runtime (paper Sec. VII-C, made a service).

:class:`AdmissionService` turns the single-operation primitives of
:mod:`repro.core.incremental` into a sustained request-serving runtime:

* requests (admit TCT / admit ECT / remove) are **batched** when their
  stream sets are disjoint, so one validation pass amortizes over the
  whole batch;
* every solve climbs one serial **fallback ladder** — the analytic
  fast path (or, with it off, incremental earliest-fit around the
  frozen schedule), then a full :func:`schedule_etsn` re-solve, then a
  restart-boosted :func:`schedule_heuristic` — each rung tried once
  under its own wall-clock timeout;
* an infeasible request is a **structured rejection**
  (:class:`~repro.service.requests.Decision`), never an exception
  escaping the service;
* accepted batches publish a new snapshot to the
  :class:`~repro.service.store.ScheduleStore` (readers keep their old
  version) and optionally emit an 802.1Qcc
  :class:`~repro.cnc.qcc.Deployment`;
* counters and latency histograms for every step live in an embedded
  :class:`~repro.service.metrics.MetricsRegistry`;
* with a :class:`~repro.obs.trace.Tracer` attached, every batch opens a
  span, every request inside it gets a child span stamped with its
  outcome, and every ladder rung attempt records a ``admission.rung``
  span wrapping the actual ``solve`` — the request → rung → solve
  chain ``repro trace summarize`` aggregates.  SMT solves additionally
  fold their :class:`~repro.smt.sat.SolverStats` into ``solver.*``
  counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.proof import CertificateError
from repro.check.sanitizer import make_lock
from repro.cnc.qcc import Deployment, deployment_from_schedule
from repro.core.baselines import schedule_etsn
from repro.core.heuristic import schedule_heuristic
from repro.core.incremental import add_ect_stream, add_tct_stream, remove_stream
from repro.core.probabilistic import possibility_names
from repro.core.schedule import (
    CertifiedInfeasibleError,
    InfeasibleError,
    NetworkSchedule,
    ScheduleError,
    validate,
)
from repro.model.stream import EctStream, Stream, StreamError, StreamType
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service import fastpath as fastpath_module
from repro.service.fastpath import RUNG_FASTPATH, FastPathResult
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
    Remove,
)
from repro.service.store import ScheduleStore, StaleVersionError
from repro.smt.warmstart import WarmStartCache

#: Ladder rung names, in climb order (``RUNG_FASTPATH`` sits below the
#: ladder and is re-exported from :mod:`repro.service.fastpath`).
RUNG_INCREMENTAL = "incremental"
RUNG_FULL = "full"
RUNG_HEURISTIC = "heuristic"
LADDER_RUNGS = (RUNG_INCREMENTAL, RUNG_FULL, RUNG_HEURISTIC)

#: How often a batch may rebase onto a fresh snapshot after losing the
#: publish CAS race to another writer sharing the store, before it is
#: rejected with reason ``"cas_exhausted"``.
MAX_REBASE_ATTEMPTS = 8

#: Rejection reason after the rebase budget is spent.
REASON_CAS_EXHAUSTED = "cas_exhausted"


class RungTimeout(RuntimeError):
    """One ladder rung exceeded its wall-clock budget."""


@dataclass(frozen=True)
class RungConfig:
    """Budget of one ladder rung.

    Each rung is tried exactly once: both solvers are deterministic, so
    a repeat would redo identical work.  A timeout, a solver error or an
    :class:`InfeasibleError` all climb to the next rung.
    """

    name: str
    timeout_s: Optional[float] = 30.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one admission service instance."""

    #: backend for the full re-solve rung ("heuristic" or "smt").
    backend: str = "heuristic"
    reservation_mode: str = "paper"
    guard_margin_ns: int = 0
    #: restart budget of the last-resort heuristic rung (the default
    #: budget is ``2 * streams + 4``; this floor keeps the last rung
    #: strictly more persistent than the full re-solve's default).
    heuristic_min_restarts: int = 128
    #: largest number of requests validated as one batch.
    max_batch: int = 8
    #: build an 802.1Qcc Deployment (GCL + talker offsets) per accepted
    #: batch; off by default to keep the admission hot path lean.
    emit_deployments: bool = False
    gcl_mode: str = "etsn"
    #: run the full-rung SMT solve with proof logging and have the
    #: independent checker (:mod:`repro.check`) verify every verdict:
    #: UNSAT proofs replay before a rejection is final, SAT models are
    #: evaluated against the original constraints before a schedule
    #: publishes.  Requires ``backend='smt'``.
    certify: bool = False
    #: decide the common case analytically before any solver rung runs
    #: (:mod:`repro.service.fastpath`): conclusive accepts and rejects
    #: in microseconds, anything else falls through to the ladder.
    #: Forced off under ``certify`` — certified verdicts must come from
    #: the proof-logging solver.
    fastpath: bool = True
    #: reuse formula-independent DPLL(T) state (theory lemmas, branching
    #: heuristics, potentials) across consecutive full-rung SMT solves
    #: on one snapshot; invalidated on every publish.  No-op for the
    #: heuristic backend and under ``certify``.
    warm_start: bool = True
    #: the ladder, in climb order.  With the fast path on, the
    #: ``incremental`` rung is skipped: the fast path's constructive
    #: attempt already ran that placement (and more — sharing TCT goes
    #: through ``add_shared_tct_stream``).
    rungs: Tuple[RungConfig, ...] = (
        RungConfig(RUNG_INCREMENTAL),
        RungConfig(RUNG_FULL),
        RungConfig(RUNG_HEURISTIC),
    )


@dataclass
class _Batch:
    """One ladder attempt over a compatible request group."""

    requests: List[AdmissionRequest]
    batch_id: int


class AdmissionService:
    """Serves admit/remove requests against a :class:`ScheduleStore`."""

    def __init__(
        self,
        store: ScheduleStore,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
        on_deploy: Optional[Callable[[Deployment], None]] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self._store = store
        self._config = config or ServiceConfig()
        if self._config.certify and self._config.backend != "smt":
            raise ValueError(
                "ServiceConfig.certify requires backend='smt' "
                f"(got {self._config.backend!r})"
            )
        if self._config.max_batch < 1:
            raise ValueError(
                f"ServiceConfig.max_batch must be >= 1, got "
                f"{self._config.max_batch}"
            )
        unknown = [
            r.name for r in self._config.rungs if r.name not in LADDER_RUNGS
        ]
        if unknown:
            raise ValueError(
                f"unknown ladder rung(s) {unknown}; expected names from "
                f"{list(LADDER_RUNGS)}"
            )
        self._metrics = metrics if metrics is not None else store.metrics
        self._clock = clock
        self._on_deploy = on_deploy
        # Disabled tracing is the no-op singleton, not None: the spans
        # below cost one call each either way, no branching on hot paths.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Same contract for the structured event journal.
        self._events = events if events is not None else NULL_EVENT_LOG
        self._request_spans: Dict[int, object] = {}
        self._write_lock = make_lock("AdmissionService._write_lock")
        self._request_counter = 0
        self._batch_counter = 0
        self._last_deployment: Optional[Deployment] = None
        self._fastpath_on = (
            self._config.fastpath and not self._config.certify
        )
        self._rungs = tuple(
            rung for rung in self._config.rungs
            if not (self._fastpath_on and rung.name == RUNG_INCREMENTAL)
        )
        self._warm_cache: Optional[WarmStartCache] = (
            WarmStartCache()
            if (self._config.backend == "smt"
                and self._config.warm_start
                and not self._config.certify)
            else None
        )

    # -- public surface ------------------------------------------------
    @property
    def store(self) -> ScheduleStore:
        return self._store

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def events(self) -> EventLog:
        return self._events

    @property
    def last_deployment(self) -> Optional[Deployment]:
        return self._last_deployment

    def metrics_json(self, indent: Optional[int] = None) -> str:
        return self._metrics.to_json(indent=indent)

    def submit(self, request: AdmissionRequest) -> Decision:
        """Decide one request immediately."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        """Decide a request stream, batching compatible neighbours.

        Consecutive requests whose stream names are disjoint are solved
        and validated as one batch (bounded by ``max_batch``); a batch
        that fails every rung is splintered and re-tried one request at
        a time, so an infeasible newcomer cannot drag its batch-mates
        down with it.
        """
        decisions: List[Decision] = []
        with self._write_lock:
            for batch in self._coalesce(requests):
                decisions.extend(self._process_batch(batch))
        if self._tracer.enabled:
            # silent span loss was invisible before: surface the ring's
            # eviction count so `repro metrics` shows the blind spot
            self._metrics.gauge("tracer.spans_dropped").set(
                self._tracer.dropped
            )
        if self._events.enabled:
            self._metrics.gauge("events.dropped").set(self._events.dropped)
        return decisions

    def solve_against(
        self,
        schedule: NetworkSchedule,
        requests: Sequence[AdmissionRequest],
    ) -> Tuple[Optional[Tuple[str, NetworkSchedule]], Dict[str, str]]:
        """Screen and solve ``requests`` against an arbitrary base
        schedule *without publishing* anything.

        This is the prepare half of a two-phase cross-shard publish
        (:mod:`repro.cluster.twophase`): the coordinator pins a store
        snapshot, solves against the pin here, and publishes later via
        CAS.  Returns ``((rung, new schedule), attempts)`` on success or
        ``(None, attempts)`` where ``attempts`` carries per-rung (or
        screening) failure reasons.  Touches no service state beyond
        metrics/tracing, so it is safe to call concurrently with
        :meth:`submit_many`.
        """
        viable: List[AdmissionRequest] = []
        attempts: Dict[str, str] = {}
        for request in requests:
            problem = self._screen(request, schedule, viable)
            if problem is not None:
                attempts["screen"] = f"{request.stream_name}: {problem}"
                return None, attempts
            viable.append(request)
        if not viable:
            attempts["screen"] = "no requests to solve"
            return None, attempts
        return self._climb_ladder(schedule, viable)

    # -- batching ------------------------------------------------------
    def _coalesce(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[_Batch]:
        batches: List[_Batch] = []
        current: List[AdmissionRequest] = []
        names: set = set()
        for request in requests:
            clash = request.stream_name in names
            if current and (clash or len(current) >= self._config.max_batch):
                batches.append(self._new_batch(current))
                current, names = [], set()
            current.append(request)
            names.add(request.stream_name)
        if current:
            batches.append(self._new_batch(current))
        return batches

    def _new_batch(self, requests: List[AdmissionRequest]) -> _Batch:
        # reached only from submit_many, under _write_lock
        self._batch_counter += 1  # repro: lint-ok[lock-discipline]
        return _Batch(requests=list(requests), batch_id=self._batch_counter)

    # -- batch processing ----------------------------------------------
    def _process_batch(self, batch: _Batch) -> List[Decision]:
        with self._tracer.span(
            "admission.batch",
            batch_id=batch.batch_id,
            size=len(batch.requests),
        ) as batch_span:
            spans: Dict[int, object] = {}
            if self._tracer.enabled:
                for request in batch.requests:
                    spans[id(request)] = self._tracer.start_span(
                        "admission.request", parent=batch_span,
                        op=request.op, stream=request.stream_name,
                    )
            outer = self._request_spans
            # reached only from submit_many, under _write_lock
            self._request_spans = spans  # repro: lint-ok[lock-discipline]
            try:
                return self._process_batch_traced(batch)
            finally:
                self._request_spans = outer  # repro: lint-ok[lock-discipline]
                # Requests decided by a splintered or rebased sub-batch
                # got their outcome on the sub-batch's span; close the
                # superseded batch-level span without one.
                for span in spans.values():
                    self._tracer.finish(span)

    def _process_batch_traced(self, batch: _Batch) -> List[Decision]:
        """Decide a batch, rebasing onto fresh snapshots a bounded
        number of times when the publish CAS loses to another writer.

        The write lock makes a conflict unreachable from this service
        instance, but the store may be shared between services; bounding
        the loop keeps a pathologically contended store from recursing
        without limit — the batch is rejected with
        :data:`REASON_CAS_EXHAUSTED` instead.
        """
        for attempt in range(MAX_REBASE_ATTEMPTS):
            decisions = self._attempt_batch(batch)
            if decisions is not None:
                return decisions
            self._metrics.counter("batches.rebased").inc()
            if self._events.enabled:
                self._events.emit(
                    "admission.cas_retry", attempt=attempt + 1,
                    batch_id=batch.batch_id,
                    requests=[r.stream_name for r in batch.requests],
                )
        self._metrics.counter("batches.rebase_exhausted").inc()
        if self._events.enabled:
            self._events.emit(
                "admission.cas_exhausted", attempts=MAX_REBASE_ATTEMPTS,
                batch_id=batch.batch_id,
                requests=[r.stream_name for r in batch.requests],
            )
        return [
            self._decide(
                request, batch, accepted=False,
                reason=REASON_CAS_EXHAUSTED,
            )
            for request in batch.requests
        ]

    def _attempt_batch(self, batch: _Batch) -> Optional[List[Decision]]:
        """One snapshot -> solve -> publish attempt; ``None`` on a lost
        CAS race (the caller rebases)."""
        started = self._clock()
        self._metrics.counter("batches.total").inc()
        self._metrics.histogram("batch.size").observe(len(batch.requests))

        snapshot = self._store.snapshot()
        viable: List[AdmissionRequest] = []
        rejected: Dict[int, Decision] = {}
        for position, request in enumerate(batch.requests):
            problem = self._screen(request, snapshot.schedule, viable)
            if problem is None:
                viable.append(request)
            else:
                rejected[position] = self._decide(
                    request, batch, accepted=False, reason=problem,
                    latency_ms=0.0,
                )

        outcome: Optional[Tuple[str, NetworkSchedule]] = None
        attempts: Dict[str, str] = {}
        if viable:
            outcome, attempts = self._climb_ladder(snapshot.schedule, viable)

        if viable and outcome is None and len(viable) > 1:
            # Amortization failed for the group: decide each request on
            # its own so feasible batch-mates are not dragged down.
            self._metrics.counter("batches.splintered").inc()
            decisions_by_request = {}
            for request in viable:
                decisions_by_request[id(request)] = self._process_batch(
                    self._new_batch([request])
                )[0]
            ordered: List[Decision] = []
            for position, request in enumerate(batch.requests):
                if position in rejected:
                    ordered.append(rejected[position])
                else:
                    ordered.append(decisions_by_request[id(request)])
            return ordered

        latency_ms = (self._clock() - started) * 1e3
        version: Optional[int] = None
        rung: Optional[str] = None
        if outcome is not None:
            rung, schedule = outcome
            try:
                version = self._store.publish(
                    schedule, expected_version=snapshot.version
                ).version
            except StaleVersionError:
                # Lost the CAS race to a writer sharing the store:
                # signal the bounded rebase loop to retry on a fresh
                # snapshot.
                return None
            if self._warm_cache is not None:
                # the published snapshot obsoletes every cached solver
                # state — the next full solve starts from the new base
                dropped = self._warm_cache.invalidate()
                if dropped:
                    self._metrics.counter(
                        "warmstart.invalidations"
                    ).inc(dropped)
            self._emit_deployment(schedule)

        ordered = []
        for position, request in enumerate(batch.requests):
            if position in rejected:
                ordered.append(rejected[position])
            elif outcome is not None:
                ordered.append(self._decide(
                    request, batch, accepted=True, rung=rung,
                    latency_ms=latency_ms, store_version=version,
                    batch_size=len(viable), attempts=attempts,
                ))
            else:
                ordered.append(self._decide(
                    request, batch, accepted=False,
                    reason=self._rejection_reason(attempts),
                    latency_ms=latency_ms, batch_size=len(viable),
                    attempts=attempts,
                ))
        return ordered

    def _decide(
        self,
        request: AdmissionRequest,
        batch: _Batch,
        accepted: bool,
        rung: Optional[str] = None,
        reason: Optional[str] = None,
        latency_ms: float = 0.0,
        store_version: Optional[int] = None,
        batch_size: int = 1,
        attempts: Optional[Dict[str, str]] = None,
    ) -> Decision:
        # _decide runs inside batch processing, under _write_lock
        self._request_counter += 1  # repro: lint-ok[lock-discipline]
        self._metrics.counter("requests.total").inc()
        self._metrics.counter(
            "requests.admitted" if accepted else "requests.rejected"
        ).inc()
        self._metrics.counter(
            f"decisions.{rung if accepted else 'rejected'}"
        ).inc()
        self._metrics.histogram("latency.decision_ms").observe(latency_ms)
        if not accepted:
            # rejections get their own latency distribution: a reject
            # that climbs the whole ladder is the worst case
            # the fast path's conclusive verdicts are meant to cut
            self._metrics.histogram("latency.rejected_ms").observe(
                latency_ms
            )
        span = self._request_spans.pop(id(request), None)
        if span is not None:
            span.set(
                request_id=self._request_counter, accepted=accepted,
                rung=rung, reason=reason,
            )
            self._tracer.finish(span)
        if self._events.enabled:
            self._events.emit(
                "admission.decision",
                trace_id=getattr(span, "trace_id", None),
                span_id=getattr(span, "span_id", None),
                request=request.stream_name, op=request.op,
                accepted=accepted, rung=rung, reason=reason,
                latency_ms=round(latency_ms, 3),
                store_version=store_version,
            )
        return Decision(
            request_id=self._request_counter,
            op=request.op,
            stream=request.stream_name,
            accepted=accepted,
            rung=rung,
            reason=reason,
            latency_ms=latency_ms,
            store_version=store_version,
            batch_id=batch.batch_id,
            batch_size=batch_size,
            attempts=dict(attempts or {}),
        )

    @staticmethod
    def _rejection_reason(attempts: Dict[str, str]) -> str:
        detail = "; ".join(f"{rung}: {why}" for rung, why in attempts.items())
        return f"all ladder rungs failed ({detail})"

    # -- request screening ---------------------------------------------
    def _screen(
        self,
        request: AdmissionRequest,
        schedule: NetworkSchedule,
        batch_so_far: Sequence[AdmissionRequest],
    ) -> Optional[str]:
        """Cheap structural checks before any solver runs.

        Returns a rejection reason, or ``None`` when the request is
        worth a solve.
        """
        taken = {s.name for s in schedule.streams}
        taken.update(e.name for e in schedule.ect_streams)
        pending = {r.stream_name for r in batch_so_far}
        name = request.stream_name
        if isinstance(request, (AdmitTct, AdmitEct)):
            if name in taken or name in pending:
                return f"stream name {name!r} already in use"
            # an ECT's possibilities are streams too: their names must
            # not clash with a scheduled or pending stream either way
            taken |= pending
            taken.update(
                p for r in batch_so_far if isinstance(r, AdmitEct)
                for p in possibility_names(r.ect)
            )
            claimed = (
                possibility_names(request.ect)
                if isinstance(request, AdmitEct) else [name]
            )
            clash = next((p for p in claimed if p in taken), None)
            if clash is not None:
                return f"stream name {clash!r} already in use"
            try:
                if isinstance(request, AdmitTct):
                    request.requirement.resolve(schedule.topology)
                else:
                    request.ect.route(schedule.topology)
            except (StreamError, ValueError, KeyError) as exc:
                return f"unroutable request: {exc}"
            return None
        if isinstance(request, Remove):
            is_ect = any(e.name == name for e in schedule.ect_streams)
            is_tct = any(
                s.name == name and s.type == StreamType.DET
                for s in schedule.streams
            )
            if not (is_ect or is_tct):
                return f"no stream named {name!r} to remove"
            if name in pending:
                return f"stream {name!r} already touched by this batch"
            return None
        return f"unsupported request type {type(request).__name__}"

    # -- the fallback ladder -------------------------------------------
    def _climb_ladder(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> Tuple[Optional[Tuple[str, NetworkSchedule]], Dict[str, str]]:
        """Decide analytically if possible, otherwise climb the rungs.

        The fast path goes first: a conclusive accept returns without
        any solver call, a conclusive reject skips the whole ladder
        (the analytic checks are necessary conditions — no rung could
        succeed), and a fall-through climbs the remaining rungs in
        series until one succeeds.

        Returns ``((rung name, new schedule), attempts)`` on success or
        ``(None, attempts)`` with per-rung failure reasons.
        """
        attempts: Dict[str, str] = {}
        if self._fastpath_on:
            verdict = self._run_fastpath(schedule, batch, attempts)
            if verdict.verdict == fastpath_module.ACCEPT:
                return (RUNG_FASTPATH, verdict.schedule), attempts
            if verdict.verdict == fastpath_module.REJECT:
                return None, attempts
        solvers = {
            RUNG_INCREMENTAL: lambda: self._solve_incremental(schedule, batch),
            RUNG_FULL: lambda: self._solve_full(schedule, batch),
            RUNG_HEURISTIC: lambda: self._solve_heuristic(schedule, batch),
        }
        for rung in self._rungs:
            result = self._run_rung(rung, solvers[rung.name], attempts)
            if result is not None:
                return (rung.name, result), attempts
        return None, attempts

    def _run_fastpath(
        self,
        schedule: NetworkSchedule,
        batch: Sequence[AdmissionRequest],
        attempts: Dict[str, str],
    ) -> FastPathResult:
        """Run the analytic rung with full telemetry."""
        self._metrics.counter("rungs.fastpath.attempts").inc()
        started = self._clock()
        with self._tracer.span(
            "admission.rung", rung=RUNG_FASTPATH
        ) as rung_span:
            try:
                result = fastpath_module.evaluate(
                    schedule, batch,
                    guard_margin_ns=self._config.guard_margin_ns,
                    reservation_mode=self._config.reservation_mode,
                )
            except Exception as exc:  # noqa: BLE001 - keep the service up
                self._metrics.counter("rungs.fastpath.errors").inc()
                result = FastPathResult(
                    fastpath_module.INCONCLUSIVE,
                    f"{type(exc).__name__}: {exc}",
                )
            latency_ms = (self._clock() - started) * 1e3
            self._metrics.histogram(
                "latency.rung.fastpath_ms"
            ).observe(latency_ms)
            if result.verdict == fastpath_module.ACCEPT:
                self._metrics.counter("fastpath.accepts").inc()
                self._metrics.counter("rungs.fastpath.successes").inc()
                rung_span.set(outcome="success")
            elif result.verdict == fastpath_module.REJECT:
                self._metrics.counter("fastpath.rejects").inc()
                self._metrics.counter("rungs.fastpath.failures").inc()
                attempts[RUNG_FASTPATH] = result.reason
                rung_span.set(outcome="infeasible")
            else:
                self._metrics.counter("fastpath.fallthroughs").inc()
                attempts[RUNG_FASTPATH] = result.reason
                rung_span.set(outcome="fallthrough")
            if self._events.enabled:
                self._events.emit(
                    "admission.fastpath",
                    verdict=result.verdict, reason=result.reason,
                    requests=[r.stream_name for r in batch],
                    latency_ms=round(latency_ms, 3),
                )
        return result

    def _run_rung(
        self,
        rung: RungConfig,
        solver: Callable[[], NetworkSchedule],
        attempts: Dict[str, str],
    ) -> Optional[NetworkSchedule]:
        self._metrics.counter(f"rungs.{rung.name}.attempts").inc()
        started = self._clock()
        result: Optional[NetworkSchedule] = None
        with self._tracer.span("admission.rung", rung=rung.name) as rung_span:
            traced = self._traced_solver(solver, rung, rung_span)
            try:
                result = _call_with_timeout(
                    traced, rung.timeout_s, self._metrics,
                    events=self._events, rung_name=rung.name,
                )
            except RungTimeout as exc:
                self._metrics.counter(f"rungs.{rung.name}.timeouts").inc()
                attempts[rung.name] = str(exc)
                rung_span.set(outcome="timeout")
            except (InfeasibleError, ScheduleError, StreamError,
                    ValueError) as exc:
                self._metrics.counter(f"rungs.{rung.name}.failures").inc()
                attempts[rung.name] = str(exc)
                rung_span.set(outcome="infeasible")
                if isinstance(exc, CertifiedInfeasibleError):
                    # the rejection's UNSAT proof replayed cleanly
                    self._metrics.counter("certificates.verified_unsat").inc()
                    rung_span.set(certified=True)
            except Exception as exc:  # noqa: BLE001 - keep the service up
                self._metrics.counter(f"rungs.{rung.name}.errors").inc()
                attempts[rung.name] = f"{type(exc).__name__}: {exc}"
                rung_span.set(outcome="error")
                if isinstance(exc, CertificateError):
                    # a verdict failed independent checking: a solver
                    # bug — surfaced loudly, never silently admitted
                    self._metrics.counter("certificates.failed").inc()
                    rung_span.set(certified=False)
            else:
                self._metrics.counter(f"rungs.{rung.name}.successes").inc()
                rung_span.set(outcome="success")
                self._harvest_solver_stats(result)
            self._observe_rung_latency(rung, started)
        return result

    def _observe_rung_latency(self, rung: RungConfig, started: float) -> None:
        self._metrics.histogram(
            f"latency.rung.{rung.name}_ms"
        ).observe((self._clock() - started) * 1e3)

    def _traced_solver(
        self,
        solver: Callable[[], NetworkSchedule],
        rung: RungConfig,
        rung_span,
    ) -> Callable[[], NetworkSchedule]:
        """Wrap a rung's solver in a ``solve`` span.

        The solve may run on the timeout watchdog's worker thread, so
        the rung span is named as the parent explicitly — the tracer's
        per-thread stack cannot see across threads.
        """
        if not self._tracer.enabled:
            return solver

        def traced() -> NetworkSchedule:
            with self._tracer.span("solve", parent=rung_span,
                                   rung=rung.name):
                return solver()

        return traced

    def _harvest_solver_stats(self, result: NetworkSchedule) -> None:
        """Fold a solve's SMT search counters into the service metrics.

        The SMT backend records its :class:`~repro.smt.sat.SolverStats`
        snapshot in ``schedule.meta``; the heuristic backends have no
        CDCL core and contribute nothing here.
        """
        stats = result.meta.get("solver_stats")
        if isinstance(stats, dict):
            for key, value in stats.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    self._metrics.counter(f"solver.{key}").inc(value)
        certificate = result.meta.get("certificate")
        if isinstance(certificate, dict) and certificate.get("verified"):
            self._metrics.counter("certificates.verified_sat").inc()

    # rung 1: earliest-fit around the frozen schedule ------------------
    def _solve_incremental(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> NetworkSchedule:
        result = schedule
        last = len(batch) - 1
        for position, request in enumerate(batch):
            # validation is amortized: only the last operation validates
            check = position == last
            if isinstance(request, AdmitTct):
                result = add_tct_stream(
                    result,
                    request.requirement.resolve(result.topology),
                    guard_margin_ns=self._config.guard_margin_ns,
                    validate_result=check,
                )
            elif isinstance(request, AdmitEct):
                result = add_ect_stream(
                    result, request.ect,
                    guard_margin_ns=self._config.guard_margin_ns,
                    reservation_mode=self._config.reservation_mode,
                    validate_result=check,
                )
            else:
                result = remove_stream(
                    result, request.name, validate_result=check
                )
        return result

    # rungs 2/3: re-solve the target stream set from scratch -----------
    def _target_sets(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> Tuple[List[Stream], List[EctStream]]:
        """The stream population after applying the batch's operations."""
        removals = {r.name for r in batch if isinstance(r, Remove)}
        ects = [e for e in schedule.ect_streams if e.name not in removals]
        # probabilistic possibilities are regenerated from the ECT specs
        # by the solver, so only the deterministic population carries over
        tct = [
            s for s in schedule.streams
            if s.type == StreamType.DET and s.name not in removals
        ]
        for request in batch:
            if isinstance(request, AdmitTct):
                tct.append(request.requirement.resolve(schedule.topology))
            elif isinstance(request, AdmitEct):
                ects.append(request.ect)
        return tct, ects

    def _solve_full(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> NetworkSchedule:
        tct, ects = self._target_sets(schedule, batch)
        warm_state = None
        warm_sink = None
        cache = self._warm_cache
        if cache is not None:
            # keyed on the snapshot identity: every publish builds a new
            # schedule object, so a hit always means "same base formula
            # shape" — and the publish path invalidates explicitly too
            warm_state = cache.get(schedule)
            self._metrics.counter(
                "warmstart.hits" if warm_state is not None
                else "warmstart.misses"
            ).inc()
            warm_sink = lambda state: cache.put(schedule, state)  # noqa: E731
        result = schedule_etsn(
            schedule.topology, tct, ects,
            backend=self._config.backend,
            guard_margin_ns=self._config.guard_margin_ns,
            reservation_mode=self._config.reservation_mode,
            proof=self._config.certify,
            warm_start=warm_state,
            warm_state_sink=warm_sink,
        )
        result.meta["resolved_by"] = RUNG_FULL
        return result

    def _solve_heuristic(
        self, schedule: NetworkSchedule, batch: Sequence[AdmissionRequest]
    ) -> NetworkSchedule:
        tct, ects = self._target_sets(schedule, batch)
        restarts = max(
            self._config.heuristic_min_restarts,
            2 * (len(tct) + sum(e.possibilities for e in ects)) + 4,
        )
        result = schedule_heuristic(
            schedule.topology, tct, ects,
            max_restarts=restarts,
            guard_margin_ns=self._config.guard_margin_ns,
            reservation_mode=self._config.reservation_mode,
        )
        result.meta["resolved_by"] = RUNG_HEURISTIC
        return result

    # -- deployment emission -------------------------------------------
    def _emit_deployment(self, schedule: NetworkSchedule) -> None:
        if not self._config.emit_deployments:
            return
        if not schedule.streams and not schedule.ect_streams:
            # Retiring the last stream leaves nothing to program into the
            # switches; there is no GCL for an empty schedule.
            self._metrics.counter("deployments.skipped_empty").inc()
            return
        deployment = deployment_from_schedule(
            schedule, mode=self._config.gcl_mode
        )
        # deployments are emitted from the publish path, under _write_lock
        self._last_deployment = deployment  # repro: lint-ok[lock-discipline]
        self._metrics.counter("deployments.emitted").inc()
        if self._on_deploy is not None:
            self._on_deploy(deployment)


def _call_with_timeout(
    fn: Callable[[], NetworkSchedule],
    timeout_s: Optional[float],
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    rung_name: Optional[str] = None,
) -> NetworkSchedule:
    """Run ``fn`` under a wall-clock budget.

    ``None`` (or non-positive) runs inline.  Otherwise the solve runs in
    a daemon thread; on timeout the thread is abandoned (pure-python
    solvers cannot be preempted) and :class:`RungTimeout` raised — the
    orphan finishes in the background and its result is discarded.

    Abandonment is no longer silent: every orphaned thread bumps the
    ``solver.threads_abandoned`` counter, and the
    ``solver.orphans_running`` gauge tracks how many orphans are *still*
    burning CPU — the leak signal long cluster soak runs watch.
    """
    if timeout_s is None or timeout_s <= 0:
        return fn()
    outcome: Dict[str, object] = {}
    done = threading.Event()
    state = {"abandoned": False, "finished": False}
    state_lock = threading.Lock()

    def worker() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc
        finally:
            with state_lock:
                state["finished"] = True
                if state["abandoned"] and metrics is not None:
                    metrics.gauge("solver.orphans_running").add(-1)
            done.set()

    thread = threading.Thread(
        target=worker, name="repro-admission-solve", daemon=True
    )
    thread.start()
    if not done.wait(timeout_s):
        with state_lock:
            if not state["finished"]:
                # the solve is still running somewhere: count the orphan
                # now and have the worker decrement on eventual exit
                state["abandoned"] = True
                if metrics is not None:
                    metrics.counter("solver.threads_abandoned").inc()
                    metrics.gauge("solver.orphans_running").add(1)
                if events is not None and events.enabled:
                    events.emit(
                        "solver.abandoned", timeout_s=timeout_s,
                        rung=rung_name,
                    )
                raise RungTimeout(
                    f"solve exceeded {timeout_s:.3f}s budget"
                )
        # finished right on the deadline: take the result after all
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["value"]  # type: ignore[return-value]


def empty_schedule(topology) -> NetworkSchedule:
    """A zero-stream schedule to seed a store for a fresh network."""
    topology.validate()
    schedule = NetworkSchedule(
        topology=topology, streams=[], slots={}, ect_streams=[], meta={}
    )
    validate(schedule)
    return schedule
