"""The cluster coordinator: sharded multi-tenant admission.

One :class:`ClusterCoordinator` fronts a fleet of per-shard
:class:`~repro.service.admission.AdmissionService` +
:class:`~repro.service.store.ScheduleStore` pairs, one per shard of a
:class:`~repro.cluster.partition.NetworkPartition`:

* **Shard-local requests** (the common case — industrial cells mostly
  talk within themselves) are routed to their shard and admitted fully
  in parallel on a thread pool; shards never contend on a shared store,
  which is where the throughput multiple over the single-store service
  comes from — each shard's incremental solve walks a schedule a
  fraction of the global size.
* **Cross-shard requests** split into per-shard route segments at the
  partition's boundary links and go through the two-phase publish of
  :mod:`repro.cluster.twophase`: prepare pins each shard's CAS version
  and solves the segments against the pinned snapshots, commit
  publishes all shards via ``expected_version`` CAS, and any conflict
  aborts and rolls back already-published shards.
* The **merged global view** (:meth:`ClusterCoordinator.global_schedule`)
  stitches the per-shard snapshots back into one
  :class:`~repro.core.schedule.NetworkSchedule` over the global
  topology; :meth:`ClusterCoordinator.audit` runs GCL synthesis plus
  :func:`~repro.core.gcl_audit.audit_gcl` on the stitched result, so a
  half-committed cross-shard stream can never hide.

Timing across a boundary is store-and-forward: each shard times its
segment on its own axis and the border switch buffers until the next
shard's slot opens (the per-domain stitching used by cycle-based
TSN deployments).  A cross-shard stream's end-to-end budget is split
across its segments proportionally to hop count (the splits sum exactly
to the budget), so each shard validates its segment against a share of
the deadline rather than the whole of it.  Per-link gate consistency —
what the audit checks — holds exactly, because every directed link is
scheduled by exactly one shard.  Cross-shard **ECT** admission is
rejected as a structured decision (reason
``cross_shard_ect_unsupported``): splitting an event's probabilistic
possibilities across independently-timed shards has no sound semantics
in the paper's model.  A route that leaves a shard and re-enters it
(possible with shortest paths on ring-containing topologies) is
rejected as ``reentrant_route_unsupported``: two disjoint sub-paths in
one shard cannot be expressed as a single source→destination
sub-admit.

Stream names are unique **cluster-wide**, not merely per shard: an
admit claims its name under the coordinator lock and is rejected with
``name_in_use`` when any shard already holds it (or a concurrent admit
is in flight for it) — otherwise two same-named streams on different
shards would corrupt the stitched global view and a ``Remove`` would
retire both.

All traffic for a shard must flow through the coordinator: its
per-shard locks are what let an aborting cross-shard commit roll back
with a guaranteed CAS, and its name claims are what keep stream names
unique across shards.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.gcl import NetworkGcl, build_gcl
from repro.core.gcl_audit import audit_gcl
from repro.core.schedule import NetworkSchedule
from repro.model.stream import Stream, StreamError, TctRequirement
from repro.model.topology import TopologyError
from repro.check.sanitizer import make_lock
from repro.obs.context import TraceContext
from repro.obs.events import NULL_EVENT_LOG, EventLog
from repro.obs.export import cluster_to_prometheus
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service import fastpath as fastpath_module
from repro.service.admission import AdmissionService, ServiceConfig, empty_schedule
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    AdmissionRequest,
    AdmitEct,
    AdmitTct,
    Decision,
    Remove,
)
from repro.service.store import ScheduleStore
from repro.cluster.partition import NetworkPartition, partition_topology
from repro.cluster.twophase import (
    CrossShardPublish,
    Participant,
    PrepareFailure,
)

#: Decision.rung value for accepted cross-shard requests.
RUNG_TWOPHASE = "twophase"

#: Structured rejection reasons the coordinator itself produces.
REASON_CROSS_ECT = "cross_shard_ect_unsupported"
REASON_UNROUTABLE = "unroutable"
REASON_UNKNOWN_STREAM = "unknown_stream"
REASON_NAME_IN_USE = "name_in_use"
REASON_REENTRANT = "reentrant_route_unsupported"


@dataclass
class _ShardRuntime:
    """One shard's store/service pair and its commit lock."""

    shard_name: str
    store: ScheduleStore
    service: AdmissionService
    lock: threading.Lock


@dataclass(frozen=True)
class _Placement:
    """Where one request goes: its shards, or an immediate rejection."""

    shards: Tuple[str, ...] = ()
    reject_reason: Optional[str] = None

    @property
    def is_local(self) -> bool:
        return len(self.shards) == 1 and self.reject_reason is None

    @property
    def is_cross(self) -> bool:
        return len(self.shards) > 1 and self.reject_reason is None


class ClusterCoordinator:
    """Routes admission traffic across a sharded store fleet."""

    def __init__(
        self,
        topology=None,
        partition: Optional[NetworkPartition] = None,
        shard_count: int = 4,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        max_workers: Optional[int] = None,
        max_commit_attempts: int = 4,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if partition is None:
            if topology is None:
                raise ValueError("need a topology or a partition")
            partition = partition_topology(topology, shard_count)
        self._partition = partition
        self._config = config or ServiceConfig()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # One tracer and one event journal are shared by the coordinator
        # and every shard service, so a cross-shard admission is a single
        # trace and the journal interleaves all shards chronologically.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._events = events if events is not None else NULL_EVENT_LOG
        self._clock = clock
        self._max_commit_attempts = max_commit_attempts
        self._runtimes: Dict[str, _ShardRuntime] = {}
        for shard in partition.shards:
            store = ScheduleStore(empty_schedule(shard.topology))
            self._runtimes[shard.name] = _ShardRuntime(
                shard_name=shard.name,
                store=store,
                service=AdmissionService(
                    store, config=self._config, tracer=self._tracer,
                    events=self._events,
                ),
                lock=make_lock(
                    "_ShardRuntime.lock",
                    group="cluster.shards", key=shard.name,
                ),
            )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or len(partition.shards),
            thread_name_prefix="repro-cluster",
        )
        self._metrics.gauge("cluster.shards").set(len(partition.shards))
        self._lock = make_lock("ClusterCoordinator._lock")
        self._request_counter = 0
        #: names claimed by admits between placement and decision,
        #: guarded by ``_lock`` — closes the window in which two
        #: concurrent admits could land the same name on two shards.
        self._inflight_names: set = set()

    # -- public surface ------------------------------------------------
    @property
    def partition(self) -> NetworkPartition:
        return self._partition

    @property
    def metrics(self) -> MetricsRegistry:
        """Cluster-level metrics (``cluster.*``); per-shard service and
        store metrics live on each shard's own registry."""
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @property
    def events(self) -> EventLog:
        return self._events

    def prometheus(self, namespace: str = "repro") -> str:
        """One Prometheus exposition for the whole cluster.

        Every shard registry's samples carry a ``shard`` label (per-rung
        admission latency per shard, ready to scrape); the coordinator's
        own ``cluster.*`` series ride along unlabelled.
        """
        return cluster_to_prometheus(
            {
                name: runtime.store.metrics.to_dict()
                for name, runtime in self._runtimes.items()
            },
            cluster_snapshot=self._metrics.to_dict(),
            namespace=namespace,
        )

    def merged_histograms(self) -> Dict[str, Dict]:
        """Every histogram of the coordinator and shard registries,
        merged by name into one cluster-wide summary each.

        The :meth:`MetricsRegistry.to_dict` ``histograms`` shape, so a
        ``cluster.*`` registry export carrying it feeds ``repro slo``
        (per-rung latency lives in the shard registries); the per-shard
        split stays in :meth:`prometheus`.
        """
        merged = MetricsRegistry()
        registries = [self._metrics] + [
            self._runtimes[name].store.metrics
            for name in sorted(self._runtimes)
        ]
        for registry in registries:
            for name, summary in registry.to_dict()["histograms"].items():
                merged.restore_histogram(name, summary)
        return merged.to_dict()["histograms"]

    def shard_service(self, name: str) -> AdmissionService:
        return self._runtime(name).service

    def shard_store(self, name: str) -> ScheduleStore:
        return self._runtime(name).store

    def shard_names(self) -> List[str]:
        return [shard.name for shard in self._partition.shards]

    def submit(self, request: AdmissionRequest) -> Decision:
        """Decide one request (local fast path or two-phase)."""
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Sequence[AdmissionRequest]
    ) -> List[Decision]:
        """Decide a request batch; shard-local work runs in parallel.

        Decisions come back in submission order.  Requests for
        different shards admit concurrently on the pool; requests for
        the same shard keep their relative order; cross-shard requests
        run after the local wave (their CAS would otherwise duel the
        very batches submitted next to them).  A repeated stream name
        splits the batch into sequential waves, so a remove (or
        re-admit) sees the effect of the earlier request it follows.
        """
        started = self._clock()
        with self._tracer.span(
            "cluster.batch", size=len(requests)
        ) as batch_span:
            decisions: List[Optional[Decision]] = [None] * len(requests)
            local_total = cross_total = 0
            for wave in self._waves(requests):
                local, cross = self._run_wave(requests, wave, decisions,
                                              batch_span)
                local_total += local
                cross_total += cross
            batch_span.set(local=local_total, cross=cross_total)
        self._metrics.histogram("cluster.latency.batch_ms").observe(
            (self._clock() - started) * 1e3
        )
        if self._tracer.enabled:
            self._metrics.gauge("tracer.spans_dropped").set(
                self._tracer.dropped
            )
        if self._events.enabled:
            self._metrics.gauge("events.dropped").set(self._events.dropped)
        return [d for d in decisions if d is not None]

    @staticmethod
    def _waves(requests: Sequence[AdmissionRequest]) -> List[List[int]]:
        """Split a batch into waves at repeated stream names.

        Placement consults live shard state (a remove routes to the
        shards holding the stream), so a request naming a stream an
        earlier batch-mate touches must wait until that wave lands.
        """
        waves: List[List[int]] = []
        current: List[int] = []
        names: set = set()
        for index, request in enumerate(requests):
            if request.stream_name in names:
                waves.append(current)
                current, names = [], set()
            current.append(index)
            names.add(request.stream_name)
        if current:
            waves.append(current)
        return waves

    def _run_wave(
        self,
        requests: Sequence[AdmissionRequest],
        wave: List[int],
        decisions: List[Optional[Decision]],
        batch_span,
    ) -> Tuple[int, int]:
        """Place and decide one wave; returns (local, cross) counts."""
        by_shard: Dict[str, List[int]] = {}
        cross: List[int] = []
        claimed: List[str] = []
        try:
            for index in wave:
                request = requests[index]
                self._metrics.counter("cluster.requests_total").inc()
                if isinstance(request, (AdmitTct, AdmitEct)):
                    problem = self._claim_name(request.stream_name)
                    if problem is not None:
                        self._metrics.counter(
                            "cluster.rejected_name_in_use"
                        ).inc()
                        decisions[index] = self._reject(request, problem)
                        continue
                    claimed.append(request.stream_name)
                placement = self._place(request)
                if placement.reject_reason is not None:
                    decisions[index] = self._reject(
                        request, placement.reject_reason
                    )
                elif placement.is_local:
                    by_shard.setdefault(placement.shards[0], []).append(index)
                else:
                    cross.append(index)

            # The pool workers' thread-local span stacks are empty, so
            # without an explicit hand-over every shard batch would
            # start a disconnected trace; capturing the batch span's
            # context here and re-entering it in the worker keeps the
            # whole fan-out under one trace_id.
            context = TraceContext.of(batch_span)
            futures = {}
            for shard_name, indices in by_shard.items():
                self._metrics.counter(
                    "cluster.requests_local"
                ).inc(len(indices))
                futures[shard_name] = self._pool.submit(
                    self._run_shard_batch,
                    shard_name,
                    [requests[i] for i in indices],
                    context,
                )
            for shard_name, indices in by_shard.items():
                for i, decision in zip(indices, futures[shard_name].result()):
                    decisions[i] = decision

            for index in cross:
                self._metrics.counter("cluster.requests_cross").inc()
                decisions[index] = self._submit_cross(
                    requests[index], batch_span
                )
        finally:
            # claims cover placement through publish; once the wave's
            # decisions are in, the stores themselves hold the names
            if claimed:
                with self._lock:
                    self._inflight_names.difference_update(claimed)
        return sum(len(v) for v in by_shard.values()), len(cross)

    def global_schedule(self) -> NetworkSchedule:
        """Stitch the per-shard snapshots into one global schedule.

        Cross-shard streams reappear whole: their per-shard segment
        streams chain back together at the border switches, and the
        merged slot table keys every directed link exactly once (each
        is scheduled by exactly one shard).
        """
        snapshots = {
            name: runtime.store.snapshot()
            for name, runtime in self._runtimes.items()
        }
        slots: Dict[Tuple[str, Tuple[str, str]], List] = {}
        by_name: Dict[str, List[Stream]] = {}
        ect_streams: List = []
        for name in sorted(snapshots):
            schedule = snapshots[name].schedule
            for key, frame_slots in schedule.slots.items():
                slots[key] = list(frame_slots)
            for stream in schedule.streams:
                by_name.setdefault(stream.name, []).append(stream)
            ect_streams.extend(schedule.ect_streams)
        streams = [
            _stitch_segments(name, segments)
            for name, segments in by_name.items()
        ]
        return NetworkSchedule(
            topology=self._partition.topology,
            streams=streams,
            slots=slots,
            ect_streams=ect_streams,
            meta={
                "cluster": {
                    "shard_versions": {
                        name: snapshots[name].version for name in snapshots
                    }
                }
            },
        )

    def audit(self, mode: Optional[str] = None) -> Optional[NetworkGcl]:
        """Synthesize and audit the GCL of the stitched global view.

        Raises :class:`~repro.core.gcl_audit.GclAuditError` if any gate
        program contradicts the stitched schedule — the invariant a
        two-phase abort must never break.  Returns ``None`` while the
        cluster is empty (there is no GCL for an empty schedule).

        The audit covers per-link gate consistency, which is exact
        (every directed link is scheduled by one shard).  Whole-path
        latency is *not* re-validated here: segments across a border
        run on independent shard time axes under store-and-forward
        hand-over, so adjacent-link ordering does not hold across
        borders by construction; each segment's deadline share was
        already validated by its shard at admission.
        """
        schedule = self.global_schedule()
        if not schedule.streams and not schedule.ect_streams:
            return None
        gcl = build_gcl(schedule, mode=mode or self._config.gcl_mode)
        audit_gcl(schedule, gcl)
        self._metrics.counter("cluster.audits").inc()
        return gcl

    def status(self) -> Dict:
        """JSON-able cluster summary: shards, versions, populations."""
        shards = {}
        for shard in self._partition.shards:
            runtime = self._runtimes[shard.name]
            snapshot = runtime.store.snapshot()
            shards[shard.name] = {
                "version": snapshot.version,
                "streams": len(snapshot.schedule.streams),
                "ect_streams": len(snapshot.schedule.ect_streams),
                "switches": list(shard.switches),
                "devices": list(shard.devices),
                "border_nodes": list(shard.border_nodes),
            }
        return {
            "shards": shards,
            "boundary_links": [list(k) for k in self._partition.boundary_links],
            "metrics": self._metrics.to_dict(),
        }

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    # -- placement -----------------------------------------------------
    def _place(self, request: AdmissionRequest) -> _Placement:
        if isinstance(request, Remove):
            holders = tuple(
                name for name, runtime in sorted(self._runtimes.items())
                if self._holds_stream(runtime, request.name)
            )
            if not holders:
                return _Placement(reject_reason=REASON_UNKNOWN_STREAM)
            return _Placement(shards=holders)
        try:
            if isinstance(request, AdmitTct):
                requirement = request.requirement
                path = self._partition.topology.shortest_path(
                    requirement.source, requirement.destination
                )
            elif isinstance(request, AdmitEct):
                path = list(request.ect.route(self._partition.topology))
            else:
                return _Placement(
                    reject_reason=(
                        f"unsupported request type {type(request).__name__}"
                    )
                )
        except (TopologyError, ValueError, KeyError) as exc:
            return _Placement(reject_reason=f"{REASON_UNROUTABLE}: {exc}")
        order = [s.shard for s in self._partition.split_route(path)]
        shards = tuple(dict.fromkeys(order))
        if isinstance(request, AdmitEct) and len(shards) > 1:
            self._metrics.counter("cluster.rejected_cross_ect").inc()
            return _Placement(reject_reason=REASON_CROSS_ECT)
        if len(order) != len(shards):
            # the route left a shard and came back (shortest paths can
            # do that on ring-containing topologies); two disjoint
            # sub-paths in one shard cannot be expressed as a single
            # source->destination sub-admit, so reject rather than
            # mis-solve
            self._metrics.counter("cluster.rejected_reentrant").inc()
            return _Placement(reject_reason=REASON_REENTRANT)
        return _Placement(shards=shards)

    def _claim_name(self, name: str) -> Optional[str]:
        """Atomically claim an admit's stream name, cluster-wide.

        Returns a rejection reason when any shard already holds the
        name or another in-flight admit claimed it; on ``None`` the
        name stays claimed until the wave releases it.
        """
        with self._lock:
            if name in self._inflight_names:
                return (
                    f"{REASON_NAME_IN_USE}: stream name {name!r} has a "
                    f"concurrent admit in flight"
                )
            for shard_name, runtime in sorted(self._runtimes.items()):
                if self._holds_stream(runtime, name):
                    return (
                        f"{REASON_NAME_IN_USE}: stream name {name!r} is "
                        f"already admitted on {shard_name}"
                    )
            self._inflight_names.add(name)
            return None

    @staticmethod
    def _holds_stream(runtime: _ShardRuntime, name: str) -> bool:
        schedule = runtime.store.schedule
        return any(s.name == name for s in schedule.streams) or any(
            e.name == name for e in schedule.ect_streams
        )

    # -- local path ----------------------------------------------------
    def _run_shard_batch(
        self,
        shard_name: str,
        requests: List[AdmissionRequest],
        context: Optional[TraceContext] = None,
    ) -> List[Decision]:
        """Run one shard's sub-batch on a pool worker.

        ``context`` is the coordinator batch span's trace context; the
        worker re-enters it so the shard batch (and every admission
        span the shard service opens beneath it) joins the caller's
        trace instead of rooting a new one.
        """
        runtime = self._runtime(shard_name)
        started = self._clock()
        with self._tracer.use_context(context):
            with self._tracer.span(
                "cluster.shard_batch", shard=shard_name, size=len(requests)
            ):
                with runtime.lock:
                    decisions = runtime.service.submit_many(requests)
        self._metrics.histogram("cluster.latency.shard_batch_ms").observe(
            (self._clock() - started) * 1e3
        )
        return decisions

    # -- cross-shard path ----------------------------------------------
    def _submit_cross(
        self, request: AdmissionRequest, parent_span
    ) -> Decision:
        """Admit or remove one cross-shard stream via two-phase publish."""
        started = self._clock()
        attempts: Dict[str, str] = {}
        if isinstance(request, AdmitTct) and self._config.fastpath:
            # Screen the *global* route before the two-phase machinery
            # spins up: the wire-time floor over the whole path is a
            # necessary condition regardless of how the e2e budget is
            # split across shard segments (store-and-forward can only
            # add latency), so a conclusive reject here saves a
            # prepare/abort round across every participant shard.
            reason = None
            try:
                stream = request.requirement.resolve(
                    self._partition.topology
                )
                reason = fastpath_module.screen_route(stream)
            except (StreamError, ValueError, KeyError):
                pass  # routing problems get their structured reason below
            if reason is not None:
                self._metrics.counter("cluster.fastpath_rejects").inc()
                attempts["fastpath"] = reason
                return self._reject(request, reason, attempts=attempts)
        try:
            participants = self._participants_for(request, attempts)
        except PrepareFailure as exc:
            return self._reject(request, str(exc), attempts=attempts)
        publish = CrossShardPublish(
            participants,
            metrics=self._metrics,
            tracer=self._tracer,
            parent_span=parent_span,
            events=self._events,
        )
        outcome = publish.execute(max_attempts=self._max_commit_attempts)
        self._metrics.histogram("cluster.latency.cross_ms").observe(
            (self._clock() - started) * 1e3
        )
        if not outcome.committed:
            return self._reject(request, outcome.reason, attempts=attempts)
        return self._decide_cross(request, outcome.versions, attempts)

    def _participants_for(
        self, request: AdmissionRequest, attempts: Dict[str, str]
    ) -> List[Participant]:
        """One participant per involved shard, each with a solve
        closure over that shard's sub-requests."""
        per_shard: Dict[str, List[AdmissionRequest]] = {}
        if isinstance(request, Remove):
            for name, runtime in sorted(self._runtimes.items()):
                if self._holds_stream(runtime, request.name):
                    per_shard[name] = [Remove(request.name)]
        elif isinstance(request, AdmitTct):
            for segment_request, shard_name in self._segment_requests(
                request.requirement, attempts
            ):
                per_shard.setdefault(shard_name, []).append(segment_request)
        else:
            raise PrepareFailure(REASON_CROSS_ECT)
        participants = []
        for shard_name, sub_requests in per_shard.items():
            runtime = self._runtime(shard_name)
            participants.append(Participant(
                name=shard_name,
                store=runtime.store,
                solve=self._solver_for(runtime, sub_requests, attempts),
                lock=runtime.lock,
            ))
        return participants

    def _segment_requests(
        self, requirement: TctRequirement, attempts: Dict[str, str]
    ) -> List[Tuple[AdmitTct, str]]:
        """Split a TCT requirement into one per-shard segment admit.

        Each segment keeps the stream's name, period, length and
        priority; the endpoints and the deadline change — a segment
        starts and ends on this shard's devices or border switches,
        and the stream's end-to-end budget is split across segments
        proportionally to hop count.  The shares sum exactly to the
        budget, so independently-timed segments that each meet their
        share keep the stitched stream inside its deadline up to the
        store-and-forward hand-over at the borders; the split is
        recorded in the decision's ``attempts["e2e_split"]`` so the
        caveat is visible to the caller.
        """
        path = self._partition.topology.shortest_path(
            requirement.source, requirement.destination
        )
        segments = self._partition.split_route(path)
        e2e = (requirement.e2e_ns if requirement.e2e_ns is not None
               else requirement.period_ns)
        total_hops = sum(len(segment.links) for segment in segments)
        budgets = [
            e2e * len(segment.links) // total_hops for segment in segments
        ]
        budgets[-1] += e2e - sum(budgets)  # rounding dust: exact sum
        if min(budgets) <= 0:
            raise PrepareFailure(
                f"e2e budget {e2e}ns cannot cover {len(segments)} shard "
                f"segments over {total_hops} hops"
            )
        attempts["e2e_split"] = " + ".join(
            f"{segment.shard}:{budget}ns"
            for segment, budget in zip(segments, budgets)
        ) + " (store-and-forward at borders)"
        return [
            (
                AdmitTct(replace(
                    requirement,
                    source=segment.source,
                    destination=segment.destination,
                    e2e_ns=budget,
                )),
                segment.shard,
            )
            for segment, budget in zip(segments, budgets)
        ]

    def _solver_for(
        self,
        runtime: _ShardRuntime,
        sub_requests: List[AdmissionRequest],
        attempts: Dict[str, str],
    ):
        def solve(pinned: NetworkSchedule) -> NetworkSchedule:
            # a child of cluster.prepare via the thread stack; the rung
            # and solve spans of the sub-solve nest beneath it, so the
            # trace shows which shard each prepare-phase solve ran for
            with self._tracer.span(
                "cluster.segment", shard=runtime.shard_name,
            ):
                outcome, rung_attempts = runtime.service.solve_against(
                    pinned, sub_requests
                )
            for rung, why in rung_attempts.items():
                attempts[f"{runtime.shard_name}.{rung}"] = why
            if outcome is None:
                raise PrepareFailure(
                    "; ".join(
                        f"{rung}: {why}"
                        for rung, why in rung_attempts.items()
                    ) or "sub-solve failed"
                )
            rung, schedule = outcome
            attempts[f"{runtime.shard_name}.rung"] = rung
            return schedule

        return solve

    # -- decisions -----------------------------------------------------
    def _next_request_id(self) -> int:
        with self._lock:
            self._request_counter += 1
            return self._request_counter

    def _reject(
        self,
        request: AdmissionRequest,
        reason: str,
        attempts: Optional[Dict[str, str]] = None,
    ) -> Decision:
        self._metrics.counter("cluster.rejected").inc()
        self._emit_decision(request, accepted=False, reason=reason)
        return Decision(
            request_id=self._next_request_id(),
            op=request.op,
            stream=request.stream_name,
            accepted=False,
            reason=reason,
            attempts=dict(attempts or {}),
        )

    def _decide_cross(
        self,
        request: AdmissionRequest,
        versions: Dict[str, int],
        attempts: Dict[str, str],
    ) -> Decision:
        if request.op == "remove":
            self._metrics.counter("cluster.removed_cross").inc()
        else:
            self._metrics.counter("cluster.admitted_cross").inc()
        self._emit_decision(
            request, accepted=True, rung=RUNG_TWOPHASE,
            shards=sorted(versions),
        )
        return Decision(
            request_id=self._next_request_id(),
            op=request.op,
            stream=request.stream_name,
            accepted=True,
            rung=RUNG_TWOPHASE,
            store_version=max(versions.values()) if versions else None,
            batch_size=len(versions),
            attempts=dict(attempts),
        )

    def _emit_decision(self, request, accepted, reason=None, rung=None,
                       shards=None) -> None:
        """Journal a coordinator-level verdict (cross commits, cluster
        rejects); shard-local verdicts are journalled by their shard's
        AdmissionService."""
        if not self._events.enabled:
            return
        context = self._tracer.current_context()
        attributes = {
            "request": request.stream_name, "op": request.op,
            "accepted": accepted, "scope": "cluster",
        }
        if reason is not None:
            attributes["reason"] = reason
        if rung is not None:
            attributes["rung"] = rung
        if shards is not None:
            attributes["shards"] = shards
        self._events.emit(
            "admission.decision",
            trace_id=getattr(context, "trace_id", None),
            span_id=getattr(context, "span_id", None),
            **attributes,
        )

    # -- internals -----------------------------------------------------
    def _runtime(self, name: str) -> _ShardRuntime:
        try:
            return self._runtimes[name]
        except KeyError:
            raise ValueError(f"no shard named {name!r}") from None


def _stitch_segments(name: str, segments: List[Stream]) -> Stream:
    """Chain a cross-shard stream's per-shard segments back together.

    Segments arrive in arbitrary shard order; the head is the one whose
    source no other segment delivers to, and each next segment starts
    where the previous one ended (the border switch).
    """
    if len(segments) == 1:
        return segments[0]
    ends = {segment.path[-1].dst for segment in segments}
    heads = [s for s in segments if s.path[0].src not in ends]
    if len(heads) != 1:
        raise ValueError(
            f"stream {name!r}: segments do not chain "
            f"({[(s.source, s.destination) for s in segments]})"
        )
    chain = [heads[0]]
    by_source = {s.path[0].src: s for s in segments if s is not heads[0]}
    while by_source:
        tail = chain[-1].path[-1].dst
        nxt = by_source.pop(tail, None)
        if nxt is None:
            raise ValueError(
                f"stream {name!r}: no segment continues from {tail!r}"
            )
        chain.append(nxt)
    path = tuple(link for segment in chain for link in segment.path)
    # per-segment deadlines were carved from the stream's budget and
    # sum back to it exactly (see ClusterCoordinator._segment_requests)
    return replace(
        chain[0],
        path=path,
        e2e_ns=sum(segment.e2e_ns for segment in chain),
    )
