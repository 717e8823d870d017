"""``frontend_mixed``: the benchmark's own client against the socket cluster.

Set-up starts ``repro frontend serve --cluster --shards 2 --seeds
SW1,SW4`` over the Fig. 13 topology as a child process and pre-populates
it over the socket with the 40 TCT streams of the 25 %-load Fig. 13/14
workload.  The client then offers the admit/remove mix of
:mod:`perfbench.gen` (random endpoints, so about half the routes cross
the shard boundary) on a fixed schedule over :data:`CONNECTIONS`
connections:

* a nominal phase, open loop at :data:`NOMINAL_RPS` (about an eighth
  of the raw capacity on one CPU, so the client and the server sharing
  it seldom queue for it), offered as :data:`WINDOW_S` windows; the
  latency metrics are medians over windows of each window's percentile
  round trip;
* a capacity phase, closed loop: :data:`CAPACITY_WINDOWS_PER_S`
  windows per second of run of :data:`CAPACITY_REQUESTS` requests
  each, with at most :data:`IN_FLIGHT` unanswered at any time (one full
  coalesced batch of the 2-shard server).  Each window's answered
  requests per second, scaled to the reference speed, is one sample;
  their median is the capacity.  It replaced a rate ladder (step up
  until the p99 misses a limit, then bisect), whose pass/fail steps
  turned one host stall into a whole step: the ladder's rate spread
  0.17-0.29 (IQR/median over ten seeds) from run to run, the closed
  loop's 0.02-0.04.

The client and the server child run pinned to one CPU.  On the shared
2-vCPU host this was tuned on, each vCPU switched between a fast and a
~1.7x slower state, for seconds to minutes, independently of the other
(the correlation of their speeds was 0), and the server's figures moved
with the state of whichever CPU it ran on.  On one CPU all of the
workload's work shares one state, which the client samples on that CPU
(:mod:`perfbench.host`) while it is idle, before each capacity window
and server start; capacity and set-up times are scaled to the reference
speed by the samples around them.  The nominal round trips are not
scaled: at 300 requests/s the CPU idles between requests and most of a
round trip is waking the client, the server and its executor thread,
which the reference loop does not track; scaled, the median round trip
spread 0.17 over ten seeds, unscaled 0.07.

Before each window the client waits for every answer.

Every open-loop request is timed from its due time, not from when the
client got round to sending it, so a stall in the client or server is
charged to every request it delays.  An admit and the remove that names
it go over the same connection, so the server sees them in order.  Each
accepted admit publishes and so invalidates the decision cache: the
cache is bypassed on this workload.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import gen, spans
from perfbench.host import HostMeter, reference_loop
from perfbench.result import Outcome
from perfbench.stats import (
    min_samples_for,
    percentile,
    ratio,
    tail,
    unattributed_ms,
)
from repro.experiments import simulation_topology, simulation_workload
from repro.frontend import protocol
from repro.model.stream import TctRequirement
from repro.serialization import topology_to_dict
from repro.service import AdmissionRequest, AdmitTct, Remove

SHARDS = 2
SEEDS = "SW1,SW4"
CONNECTIONS = 2
NOMINAL_RPS = 300.0
#: Share of the run spent at the nominal rate (the rest is the capacity
#: phase).
NOMINAL_SHARE = 0.4
#: The nominal phase is offered in windows of this length; latency
#: figures are medians over windows of each window's percentile,
#: so a host stall moves the window it lands in, not the median.
WINDOW_S = 1.0
#: Requests per capacity window (about 0.2 s at the raw capacity on
#: one CPU), and windows per second of run.
CAPACITY_REQUESTS = 500
CAPACITY_WINDOWS_PER_S = 4.0
#: Unanswered requests the capacity phase keeps in flight: the server
#: coalesces up to ``max_batch`` (32) x shards per backend call.
IN_FLIGHT = 64
TAIL = 0.99
#: Tail of the nominal-rate round trips reported as ``latency_tail_ms``.
#: The p99 (on stderr) is set by the few host stalls a run happens to
#: catch: one 100 ms stall delays 50 requests at 500/s, a whole 1 % of
#: a 10 s phase, and across seeds it moved by more than 2x.
E2E_TAIL = 0.9
#: Bounded wait for stragglers after a phase's last due time.
STRAGGLER_S = 10.0
SETUP_REPEATS = 5
#: Host samples before each capacity window and server start, and the
#: reference work before them.
HOST_SAMPLES = 3
HOST_WARM_S = 0.01
PREPOPULATE_LOAD = 0.25
SERVER_START_S = 60.0
SERVER_STOP_S = 30.0


# -- the server child ---------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    metrics_path: Path


def start_server(root: Path, workdir: Path, index: int) -> Server:
    topology_path = workdir / "topology.json"
    if not topology_path.exists():
        topology_path.write_text(
            json.dumps(topology_to_dict(simulation_topology()))
        )
    metrics_path = workdir / f"metrics-{index}.json"
    log_path = workdir / f"server-{index}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "frontend", "serve",
             "--topology", str(topology_path), "--cluster",
             "--shards", str(SHARDS), "--seeds", SEEDS, "--port", "0",
             "--metrics-out", str(metrics_path)],
            stdout=subprocess.PIPE, stderr=log, env=env, cwd=str(root),
        )
    ready, _, _ = select.select([process.stdout], [], [], SERVER_START_S)
    line = process.stdout.readline() if ready else b""
    if not line:
        stop_server(process)
        raise RuntimeError(
            f"frontend did not announce itself: {log_path.read_text()}"
        )
    announce = json.loads(line)["frontend"]
    return Server(process, announce["host"], announce["port"], metrics_path)


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=SERVER_STOP_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


# -- open-loop sending and its accounting -------------------------------
async def send_open_loop(
    count: int,
    due: Sequence[float],
    write: Callable[[int], Awaitable[None]],
    clock: Callable[[], float],
    sleep: Callable[[float], Awaitable[None]],
) -> List[float]:
    """Send request ``i`` (via ``write(i)``) once ``clock()`` reaches
    ``due[i]``; everything overdue goes out at once.  Returns the
    actual send times."""
    sent: List[float] = []
    index = 0
    while index < count:
        now = clock()
        while index < count and due[index] <= now:
            await write(index)
            sent.append(clock())
            index += 1
        if index < count:
            await sleep(due[index] - clock())
    return sent


async def send_closed_loop(
    count: int,
    window: int,
    write: Callable[[int], Awaitable[None]],
    in_flight: Callable[[], int],
    answered: Callable[[], Awaitable[bool]],
    clock: Callable[[], float],
) -> List[float]:
    """Send requests ``0 .. count-1`` (via ``write(i)``) in order,
    keeping at most ``window`` in flight; ``answered()`` waits for an
    answer and is false when none came in time, which stops sending.
    Returns the send times of the requests sent."""
    sent: List[float] = []
    while len(sent) < count:
        if in_flight() < window:
            await write(len(sent))
            sent.append(clock())
        elif not await answered():
            break
    return sent


@dataclass
class PhaseResult:
    #: what was offered, for messages: "300/s" or "closed loop"
    label: str
    #: round trips from due time, ms, of the answered requests
    rtt_ms: List[float]
    #: send time minus due time, ms
    late_ms: List[float]
    unanswered: int
    errors: Dict[str, int]
    #: answered requests per second, first due time to last answer
    achieved_per_s: float

    @property
    def attempted(self) -> int:
        return len(self.late_ms)

    @property
    def failed(self) -> int:
        return self.unanswered + sum(self.errors.values())


def account(
    label: str,
    due: Sequence[float],
    sent: Sequence[float],
    answers: Sequence[Optional[Tuple[float, Dict]]],
) -> PhaseResult:
    """Per-request timing of one phase.  ``answers[i]`` is
    ``(receive time, response)`` or ``None`` when unanswered."""
    rtt_ms, errors = [], {}
    unanswered = 0
    last = due[0]
    for due_at, answer in zip(due, answers):
        if answer is None:
            unanswered += 1
            continue
        received, response = answer
        last = max(last, received)
        if response.get("ok"):
            rtt_ms.append((received - due_at) * 1e3)
        else:
            kind = response.get("error", "unknown")
            errors[kind] = errors.get(kind, 0) + 1
    span = last - due[0]
    answered = len(due) - unanswered
    return PhaseResult(
        label=label,
        rtt_ms=rtt_ms,
        late_ms=[(s - d) * 1e3 for d, s in zip(due, sent)],
        unanswered=unanswered,
        errors=errors,
        achieved_per_s=answered / span if span > 0 else 0.0,
    )


def merged(phases: Sequence[PhaseResult]) -> PhaseResult:
    """Phases at one rate, as one."""
    errors: Dict[str, int] = {}
    for phase in phases:
        for kind, count in phase.errors.items():
            errors[kind] = errors.get(kind, 0) + count
    return PhaseResult(
        label=phases[0].label,
        rtt_ms=[x for p in phases for x in p.rtt_ms],
        late_ms=[x for p in phases for x in p.late_ms],
        unanswered=sum(p.unanswered for p in phases),
        errors=errors,
        achieved_per_s=min(p.achieved_per_s for p in phases),
    )


class Client:
    """Pipelined JSONL connections plus the responses they bring back.

    While a phase runs the readers only stamp and keep each response
    line; decoding waits until the phase is over, so the client's own
    work stays off the round trips it measures.  Responses come back in
    request order per connection, so counting lines tells when a phase
    is fully answered.
    """

    def __init__(self, payloads: Sequence[bytes], lanes: Sequence[int],
                 recorder=None) -> None:
        self._payloads = payloads
        self._lanes = lanes
        self._recorder = recorder or spans.NullRecorder()
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._lines: List[List[Tuple[float, bytes]]] = [
            [] for _ in range(CONNECTIONS)]
        self._decoded = [0] * CONNECTIONS
        self._sent = [0] * CONNECTIONS
        self._arrived = asyncio.Event()
        self.answers: Dict[int, Tuple[float, Dict]] = {}
        self.duplicates = 0
        self.strangers = 0
        self.decode_s = 0.0

    async def connect(self, host: str, port: int) -> None:
        for lane in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                host, port, limit=1 << 20
            )
            self._writers.append(writer)
            self._readers.append(
                asyncio.ensure_future(self._read(lane, reader)))

    def set_recorder(self, recorder) -> None:
        self._recorder = recorder

    async def _read(self, lane: int, reader: asyncio.StreamReader) -> None:
        clock = time.perf_counter
        lines = self._lines[lane]
        while True:
            line = await reader.readline()
            if not line:
                return
            lines.append((clock(), line))
            self._arrived.set()

    async def _write(self, index: int) -> None:
        with self._recorder.span("client.send"):
            lane = self._lanes[index]
            writer = self._writers[lane]
            writer.write(self._payloads[index])
            self._sent[lane] += 1
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()

    async def _sleep(self, seconds: float) -> None:
        with self._recorder.span("client.wait"):
            await asyncio.sleep(max(seconds, 0.0))

    def _outstanding(self) -> bool:
        return any(len(lines) < sent
                   for lines, sent in zip(self._lines, self._sent))

    def _in_flight(self) -> int:
        return sum(self._sent) - sum(len(lines) for lines in self._lines)

    async def _answered(self, deadline: float) -> bool:
        """Wait (until ``deadline``) for an answer; false on time-out."""
        self._arrived.clear()
        try:
            await asyncio.wait_for(
                self._arrived.wait(),
                max(deadline - time.perf_counter(), 0.0))
        except asyncio.TimeoutError:
            return False
        return True

    async def _collect(self, first: int, label: str, due: Sequence[float],
                       sent: Sequence[float], last_due: float) -> PhaseResult:
        """Wait (bounded) for every answer, decode them and account for
        requests ``first .. first+len(due)-1``."""
        deadline = last_due + STRAGGLER_S
        with self._recorder.span("client.wait"):
            while self._outstanding() and await self._answered(deadline):
                pass
        self._decode()
        return account(label, due, sent,
                       [self.answers.get(first + k) for k in range(len(due))])

    def _decode(self) -> None:
        with self._recorder.span("client.decode"):
            started = time.perf_counter()
            for lane, lines in enumerate(self._lines):
                for received, line in lines[self._decoded[lane]:]:
                    response = protocol.decode_response(line)
                    request_id = response.get("id")
                    if not isinstance(request_id, int) or not (
                            0 <= request_id < len(self._payloads)):
                        self.strangers += 1
                    elif request_id in self.answers:
                        self.duplicates += 1
                    else:
                        self.answers[request_id] = (received, response)
                self._decoded[lane] = len(lines)
            self.decode_s += time.perf_counter() - started

    @property
    def decoded(self) -> int:
        return sum(self._decoded)

    async def phase(self, first: int, count: int, rate: float) -> PhaseResult:
        """Offer requests ``first .. first+count-1`` open loop at
        ``rate``; wait (bounded) for their answers."""
        clock = time.perf_counter
        start = clock() + 0.01
        due = [start + k / rate for k in range(count)]
        sent = await send_open_loop(
            count, due, lambda k: self._write(first + k), clock, self._sleep
        )
        return await self._collect(first, f"{rate:g}/s", due, sent, due[-1])

    async def closed_phase(self, first: int, count: int) -> PhaseResult:
        """Offer requests ``first .. first+count-1`` closed loop with at
        most :data:`IN_FLIGHT` unanswered; each is due when it is sent.
        Requests never sent (an answer timed out) count as unanswered."""
        clock = time.perf_counter
        sent = await send_closed_loop(
            count, IN_FLIGHT, lambda k: self._write(first + k),
            self._in_flight,
            lambda: self._answered(clock() + STRAGGLER_S), clock,
        )
        due = list(sent) + [clock()] * (count - len(sent))
        return await self._collect(first, "closed loop", due, due,
                                   due[-1])

    async def close(self) -> None:
        """Close every connection and wait for its reader; idempotent."""
        writers, self._writers = self._writers, []
        readers, self._readers = self._readers, []
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in readers:
            try:
                await asyncio.wait_for(task, SERVER_STOP_S)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                task.cancel()


# -- requests -----------------------------------------------------------
def prepopulation() -> List[AdmissionRequest]:
    """The 25 %-load Fig. 13/14 TCT streams, as admits."""
    workload = simulation_workload(PREPOPULATE_LOAD, seed=1)
    return [
        AdmitTct(TctRequirement(
            name=stream.name, source=stream.path[0].src,
            destination=stream.path[-1].dst, period_ns=stream.period_ns,
            length_bytes=stream.length_bytes, e2e_ns=stream.e2e_ns,
            priority=stream.priority, share=stream.share,
        ))
        for stream in workload.tct_streams
    ]


def lane_of(request: AdmissionRequest, fallback: int) -> int:
    """Connection of a request: an admit and its remove share one."""
    name = request.stream_name
    if name.startswith(gen.NAME_PREFIX):
        return gen.admit_index(name) % CONNECTIONS
    return fallback % CONNECTIONS


def check_answers(
    requests: Sequence[AdmissionRequest],
    answers: Dict[int, Tuple[float, Dict]],
) -> List[str]:
    """Infeasible admits are rejected and every remove of an accepted
    stream is accepted (requests answered with an error are failures,
    counted elsewhere)."""
    problems = []
    accepted = set()
    for index, request in enumerate(requests):
        answer = answers.get(index)
        if answer is None or not answer[1].get("ok"):
            continue
        decision = answer[1]["decision"]
        if isinstance(request, AdmitTct):
            if decision["accepted"]:
                if gen.is_infeasible(request):
                    problems.append(f"infeasible {request.stream_name} "
                                    f"accepted")
                accepted.add(request.stream_name)
        elif isinstance(request, Remove):
            if request.name in accepted and not decision["accepted"]:
                problems.append(f"remove of accepted {request.name} "
                                f"rejected: {decision.get('reason')}")
            accepted.discard(request.name)
    return problems


@dataclass
class Session:
    server: Server
    client: Client
    prepopulated: int


async def _open_session(root: Path, workdir: Path, index: int,
                        requests: List[AdmissionRequest],
                        payloads: List[bytes]) -> Session:
    """Start a server, connect, pre-populate (ids past the mix's)."""
    server = start_server(root, workdir, index)
    client = None
    try:
        base = prepopulation()
        all_payloads = list(payloads) + [
            protocol.encode_request(r, len(payloads) + k)
            for k, r in enumerate(base)
        ]
        lanes = [lane_of(r, k) for k, r in enumerate(requests)]
        lanes += [k % CONNECTIONS for k in range(len(base))]
        client = Client(all_payloads, lanes)
        await client.connect(server.host, server.port)
        pre = await client.closed_phase(len(payloads), len(base))
        if pre.failed:
            raise RuntimeError(f"pre-population failed: {pre.errors}, "
                               f"{pre.unanswered} unanswered")
    except BaseException:
        if client is not None:
            await client.close()
        stop_server(server.process)
        raise
    accepted = sum(
        1 for k in range(len(base))
        if client.answers[len(payloads) + k][1]["decision"]["accepted"]
    )
    return Session(server, client, accepted)


@dataclass
class Step:
    """One window, with the host sample before it (capacity windows
    only)."""

    phase: PhaseResult
    tick: Optional[int]
    wall_s: float


@dataclass
class Offered:
    """What the timed phases of one run produced."""

    #: the nominal windows (the traced run: one untraced nominal phase)
    windows: List[Step]
    #: the closed-loop capacity windows
    capacity: List[Step]
    #: host samples around every capacity window
    meter: HostMeter
    #: the traced nominal-rate phase and its spans (traced run only)
    traced: Optional[Step] = None
    recorder: Optional[spans.SpanRecorder] = None

    @property
    def phases(self) -> List[PhaseResult]:
        extra = [self.traced] if self.traced else []
        return [s.phase for s in self.windows + self.capacity + extra]


def _request_budget(seconds: float, trace: bool) -> Tuple[int, int, int]:
    """Requests per nominal window, nominal windows (enough for the
    nominal phase's p99) and capacity windows (none when traced)."""
    per_window = int(NOMINAL_RPS * WINDOW_S)
    share = 0.5 if trace else NOMINAL_SHARE
    windows = max(int(seconds * share / WINDOW_S),
                  -(-min_samples_for(TAIL) // per_window))
    capacity = 0 if trace else max(
        int(seconds * (1 - share) * CAPACITY_WINDOWS_PER_S), 3)
    return per_window, windows, capacity


def sample_host(meter: HostMeter) -> int:
    """:data:`HOST_SAMPLES` samples after :data:`HOST_WARM_S` of
    unrecorded reference work: right after an idle stretch the first
    samples ran up to 1.6x slow, while the busy capacity windows and
    set-ups they scale did not."""
    until = time.perf_counter() + HOST_WARM_S
    while time.perf_counter() < until:
        reference_loop()
    for _ in range(HOST_SAMPLES):
        tick = meter.sample()
    return tick


async def _offer(client: Client, per_window: int, windows: int,
                 capacity: int, trace: bool) -> Offered:
    offered = Offered([], [], HostMeter())
    try:
        await _offer_phases(offered, client, per_window, windows, capacity,
                            trace)
    finally:
        sample_host(offered.meter)  # the samples after the last window
    return offered


async def _offer_phases(offered: Offered, client: Client, per_window: int,
                        windows: int, capacity: int, trace: bool) -> None:
    first = 0

    async def offer(count: int, rate: Optional[float]) -> Step:
        """Open loop at ``rate``, or closed loop (sampling the host
        first) when it is None."""
        nonlocal first
        tick = None if rate is not None else sample_host(offered.meter)
        started = time.perf_counter()
        if rate is None:
            phase = await client.closed_phase(first, count)
        else:
            phase = await client.phase(first, count, rate)
        first += count
        return Step(phase, tick, time.perf_counter() - started)

    if trace:
        # the same count at the same rate, untraced and then traced
        offered.windows.append(await offer(per_window * windows, NOMINAL_RPS))
        offered.recorder = spans.SpanRecorder()
        client.set_recorder(offered.recorder)
        offered.traced = await offer(per_window * windows, NOMINAL_RPS)
        client.set_recorder(spans.NullRecorder())
        return
    for _ in range(windows):
        offered.windows.append(await offer(per_window, NOMINAL_RPS))
    for _ in range(capacity):
        offered.capacity.append(await offer(CAPACITY_REQUESTS, None))


async def _run(root: Path, workdir: Path, seed: int, seconds: float,
               trace: bool) -> Outcome:
    per_window, windows, capacity = _request_budget(seconds, trace)
    total = (per_window * windows * (2 if trace else 1)
             + capacity * CAPACITY_REQUESTS)
    devices = [d.name for d in simulation_topology().devices]
    requests = gen.admission_mix(seed, total, devices)
    encode_started = time.perf_counter()
    payloads = [protocol.encode_request(r, k) for k, r in enumerate(requests)]
    encode_us = (time.perf_counter() - encode_started) * 1e6 / len(payloads)

    sessions: List[Session] = []
    try:
        meter = HostMeter()
        durations, ticks = [], []
        for index in range(SETUP_REPEATS):
            ticks.append(sample_host(meter))
            started = time.perf_counter()
            sessions.append(await _open_session(
                root, workdir, index, requests, payloads))
            durations.append(time.perf_counter() - started)
        sample_host(meter)
        setup_s = median(meter.scale(durations, ticks))
        for stale in sessions[:-1]:
            await stale.client.close()
            stop_server(stale.server.process)
        session = sessions[-1]
        # the client's own collector pauses would count against the server
        gc.collect()
        gc.disable()
        try:
            offered = await _offer(session.client, per_window, windows,
                                   capacity, trace)
        finally:
            gc.enable()
        rss_mb = peak_rss_mb(session.server.process.pid)
    finally:
        for opened in sessions:
            await opened.client.close()
            stop_server(opened.server.process)
    return _outcome(session, requests, offered, setup_s, rss_mb, encode_us)


def _outcome(session: Session, requests: Sequence[AdmissionRequest],
             offered: Offered, setup_s: float, rss_mb: float,
             encode_us: float) -> Outcome:
    client = session.client
    phases = offered.phases
    sent = requests[: sum(p.attempted for p in phases)]
    problems = check_answers(sent, client.answers)
    if client.duplicates or client.strangers:
        problems.append(f"{client.duplicates} duplicate and "
                        f"{client.strangers} unknown response ids")
    for phase in phases:
        if phase.unanswered:
            problems.append(f"{phase.unanswered} requests at "
                            f"{phase.label} never answered")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    nominal = merged([w.phase for w in offered.windows])
    p99 = tail(nominal.rtt_ms, TAIL)
    report: Dict[str, object] = {
        "rtt_p99_ms": p99.value, "samples": p99.count,
        "beyond_p99": p99.beyond,
        "prepopulated_accepted": session.prepopulated,
        "accepted_admits": sum(
            1 for k, r in enumerate(sent)
            if isinstance(r, AdmitTct) and k in client.answers
            and client.answers[k][1].get("ok")
            and client.answers[k][1]["decision"]["accepted"]
        ),
        "failed_frac": ratio(failed, attempted),
    }
    if offered.recorder is None:
        factors = offered.meter.factors()

        def windowed(fraction: float) -> float:
            pick = tail if fraction > 0.5 else percentile
            return median(pick(w.phase.rtt_ms, fraction).value
                          for w in offered.windows)

        p50, p90 = windowed(0.5), windowed(E2E_TAIL)
        raw = [s.phase.achieved_per_s for s in offered.capacity]
        scaled = [rate * factors[s.tick]
                  for rate, s in zip(raw, offered.capacity)]
        capacity = median(scaled)
        report.update({
            "rtt_p50_ms": p50, "rtt_p90_ms": p90,
            "capacity_rps": capacity,
            "capacity_windows_rps": scaled,
            "raw_capacity_rps": raw,
            "host_speed_factor": offered.meter.speed(),
        })
        return Outcome(
            attempted=attempted, failed=failed, problems=problems,
            setup_s=setup_s,
            metrics={
                "throughput_per_s": capacity,
                "latency_p50_ms": p50,
                "latency_tail_ms": p90,
                "peak_rss_mb": rss_mb,
            },
            report=report,
        )

    with open(session.server.metrics_path) as handle:
        server_metrics = json.load(handle)
    self_ms = offered.recorder.self_ms()
    traced = offered.traced
    wall_ms = traced.wall_s * 1e3
    layers = {layer: self_ms.get(layer, 0.0) for layer in CLIENT_LAYERS}
    metrics = server_layers(server_metrics)
    metrics.update({
        "client.encode_us": encode_us,
        "client.decode_us": ratio(client.decode_s * 1e6, client.decoded),
        "client.gen_late_ms": percentile(traced.phase.late_ms, TAIL).value,
        "unattributed_ms": unattributed_ms(layers, wall_ms),
        "traced_wall_ms": wall_ms,
        # the same count at the same rate: an open loop's wall is set
        # by its schedule, so tracing shows only as a longer tail
        "trace_overhead_frac":
            traced.wall_s / offered.windows[0].wall_s - 1.0,
    })
    report["layers_self_ms"] = layers
    return Outcome(attempted=attempted, failed=failed, problems=problems,
                   setup_s=setup_s, metrics=metrics, report=report)


#: Layers of the traced client phase.  The layer-sum identity covers the
#: client process only: the server's layers run concurrently in another
#: process, so they come from its own export instead.
CLIENT_LAYERS = ("client.send", "client.decode", "client.wait")


def server_layers(exported: Dict) -> Dict[str, float]:
    """Per-layer metrics from the server's ``--metrics-out`` export
    (its whole lifetime, pre-population included)."""
    counters = exported.get("counters", {})
    histograms = exported.get("histograms", {})
    backend = exported.get("backend", {})
    backend_counters = backend.get("counters", {})
    backend_histograms = backend.get("histograms", {})

    def stat(table: Dict, name: str, key: str) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    hits = counters.get("frontend.cache.hits", 0)
    misses = counters.get("frontend.cache.misses", 0)
    return {
        "frontend.queue_wait_ms.p50":
            stat(histograms, "frontend.latency.queue_ms", "p50"),
        "frontend.queue_wait_ms.p99":
            stat(histograms, "frontend.latency.queue_ms", "p99"),
        "frontend.batch_ms.p50":
            stat(histograms, "frontend.latency.batch_ms", "p50"),
        "frontend.batch_size.mean":
            stat(histograms, "frontend.batch.size", "mean"),
        "frontend.cache_hit_ratio": ratio(hits, hits + misses),
        "frontend.busy": counters.get("frontend.rejected_busy", 0),
        "cluster.cross_frac": ratio(
            backend_counters.get("cluster.requests_cross", 0),
            backend_counters.get("cluster.requests_total", 0),
        ),
        "cluster.twophase.aborts":
            backend_counters.get("cluster.twophase.aborts", 0),
        "cluster.shard_batch_ms.p50":
            stat(backend_histograms, "cluster.latency.shard_batch_ms", "p50"),
        "cluster.cross_ms.p50":
            stat(backend_histograms, "cluster.latency.cross_ms", "p50"),
    }


def run(root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="frontend-", dir=scratch))
    cpus = os.sched_getaffinity(0)
    # the server children inherit the client's CPU
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return asyncio.run(_run(root, workdir, seed, seconds, trace))
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
