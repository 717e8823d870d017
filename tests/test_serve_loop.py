"""`repro serve`'s stdin loop, with and without ``--cluster``: the
batching rule it promises and the requests it owes an answer."""

import json

import pytest

from repro.cli import main
from repro.cluster import ClusterCoordinator, partition_topology
from repro.experiments import simulation_topology
from repro.serialization import decision_to_dict, topology_to_dict
from repro.service import (
    AdmissionService,
    ScheduleStore,
    ServiceConfig,
    empty_schedule,
    request_from_dict,
)

MAX_BATCH = 4
SEEDS = ["SW1", "SW4"]
CLUSTER_FLAGS = ["--cluster", "--shards", "2", "--seeds", ",".join(SEEDS)]
FIELDS = ("op", "stream", "accepted", "rung", "store_version", "batch_id",
          "batch_size")

#: shard-local routes on both sides of the 2-shard partition, plus one
#: that crosses it
ROUTES = [("D1", "D4"), ("D9", "D12"), ("D2", "D5"), ("D7", "D11"),
          ("D1", "D12")]


def _admit(name, route, length=800):
    source, destination = route
    return {"op": "admit-tct", "name": name, "source": source,
            "destination": destination, "period_ns": 8_000_000,
            "length_bytes": length}


def _request_lines():
    """40 admits and removes; names repeat, so some admits collide with
    a live stream and some re-admit a removed one."""
    lines = []
    for index in range(32):
        lines.append(_admit(f"s{index % 10}", ROUTES[index % len(ROUTES)]))
        if index % 4 == 3:
            lines.append({"op": "remove", "name": f"s{(index - 2) % 10}"})
    assert len(lines) == 40
    return lines


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology_to_dict(simulation_topology())))
    return path


def _write_requests(tmp_path, lines):
    path = tmp_path / "requests.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path


def _printed_decisions(out):
    rows = [json.loads(line) for line in out.strip().splitlines()]
    return [row for row in rows if "op" in row]


def _key(row):
    return tuple(row[field] for field in FIELDS)


def _chunked(requests, size):
    return [requests[i:i + size] for i in range(0, len(requests), size)]


class TestBatchingRule:
    """`serve` submits chunks of ``max_batch x shards`` lines through
    the backend's ``submit_many``; nothing else shapes a decision."""

    def test_service_matches_submit_many_in_max_batch_chunks(
        self, topology_file, tmp_path, capsys
    ):
        lines = _request_lines()
        requests_file = _write_requests(tmp_path, lines)
        assert main(["serve", "--topology", str(topology_file),
                     "--requests", str(requests_file),
                     "--max-batch", str(MAX_BATCH)]) == 0
        served = _printed_decisions(capsys.readouterr().out)

        service = AdmissionService(
            ScheduleStore(empty_schedule(simulation_topology())),
            config=ServiceConfig(max_batch=MAX_BATCH),
        )
        expected = []
        for chunk in _chunked([request_from_dict(l) for l in lines],
                              MAX_BATCH):
            expected.extend(service.submit_many(chunk))
        assert [_key(row) for row in served] == [
            _key(decision_to_dict(d)) for d in expected
        ]
        outcomes = {row["accepted"] for row in served}
        assert outcomes == {True, False}

    def test_cluster_matches_submit_many_in_max_batch_x_shards_chunks(
        self, topology_file, tmp_path, capsys
    ):
        lines = _request_lines()
        requests_file = _write_requests(tmp_path, lines)
        assert main(["serve", "--topology", str(topology_file),
                     *CLUSTER_FLAGS, "--requests", str(requests_file),
                     "--max-batch", str(MAX_BATCH)]) == 0
        served = _printed_decisions(capsys.readouterr().out)

        coordinator = ClusterCoordinator(
            partition=partition_topology(simulation_topology(), 2,
                                         seeds=SEEDS),
            config=ServiceConfig(max_batch=MAX_BATCH),
        )
        expected = []
        try:
            for chunk in _chunked([request_from_dict(l) for l in lines],
                                  MAX_BATCH * 2):
                expected.extend(coordinator.submit_many(chunk))
        finally:
            coordinator.shutdown()
        assert [_key(row) for row in served] == [
            _key(decision_to_dict(d)) for d in expected
        ]
        assert "twophase" in {row["rung"] for row in served}


class TestMalformedLine:
    @pytest.mark.parametrize("backend_flags", [[], CLUSTER_FLAGS],
                             ids=["service", "cluster"])
    def test_requests_before_the_bad_line_are_decided_first(
        self, topology_file, tmp_path, capsys, backend_flags
    ):
        bad = {"op": "admit-tct", "name": "nosource", "destination": "D3",
               "period_ns": 8_000_000, "length_bytes": 800}
        requests_file = _write_requests(tmp_path, [
            _admit("a", ROUTES[0]), _admit("b", ROUTES[1]),
            _admit("c", ROUTES[2]), bad, _admit("d", ROUTES[3]),
        ])
        assert main(["serve", "--topology", str(topology_file),
                     *backend_flags, "--requests", str(requests_file)]) == 2
        captured = capsys.readouterr()
        decisions = _printed_decisions(captured.out)
        assert [d["stream"] for d in decisions] == ["a", "b", "c"]
        assert all(d["accepted"] for d in decisions)
        assert "requests line 4" in captured.err


class TestFlagScope:
    @pytest.mark.parametrize("flags", [
        ["--audit"],
        ["--prometheus-out", "x.prom"],
        ["--cluster", "--save-state", "x.json"],
        ["--cluster", "--emit-deployments"],
        ["--cluster", "--certify", "--backend", "smt"],
    ])
    def test_misplaced_flag_exits_2(self, topology_file, flags, capsys):
        assert main(["serve", "--topology", str(topology_file),
                     "--requests", "-", *flags]) == 2
        assert "--cluster" in capsys.readouterr().err

    def test_cluster_needs_a_topology(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("{}")
        assert main(["serve", "--state", str(state), "--cluster"]) == 2
        assert "--state" in capsys.readouterr().err
