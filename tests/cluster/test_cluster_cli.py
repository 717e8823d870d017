"""`repro cluster` and `repro serve --cluster` CLI (in-process, via
main())."""

import json

import pytest

from repro.cli import main
from repro.experiments import simulation_topology
from repro.serialization import topology_to_dict


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology_to_dict(simulation_topology())))
    return path


def _cluster_args(topology_file, *extra):
    return ["--topology", str(topology_file), "--shards", "2",
            "--seeds", "SW1,SW4", *extra]


class TestClusterCli:
    def test_status_prints_partition_and_shards(self, topology_file, capsys):
        assert main(["cluster", "status",
                     *_cluster_args(topology_file)]) == 0
        out = capsys.readouterr().out
        assert "Partition: 2 shards" in out
        assert '"shard0"' in out and '"shard1"' in out

    def test_admit_cross_shard_stream(self, topology_file, capsys):
        assert main(["cluster", "admit", *_cluster_args(topology_file),
                     "--name", "x", "--source", "D1", "--dest", "D12",
                     "--period-us", "8000"]) == 0
        decision = json.loads(capsys.readouterr().out)
        assert decision["accepted"]
        assert decision["rung"] == "twophase"

    def test_admit_rejection_exits_nonzero(self, topology_file, capsys):
        # a cross-shard ECT is a structured rejection -> exit 1
        assert main(["cluster", "admit", *_cluster_args(topology_file),
                     "--ect", "--name", "alarm", "--source", "D1",
                     "--dest", "D12", "--period-us", "16000"]) == 1
        decision = json.loads(capsys.readouterr().out)
        assert decision["reason"] == "cross_shard_ect_unsupported"

    def test_serve_storm_with_audit_and_metrics(
        self, topology_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join(json.dumps(r) for r in [
            {"op": "admit-tct", "name": "a0", "source": "D1",
             "destination": "D4", "period_ns": 8_000_000,
             "length_bytes": 1000},
            {"op": "admit-tct", "name": "a1", "source": "D10",
             "destination": "D12", "period_ns": 8_000_000,
             "length_bytes": 1000},
            {"op": "admit-tct", "name": "x", "source": "D1",
             "destination": "D12", "period_ns": 8_000_000,
             "length_bytes": 500},
            {"op": "remove", "name": "a0"},
        ]))
        metrics_out = tmp_path / "metrics.json"
        assert main(["serve", "--cluster", *_cluster_args(topology_file),
                     "--requests", str(requests),
                     "--metrics-out", str(metrics_out),
                     "--audit", "--fail-on-reject"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        decisions = [json.loads(line) for line in lines[:4]]
        assert all(d["accepted"] for d in decisions)
        assert json.loads(lines[-1]) == {"audit": "ok"}
        metrics = json.loads(metrics_out.read_text())
        counters = metrics["counters"]
        assert counters["cluster.requests_total"] == 4
        assert counters["cluster.requests_cross"] == 1

    def test_serve_fail_on_reject(self, topology_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(
            {"op": "admit-ect", "name": "alarm", "source": "D1",
             "destination": "D12", "min_interevent_ns": 16_000_000,
             "length_bytes": 512}
        ))
        assert main(["serve", "--cluster", *_cluster_args(topology_file),
                     "--requests", str(requests),
                     "--fail-on-reject"]) == 1

    def test_serve_malformed_request_is_error(
        self, topology_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"op": "admit-tct"}')
        assert main(["serve", "--cluster", *_cluster_args(topology_file),
                     "--requests", str(requests)]) == 2
        assert "requests line 1" in capsys.readouterr().err

    def test_serve_metrics_file_reexports_as_prometheus(
        self, topology_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(
            {"op": "admit-tct", "name": "a0", "source": "D1",
             "destination": "D4", "period_ns": 8_000_000,
             "length_bytes": 1000}
        ))
        metrics_out = tmp_path / "metrics.json"
        assert main(["serve", "--cluster", *_cluster_args(topology_file),
                     "--requests", str(requests),
                     "--metrics-out", str(metrics_out)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--input", str(metrics_out),
                     "--format", "prometheus"]) == 0
        samples = dict(
            line.rsplit(" ", 1)
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#")
        )
        assert float(samples["repro_cluster_requests_total_total"]) == 1
