import json

from perfbench import run

from .conftest import ROOT


def test_benchmark_json_matches_the_catalog():
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
