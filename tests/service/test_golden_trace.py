"""The admission decision function, pinned by the benchmark's golden trace.

``perfbench/golden.json`` records the verdict-and-rung sequence the
default-config service produces on the golden seed's request prefix of
the ``admit_churn`` (25 % load) and ``admit_saturated`` (75 % load)
workloads.  Replaying it here makes every tier-1 run check the decision
contract, not only a benchmark run.  The replay goes through the
benchmark's own read-only helpers, so both see the same requests.
"""

import pytest

from perfbench import golden, inproc


@pytest.mark.parametrize("workload", sorted(inproc.GOLDEN_DECISIONS))
def test_golden_decision_trace(workload):
    setup = inproc.set_up(workload)
    requests = inproc.golden_requests(workload, setup.devices)
    decisions, _ = inproc.drive(setup.service, requests)
    assert inproc.verdicts(decisions) == golden.load()[workload]
