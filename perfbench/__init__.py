"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload with::

    python3 perfbench/run.py --workload admit_churn --seed 1 --seconds 15 --trace 0

See :mod:`perfbench.run` for the workloads, the metrics each one reports
and the correctness checks that gate every run.
"""
