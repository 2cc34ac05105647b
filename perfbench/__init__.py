"""Benchmark of the bestsubset package: workloads, correctness checks, tracing.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""

WORKLOADS = ("cli_small", "gauss_wide", "logit_reps", "cox_reps")
