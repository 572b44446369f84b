"""Steady benchmark of three paper-grounded federated workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` documents the
workloads and every metric.
"""
