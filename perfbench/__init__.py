"""End-to-end and per-layer benchmark for icecache.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see README.md in this
directory for the workloads, the metrics and how to read the output.
"""
