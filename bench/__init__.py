"""The repository benchmark: canonical workloads, trial checks, span tracing.

Run it with ``python3 bench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; ``BENCHMARK.json`` at the repository root declares the
workloads and metrics, ``bench/design.json`` records why.
"""
