#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload fig4_movers --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: repeated passes over the
workload's scenario panel for ``--seconds`` seconds.  ``--trace 1`` runs the
separate traced run and reports the per-layer metrics instead.  Every line
but the last is for people (manifest, digests, each metric with its unit);
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every trial
passed its output checks.

The simulator is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The whole run, trials included, ends within this many seconds.
RUN_LIMIT_S = 170.0


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _parse(argv, declared, design):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[entry["name"] for entry in declared["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=design["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    started = time.perf_counter()
    declared = _load(os.path.join(ROOT, "BENCHMARK.json"))
    design = _load(os.path.join(HERE, "design.json"))
    args = _parse(argv, declared, design)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no simulator sources at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from bench import harness
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    deadline = started + RUN_LIMIT_S
    # Digests of the seed code for the default and held-out panels.
    references = {
        int(seed): value
        for seed, value in design["workloads"][workload.name]["reference_digests"].items()
    }
    manifest = harness.manifest(workload, args.seed, workload.configs(args.seed))
    print("manifest " + json.dumps(manifest, sort_keys=True), flush=True)

    if args.trace:
        report = harness.traced(workload, args.seed, deadline, references)
        units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in report["metrics"].items()}
        problems = report["problems"]
        if "tracer" in report:
            report["tracer"].write(
                os.path.join(harness.OUT_DIR, f"spans-{workload.name}.bin"),
                dict(manifest, self_s=report["self_s"]),
            )
            print(f"spans {report['spans']} traced wall {report['wall_s']:.3f} s")
    else:
        report = harness.measure(workload, args.seed, args.seconds, deadline, references)
        metrics = report["metrics"]
        problems = [p for trial in report["trials"] for p in trial.problems]
        for trial in report["trials"]:
            events = trial.result.events_processed if trial.result is not None else 0
            print(f"trial seed={trial.config.seed} setup_s={trial.setup_s:.4f} "
                  f"run_s={trial.run_s:.4f} events={events} ok={trial.ok}")
        print("samples " + json.dumps(report["samples"]))
    for seed, value in report["digests"].items():
        print(f"digest {workload.name} seed={seed} {value} "
              f"reference={references.get(seed, 'none')}")
    attempted = len(report["trials"])
    failed = report["failed"]
    print(f"trials_failed {failed}/{attempted}")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and bool(metrics)
    if args.trace and problems:
        # No per-layer split from a traced run that changed the simulation.
        print("bench: traced run rejected; no per-layer metrics", file=sys.stderr)
        return 1
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
