"""Tests of the repository benchmark (``bench/``).

Shortened scenarios keep these fast; the full workloads run only through
``python3 bench/run.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import harness  # noqa: E402
from bench.workloads import PANEL_STRIDE, WORKLOADS, Workload, config_hash  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)
with open(os.path.join(ROOT, "bench", "design.json")) as _handle:
    DESIGN = json.load(_handle)

END_TO_END = {entry["name"] for entry in DECLARED["end_to_end"]}
PER_LAYER = {entry["name"] for entry in DECLARED["per_layer"]}


def _deadline(seconds: float) -> float:
    return time.perf_counter() + seconds


def shortened(workload: Workload) -> Workload:
    """The workload with a few simulated seconds (and, for the 1k-node
    fleet, 200 nodes over the same density) instead of its full size."""

    def make(seed: int):
        config = workload.make(seed)
        # A stop time that is an exact multiple of the paper's 0.2 s interval
        # past the start (3.0-4.0 s) sends one packet fewer than
        # ScenarioConfig.expected_packets counts, which the packets_sent
        # check would flag; 4.5 s is not such a multiple.
        short = dict(
            join_window_s=2.0,
            source_start_s=3.0,
            source_stop_s=4.5,
            duration_s=5.0,
        )
        if config.num_nodes > 200:
            edge = config.area_width_m * (200 / config.num_nodes) ** 0.5
            short.update(num_nodes=200, member_count=20, area_width_m=edge, area_height_m=edge)
        return replace(config, **short)

    return replace(workload, make=make, panel=min(workload.panel, 2))


def test_declared_workloads_match_the_code():
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(WORKLOADS)
    assert set(DESIGN["workloads"]) == set(WORKLOADS)
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_validate(name):
    workload = WORKLOADS[name]
    references = DESIGN["workloads"][name]["reference_digests"]
    for seed in (DESIGN["seeds"]["default"], DESIGN["seeds"]["held_out"]):
        configs = workload.configs(seed)
        assert len(configs) == workload.panel
        assert all(str(config.seed) in references for config in configs)
        assert [config.seed for config in configs] == [
            seed + PANEL_STRIDE * index for index in range(workload.panel)
        ]
        # ScenarioConfig validates in __post_init__; a replace re-runs it.
        for config in configs:
            replace(config)
            replace(workload.reference_config(config))
        assert config_hash(configs) == config_hash(workload.configs(seed))
    assert config_hash(workload.configs(1)) != config_hash(workload.configs(2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_metrics(name, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    workload = shortened(WORKLOADS[name])
    timed = harness.measure(workload, seed=3, seconds=0.1, deadline=_deadline(60))
    assert timed["failed"] == 0
    assert set(timed["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in timed["metrics"].values())

    traced = harness.traced(workload, seed=3, deadline=_deadline(60))
    assert traced["problems"] == []
    assert set(traced["metrics"]) == PER_LAYER
    self_s = traced["self_s"]
    assert min(self_s.values()) >= 0.0
    assert sum(self_s.values()) == pytest.approx(traced["wall_s"], rel=1e-6)
    assert traced["metrics"]["trace.overhead"] > 0.0


def test_perturbed_digest_counts_as_failed_trial(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    workload = shortened(WORKLOADS["fig4_movers"])
    calls = iter(range(1000))
    monkeypatch.setattr(harness, "digest", lambda result: f"perturbed-{next(calls)}")
    report = harness.measure(workload, seed=1, seconds=600.0, deadline=_deadline(60))
    # The first pass sets each scenario's reference digest; every trial of
    # the second pass differs from it and fails.
    assert report["failed"] == workload.panel
    assert len(report["trials"]) == 2 * workload.panel
    assert all("differs from the run's first trial" in problem
               for trial in report["trials"][workload.panel:]
               for problem in trial.problems)


def test_recorded_reference_mismatch_counts_as_failed_trial(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    workload = shortened(WORKLOADS["fig4_movers"])
    configs = workload.configs(3)
    references = {config.seed: "0" * 16 for config in configs}
    report = harness.measure(workload, seed=3, seconds=0.1, deadline=_deadline(60),
                             references=references)
    assert report["failed"] == len(report["trials"]) == workload.panel
    assert all("differs from the recorded reference" in trial.problems[0]
               for trial in report["trials"])


def test_recorded_reference_matches_the_simulator():
    references = DESIGN["workloads"]["fig4_movers"]["reference_digests"]
    config = WORKLOADS["fig4_movers"].configs(DESIGN["seeds"]["default"])[0]
    trial = harness.run_trial(config, limit_s=60.0,
                              reference_digest=references[str(config.seed)])
    assert trial.problems == []


def test_trial_checks_catch_bad_outputs():
    workload = shortened(WORKLOADS["fig4_movers"])
    trial = harness.run_trial(workload.configs(1)[0], limit_s=60.0)
    assert trial.ok
    assert harness.check_trial(trial, trial.digest, trial.digest) == []
    assert harness.check_trial(trial, "0" * 16)
    assert harness.check_trial(trial, None, "0" * 16)
    trial.result.packets_sent += 1
    assert any("packets_sent" in problem for problem in harness.check_trial(trial, None))


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig4_movers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout

