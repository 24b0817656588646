"""Trials, output checks and metrics of the benchmark.

A *trial* is one scenario run: build, then simulate the full duration.
Trials run back to back in this process (a closed loop with one client);
the only other processes are the shard workers of a process-mode scenario.
Every trial is checked (:func:`check_trial`); a trial that raises, runs
past the run's time limit or fails a check counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.shard import run_sharded
from repro.workload.scenario import Scenario, ScenarioConfig, ScenarioResult

from bench.tracing import LAYERS, SpanTracer
from bench.workloads import Workload, config_hash

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Scenario builds timed for ``setup_s`` before the trials: at least this
#: many, and for at least ``SETUP_MIN_S`` seconds.
SETUP_SAMPLES = 8
SETUP_MIN_S = 1.0
#: Another pass starts while it is expected to end within this multiple of
#: ``--seconds``, so the pass count does not flip on small host noise.
PASS_SLACK = 1.25


class TrialTimeout(Exception):
    """A trial ran past the run's time limit."""


@dataclass
class Trial:
    config: ScenarioConfig
    setup_s: float = 0.0
    run_s: float = 0.0
    result: Optional[ScenarioResult] = None
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.problems


# ------------------------------------------------------------------ digest
def digest(result: ScenarioResult) -> str:
    """Hash of the simulated outcome: events, delivery summary, all stats.

    Host-time fields (``shard_stats`` setup and RSS) are left out, so a
    speed-only change must leave the digest of every (workload, seed)
    exactly unchanged.
    """
    summary = result.summary
    payload = {
        "events_processed": result.events_processed,
        "packets_sent": result.packets_sent,
        "summary": {
            "packets_sent": summary.packets_sent,
            "member_counts": sorted(summary.member_counts.items()),
            "mean": summary.mean,
            "minimum": summary.minimum,
            "maximum": summary.maximum,
            "std": summary.std,
            "delivery_ratio": summary.delivery_ratio,
            "ratio_members": summary.ratio_members,
        },
        "goodput_by_member": sorted(result.goodput_by_member.items()),
        "protocol_stats": sorted(result.protocol_stats.items()),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def check_trial(
    trial: Trial, first_digest: Optional[str], reference_digest: Optional[str] = None
) -> List[str]:
    """Output checks of one completed trial; returns the problems found.

    ``first_digest`` is the digest of the run's first trial of the same
    scenario, ``reference_digest`` the one recorded for the scenario's seed
    in ``bench/design.json`` (``None``: no such check).
    """
    result, config = trial.result, trial.config
    problems = []
    if first_digest is not None and trial.digest != first_digest:
        problems.append(
            f"digest {trial.digest} differs from the run's first trial {first_digest}"
        )
    if reference_digest is not None and trial.digest != reference_digest:
        problems.append(
            f"digest {trial.digest} differs from the recorded reference {reference_digest}"
        )
    expected = config.expected_packets * config.sources_per_group * config.group_count
    if result.packets_sent != expected:
        problems.append(f"packets_sent {result.packets_sent} != expected {expected}")
    if not 0.0 <= result.delivery_ratio <= 1.0:
        problems.append(f"delivery ratio {result.delivery_ratio} outside [0, 1]")
    if result.shard_stats is not None:
        shard_events = sum(result.shard_stats["events_by_shard"].values())
        if shard_events != result.events_processed:
            problems.append(
                f"events_by_shard sums to {shard_events}, "
                f"events_processed is {result.events_processed}"
            )
    return problems


# ------------------------------------------------------------------ trials
def _parallel(config: ScenarioConfig) -> bool:
    """True when ``config`` runs through ``run_sharded`` (shard workers)."""
    return config.shards > 1 and config.shard_mode in ("windowed", "process")


def _raise_timeout(signum, frame):
    raise TrialTimeout("trial ran past the run's time limit")


def run_trial(
    config: ScenarioConfig,
    limit_s: float,
    first_digest: Optional[str] = None,
    tracer: Optional[SpanTracer] = None,
    reference_digest: Optional[str] = None,
) -> Trial:
    """Build and run one scenario; never raises for a failed trial.

    ``setup_s`` is the host time of ``Scenario.build()`` (for parallel shard
    modes: the slowest worker's build plus stack start), ``run_s`` the time
    to simulate the full duration (``Scenario.run()`` after the build; for
    parallel modes the ``run_sharded`` call minus the workers' setup: all
    of it in windowed mode, the slowest worker's in process mode).  With a
    ``tracer`` installed, spans are recorded over exactly the ``run_s``
    interval -- plus worker setup in parallel modes, which happens inside
    ``run_sharded``.
    """
    trial = Trial(config)
    gc.collect()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, max(limit_s, 0.001))
    try:
        if _parallel(config):
            started = time.perf_counter()
            if tracer is not None:
                # run_sharded's own work -- worker setup, boundary routing,
                # foreign-record replay -- is the sim.shard layer.
                with tracer.recording():
                    result = tracer.call("run_sharded", "sim.shard", run_sharded, config)
            else:
                result = run_sharded(config)
            wall = time.perf_counter() - started
            setups = result.shard_stats["setup_s_by_shard"].values()
            trial.setup_s = max(setups)
            # Windowed workers are built one after another in this process;
            # process-mode workers set up in parallel.
            serial = config.shard_mode == "windowed"
            trial.run_s = wall - (sum(setups) if serial else trial.setup_s)
        else:
            scenario = Scenario(config)
            started = time.perf_counter()
            scenario.build()
            built = time.perf_counter()
            if tracer is not None:
                with tracer.recording():
                    result = scenario.run()
            else:
                result = scenario.run()
            trial.setup_s = built - started
            trial.run_s = time.perf_counter() - built
    except TrialTimeout as error:
        trial.problems.append(str(error))
        return trial
    except Exception as error:  # a failed trial is counted, not fatal
        trial.problems.append(f"raised {type(error).__name__}: {error}")
        return trial
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    trial.result = result
    trial.digest = digest(result)
    trial.problems.extend(check_trial(trial, first_digest, reference_digest))
    return trial


def time_builds(configs: List[ScenarioConfig]) -> List[float]:
    """Host seconds of ``Scenario.build()``, cycling through ``configs``."""
    times: List[float] = []
    began = time.perf_counter()
    while len(times) < SETUP_SAMPLES or time.perf_counter() - began < SETUP_MIN_S:
        config = configs[len(times) % len(configs)]
        gc.collect()
        started = time.perf_counter()
        Scenario(config).build()
        times.append(time.perf_counter() - started)
    return times


def peak_rss_mb(trials: List[Trial]) -> float:
    """Peak RSS of this process or of any shard worker process, in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for trial in trials:
        stats = trial.result.shard_stats if trial.result is not None else None
        if stats is not None and "peak_rss_kb_by_shard" in stats:
            peak_kb = max(peak_kb, *stats["peak_rss_kb_by_shard"].values())
    return peak_kb / 1024.0


# ----------------------------------------------------------------- manifest
def _git_rev() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look above the checkout for a repository.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(workload: Workload, seed: int, configs: List[ScenarioConfig]) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "seed": seed,
        "panel_seeds": [config.seed for config in configs],
        "config_hash": config_hash(configs),
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ timed runs
def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    deadline: float,
    references: Optional[Dict[int, str]] = None,
) -> Dict[str, object]:
    """The end-to-end run: repeated passes over the panel for ``seconds``.

    ``run_us_per_reception`` is a pass's summed ``run_s`` over its summed
    simulated frame receptions (``medium.deliveries``, which the digest
    pins), median over passes: the receptions grow with the work a seed
    draws, and no speed-only change can alter them.

    ``references`` maps scenario seeds to their recorded digests; a trial
    of such a scenario must match it.

    The first pass always runs; another starts while it is expected to end
    within ``PASS_SLACK * seconds``.  ``deadline`` (a ``perf_counter``
    value) bounds every trial; a trial still running then fails with a
    timeout.
    """
    configs = workload.configs(seed)
    setup_samples: List[float] = []
    if not _parallel(configs[0]):
        # Builds are milliseconds: time several before the trials (the
        # trials' own builds add to the sample).  Shard workers report
        # their setup from inside run_sharded, one sample per trial.
        setup_samples.extend(time_builds(configs))
    trials: List[Trial] = []
    first: Dict[int, str] = {}
    per_reception: List[float] = []
    per_event: List[float] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        run_s = 0.0
        receptions = events = 0
        for index, config in enumerate(configs):
            if time.perf_counter() >= deadline:
                break
            trial = run_trial(
                config,
                deadline - time.perf_counter(),
                first.get(index),
                reference_digest=(references or {}).get(config.seed),
            )
            trials.append(trial)
            if trial.result is None:
                continue
            first.setdefault(index, trial.digest)
            if trial.ok:
                setup_samples.append(trial.setup_s)
                run_s += trial.run_s
                receptions += trial.result.protocol_stats["medium.deliveries"]
                events += trial.result.events_processed
        if receptions:
            per_reception.append(run_s / receptions * 1e6)
            per_event.append(run_s / events * 1e6)
        now = time.perf_counter()
        if any(not trial.ok for trial in trials):
            break
        if now - started + (now - pass_started) > seconds * PASS_SLACK:
            break
    failed = sum(1 for trial in trials if not trial.ok)
    metrics = {}
    if per_reception and setup_samples:
        metrics = {
            "run_us_per_reception": (statistics.median(per_reception), "us"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb(trials), "MB"),
        }
    return {
        "trials": trials,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "passes": len(per_reception),
            "setup": len(setup_samples),
            "us_per_reception_by_pass": per_reception,
            # Informational only: the engine's event count is an
            # implementation detail (event fusing has cut it before), so it
            # does not normalise the timed metric.
            "us_per_event_by_pass": per_event,
        },
        "digests": {configs[index].seed: value for index, value in sorted(first.items())},
    }


# ------------------------------------------------------------- traced run
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    result: ScenarioResult,
    tracer: SpanTracer,
    self_s: Dict[str, float],
    worker_rss_mb: float,
) -> Dict[str, float]:
    """Per-layer counts (from the result and the spans) and self times."""
    stats = result.protocol_stats
    protocol = result.config.protocol
    counts = tracer.counts()

    def stat(name: str) -> float:
        return stats.get(name, 0)

    layer_of = dict(zip(tracer.kind_names, tracer.kind_layers))
    mobility = LAYERS.index("mobility")
    mobility_calls = sum(count for name, count in counts.items() if layer_of[name] == mobility)
    windows = sum(
        count for name, count in counts.items() if name.endswith(".transmission_window")
    )
    hits = builds = rebuilds = 0
    for medium in tracer.media:
        index = medium.spatial_index
        hits += index.window_hits
        builds += index.window_builds
        rebuilds += index.grid_rebuilds
    shard = result.shard_stats or {}
    shard_events = list((shard.get("events_by_shard") or {0: result.events_processed}).values())
    foreign = shard.get("foreign") or {}
    deliveries = stat("medium.deliveries")
    transmissions = stat("medium.transmissions")
    requests = stat("gossip.anonymous_requests_sent") + stat("gossip.cached_requests_sent")
    return {
        "sim.events": result.events_processed,
        "sim.compactions": sum(sim.compactions for sim in tracer.simulators),
        "sim.self_s": self_s["sim"],
        "sim.shard.sync_rounds": shard.get("sync_rounds", 0),
        "sim.shard.records_shipped": shard.get("records_shipped", 0),
        "sim.shard.records_filtered": shard.get("records_filtered", 0),
        "sim.shard.late_deliveries": foreign.get("late_deliveries", 0),
        "sim.shard.events_imbalance": max(shard_events) / statistics.mean(shard_events),
        "sim.shard.worker_rss_mb": worker_rss_mb,
        "sim.shard.self_s": self_s["sim.shard"],
        "mobility.calls": mobility_calls,
        "mobility.self_s": self_s["mobility"],
        "net.spatial.windows": windows,
        "net.spatial.window_hit_ratio": _ratio(hits, hits + builds),
        "net.spatial.grid_rebuilds": rebuilds,
        "net.spatial.self_s": self_s["net.spatial"],
        "net.medium.transmissions": transmissions,
        "net.medium.deliveries_per_tx": _ratio(deliveries, transmissions),
        "net.medium.intact_ratio": _ratio(
            deliveries,
            deliveries + stat("medium.collisions") + stat("medium.half_duplex_losses"),
        ),
        "net.medium.self_s": self_s["net.medium"],
        "net.mac.send_calls": counts.get("CsmaMac.send", 0),
        "net.mac.retransmissions": stat("mac.retransmissions"),
        "net.mac.unicast_failures": stat("mac.unicast_failures"),
        "net.mac.queue_drops": stat("mac.queue_drops"),
        "net.mac.ack_ratio": _ratio(stat("mac.acks_received"), stat("mac.data_transmissions")),
        "net.mac.self_s": self_s["net.mac"],
        "net.node.dispatches": counts.get("Node.deliver", 0),
        "net.node.self_s": self_s["net.node"],
        "routing.hello_sent": stat("aodv.hello_sent"),
        "routing.rreq_originated": stat("aodv.rreq_originated"),
        "routing.discovery_failures": stat("aodv.discovery_failures"),
        "routing.data_forwarded": stat("aodv.data_forwarded"),
        "routing.self_s": self_s["routing"],
        "multicast.data_forwarded": stat(f"{protocol}.data_forwarded"),
        "multicast.duplicates": stat(f"{protocol}.data_duplicates"),
        "multicast.repairs_started": stat("maodv.repairs_started"),
        "multicast.self_s": self_s["multicast"],
        "core.rounds": stat("gossip.rounds"),
        "core.requests_sent": requests,
        "core.recovered": stat("gossip.recovered_messages"),
        "core.reply_ratio": _ratio(stat("gossip.replies_received"), requests),
        "core.goodput_pct": result.mean_goodput,
        "core.self_s": self_s["core"],
        "workload.packets_sent": result.packets_sent,
        "workload.delivery_pct": 100.0 * result.delivery_ratio,
        "workload.self_s": self_s["workload"],
    }


def traced(
    workload: Workload,
    seed: int,
    deadline: float,
    references: Optional[Dict[int, str]] = None,
) -> Dict[str, object]:
    """The per-layer run on the panel's first scenario.

    Order: the workload's reference configuration untraced if it has one
    (process-mode shards for the windowed shard workload: its digest must
    match, and its workers report their own peak RSS), then the timed
    configuration untraced, traced, and untraced again.  The first must match
    the scenario's entry in ``references``, if it has one.
    ``trace.overhead`` is the traced ``run_s`` over the median of the
    untraced ``run_s`` of the timed configuration.  Every digest must equal
    the first one.
    """
    config = workload.configs(seed)[0]
    reference_config = workload.reference_config(config)
    trials: List[Trial] = []

    def trial(config_, tracer=None, reference_digest=None) -> Trial:
        done = run_trial(
            config_,
            deadline - time.perf_counter(),
            tracer=tracer,
            reference_digest=reference_digest,
        )
        trials.append(done)
        return done

    reference = trial(reference_config, reference_digest=(references or {}).get(config.seed))
    untraced = [reference] if config is reference_config else [trial(config)]
    tracer = SpanTracer()
    with tracer:
        traced_trial = trial(config, tracer)
    untraced.append(trial(config))
    problems = [problem for done in trials for problem in done.problems]
    for done in untraced + [traced_trial]:
        if done.result is not None and done.digest != reference.digest:
            problems.append(
                f"digest {done.digest} of {done.config.shard_mode} run "
                f"differs from the reference {reference.digest}"
            )
    report = {
        "trials": trials,
        "failed": sum(1 for done in trials if not done.ok),
        "problems": problems,
        "metrics": {},
        "digests": {reference_config.seed: reference.digest},
        "spans": len(tracer.ends),
    }
    if problems:
        return report
    self_s = tracer.summary()
    total = sum(self_s.values())
    if abs(total - tracer.wall_s) > 1e-6 * max(1.0, tracer.wall_s):
        problems.append(f"self times sum to {total} s, traced wall time is {tracer.wall_s} s")
    negative = {layer: value for layer, value in self_s.items() if value < -1e-9}
    if negative:
        problems.append(f"negative self time: {negative}")
    if problems:
        return report
    worker_rss_kb = 0
    if reference.result.shard_stats is not None:
        # Per worker process in process mode; windowed workers share this
        # process, so there it is the process-wide peak.
        worker_rss_kb = max(reference.result.shard_stats["peak_rss_kb_by_shard"].values())
    metrics = layer_metrics(traced_trial.result, tracer, self_s, worker_rss_kb / 1024.0)
    metrics["trace.overhead"] = traced_trial.run_s / statistics.median(
        done.run_s for done in untraced
    )
    report["metrics"] = metrics
    report["tracer"] = tracer
    report["self_s"] = self_s
    report["wall_s"] = tracer.wall_s
    return report
