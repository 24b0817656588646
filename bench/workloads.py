"""The benchmark's canonical workloads.

Each workload turns the run's ``--seed`` into a *panel* of scenario
configurations -- the seed itself plus ``panel - 1`` seeds derived from it
-- and hands only those generated :class:`ScenarioConfig` objects to the
simulator.  A panel, like the paper's seed averaging, keeps a run's host
time per simulated event from hinging on one topology; the same seed always
gives the same panel.  Why each workload exists, which layers it stresses
and which it bypasses is recorded in ``bench/design.json``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.workload.scenario import ScenarioConfig

#: Distance between the seeds of one panel; larger than any seed a run
#: is given, so panels of different run seeds never share a scenario.
PANEL_STRIDE = 10_007


@dataclass(frozen=True)
class Workload:
    name: str
    #: Scenario seed -> configuration.
    make: Callable[[int], ScenarioConfig]
    #: Scenarios per trial pass (the run's seed plus derived seeds).
    panel: int
    #: Shard mode of an extra untraced trial in the traced run whose digest
    #: must equal the timed configuration's (``None``: no extra trial).
    reference_shard_mode: Optional[str] = None

    def configs(self, seed: int) -> List[ScenarioConfig]:
        """The panel of configurations a run with ``seed`` measures."""
        return [self.make(seed + PANEL_STRIDE * index) for index in range(self.panel)]

    def reference_config(self, config: ScenarioConfig) -> ScenarioConfig:
        """The configuration whose digest the traced run checks against."""
        if self.reference_shard_mode is None:
            return config
        return replace(config, shard_mode=self.reference_shard_mode)


def fig4_movers(seed: int) -> ScenarioConfig:
    """The fig4 100-node mover point (``scripts/time_mover_bench.py`` BASE)."""
    return ScenarioConfig.quick(
        num_nodes=100,
        member_count=20,
        area_width_m=200.0,
        area_height_m=200.0,
        transmission_range_m=75.0,
        join_window_s=4.0,
        source_start_s=10.0,
        source_stop_s=28.0,
        packet_interval_s=0.5,
        duration_s=32.0,
        max_speed_mps=1.0,
        max_pause_s=2.0,
        seed=seed,
    )


def paper_sparse_gossip(seed: int) -> ScenarioConfig:
    """The sparse end of Fig. 3 at the paper's scale (40 nodes, 600 s)."""
    return ScenarioConfig.paper(
        num_nodes=40,
        transmission_range_m=45.0,
        max_speed_mps=2.0,
        seed=seed,
    )


def flood_1k_2shard(seed: int) -> ScenarioConfig:
    """The 1k-node shard point (``scripts/bench_shard_point.py`` geometry).

    The fig7 law (55 m range) with the area scaled to keep the 40-node
    density, flooding with gossip off, two shards in windowed mode: the
    workers step in lockstep inside this process.  Process mode is
    bit-identical but waits on both CPUs at every sync window, which made
    its host time swing far more than windowed mode's on a shared host.
    """
    nodes = 1000
    duration_s = 30.0
    area = 200.0 * math.sqrt(nodes / 40.0)
    return ScenarioConfig.quick(
        num_nodes=nodes,
        member_count=nodes // 10,
        area_width_m=area,
        area_height_m=area,
        transmission_range_m=55.0,
        protocol="flooding",
        gossip_enabled=False,
        max_speed_mps=1.0,
        max_pause_s=10.0,
        join_window_s=4.0,
        source_start_s=8.0,
        source_stop_s=duration_s - 6.0,
        packet_interval_s=0.5,
        duration_s=duration_s,
        shards=2,
        shard_mode="windowed",
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig4_movers", fig4_movers, panel=5),
        Workload("paper_sparse_gossip", paper_sparse_gossip, panel=3),
        Workload("flood_1k_2shard", flood_1k_2shard, panel=4, reference_shard_mode="process"),
    )
}


def config_hash(configs: List[ScenarioConfig]) -> str:
    """Stable identity of a panel (dataclass reprs are deterministic)."""
    text = "\n".join(repr(config) for config in configs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
