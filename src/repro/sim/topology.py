"""Deployment topology: node placement and spreading-factor assignment.

The paper places nodes "randomly with a maximum distance from the
gateway of 5 km, simulating a dense deployment".  We place nodes
uniformly in the disk and assign each either the configured fixed SF or
the smallest SF whose link budget reaches the node's distance (the
distance-ring scheme of the NS-3 LoRaWAN module).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..exceptions import ConfigurationError
from ..lora import LogDistanceLink, SpreadingFactor, TxParams
from .config import SimulationConfig


@dataclass(frozen=True)
class NodePlacement:
    """Static placement facts of one node.

    ``distance_m`` is the distance to the *nearest* gateway (which also
    drives SF assignment); ``gateway_distances_m`` holds the distance to
    every gateway for multi-gateway reception diversity.
    """

    node_id: int
    x_m: float
    y_m: float
    distance_m: float
    spreading_factor: SpreadingFactor
    period_s: float
    start_offset_s: float
    gateway_distances_m: tuple = ()

    def __post_init__(self) -> None:
        if not self.gateway_distances_m:
            object.__setattr__(self, "gateway_distances_m", (self.distance_m,))


def gateway_positions(config: SimulationConfig) -> List[tuple]:
    """Gateway coordinates: origin first, extras on a 0.6 R ring."""
    positions = [(0.0, 0.0)]
    extra = config.gateway_count - 1
    ring = 0.6 * config.radius_m
    for i in range(extra):
        angle = 2.0 * math.pi * i / extra
        positions.append((ring * math.cos(angle), ring * math.sin(angle)))
    return positions


def uniform_disk_point(rng: random.Random, radius_m: float) -> tuple:
    """Uniform random point in a disk of the given radius."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    # sqrt for area-uniform sampling.
    r = radius_m * math.sqrt(rng.random())
    return r * math.cos(angle), r * math.sin(angle)


def assign_spreading_factor(
    distance_m: float,
    link: LogDistanceLink,
    base_params: TxParams,
    antenna_gain_db: float = 0.0,
) -> SpreadingFactor:
    """Smallest SF that closes the link at ``distance_m``.

    Falls back to SF12 when even the maximum SF is out of budget (such a
    node will simply never be heard — the same behaviour NS-3 exhibits).
    """
    for sf in SpreadingFactor:
        params = base_params.with_spreading_factor(sf)
        if link.is_receivable(params, distance_m, antenna_gain_db=antenna_gain_db):
            return sf
    return SpreadingFactor.SF12


def sample_period_s(rng: random.Random, low_s: float, high_s: float) -> float:
    """Sampling period drawn uniformly from whole minutes in [low, high].

    The paper draws from [16, 60] minutes; whole-minute granularity makes
    same-period cohorts (and their persistent ALOHA collisions) explicit.
    """
    if high_s < low_s:
        raise ConfigurationError("invalid period range")
    low_min = int(round(low_s / 60.0))
    high_min = int(round(high_s / 60.0))
    if high_min < low_min:
        raise ConfigurationError("period range narrower than one minute")
    return rng.randint(low_min, high_min) * 60.0


def cell_of(placement: NodePlacement) -> int:
    """Gateway cell a node belongs to: index of its nearest gateway.

    Ties break toward the lower gateway index (``min`` scans in order),
    matching how ``distance_m`` itself was computed.
    """
    distances = placement.gateway_distances_m
    return min(range(len(distances)), key=distances.__getitem__)


def partition_cells(
    placements: Sequence[NodePlacement],
) -> Dict[int, List[NodePlacement]]:
    """Group placements by gateway cell (cells in ascending index order).

    Empty cells are omitted; the sharded engine simulates each returned
    cell as an independent contention domain.
    """
    cells: Dict[int, List[NodePlacement]] = {}
    for placement in placements:
        cells.setdefault(cell_of(placement), []).append(placement)
    return {index: cells[index] for index in sorted(cells)}


def build_topology(
    config: SimulationConfig, link: Optional[LogDistanceLink] = None
) -> List[NodePlacement]:
    """Instantiate the deployment described by ``config``."""
    rng = random.Random(config.seed)
    link = link or LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
    base_params = config.tx_params()
    gateways = gateway_positions(config)
    placements: List[NodePlacement] = []
    for node_id in range(config.node_count):
        x, y = uniform_disk_point(rng, config.radius_m)
        distances = tuple(
            max(1.0, math.hypot(x - gx, y - gy)) for gx, gy in gateways
        )
        distance = min(distances)
        if config.fixed_sf is not None:
            sf = config.fixed_sf
        else:
            sf = assign_spreading_factor(
                distance, link, base_params, config.gateway_antenna_gain_db
            )
        period_s = sample_period_s(rng, *config.period_range_s)
        if config.synchronized_start:
            start_offset = (
                rng.uniform(0.0, config.start_jitter_s)
                if config.start_jitter_s > 0
                else 0.0
            )
        else:
            start_offset = rng.uniform(0.0, period_s)
        placements.append(
            NodePlacement(
                node_id=node_id,
                x_m=x,
                y_m=y,
                distance_m=distance,
                spreading_factor=sf,
                period_s=period_s,
                start_offset_s=start_offset,
                gateway_distances_m=distances,
            )
        )
    return placements
