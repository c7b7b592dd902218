"""Gateway-cell sharded execution of the mesoscopic engine.

One 50k-node, multi-gateway topology does not fit one process: per-node
state (battery trace, rainflow stack, shading window, MAC estimators)
dominates memory, and a year-long sweep keeps all of it live.  This
module partitions the deployment spatially into *gateway cells* (each
node belongs to its nearest gateway) and simulates every cell as an
independent contention domain in a worker process, so peak RSS is
bounded by the coordinator plus the largest in-flight cell instead of
the whole network.

Semantics
---------
* A cell is one contention domain: its window resolutions draw from a
  per-cell RNG seeded by ``(config.seed, cell index)`` — a pure function
  of the topology, never of where or next to which cells it ran.
  Delivery keeps full multi-gateway reception diversity (every node
  retains its RSSI at every gateway).
* Cross-cell interference at cell edges is restored by a two-round
  **border exchange**: round 1 simulates each cell in isolation and
  records the announced transmission schedule of *border nodes* (the
  strongest ``BORDER_TOP_K`` out-of-cell nodes audible at each cell's
  gateway); round 2 re-simulates the cells that received foreign
  announcements with those transmissions replayed as **static
  interferers** (they occupy demodulator slots and contribute
  co-channel/same-SF power but never retry).  This is a single
  fixed-point iteration — first-order border coupling, not an exact
  joint resolution — which matches the paper's own locality assumption
  that contention is dominated by the local window cohort.
* Because cell results depend only on (config, cell, foreign
  announcements) and announcements are produced per cell, the merged
  output is **invariant to the shard count**: ``shards=1`` and
  ``shards=gateway_count`` produce identical metrics, monthly series,
  linear rates and packet logs.

Execution flows through a **transport seam**: every round's cells are
leased, one cell per lease, by :class:`repro.dist.DistScheduler` —
:class:`LocalTransport` to ``repro worker`` agents it forks on this
host, :class:`repro.dist.DistTransport` to remote agents over TCP.
Either way, every simulated cell is serialized to a per-cell JSONL
artifact (:mod:`repro.dist.artifact`) in a spill directory, and the
coordinator merges those artifacts **lazily** at finalize — one cell in
memory at a time — so coordinator RSS never scales with the total
packet-log volume, and merged results are placement-invariant by
construction.  ``config.shards`` switches sharding on (and is checked
against the gateway count); it does not group cells into processes.

Cells checkpoint into ``<checkpoint_dir>/round<r>/cell_<c>`` (a pure
function of the topology, not of placement) and self-resume from the
newest snapshot after a crash.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..checkpoint.core import latest_checkpoint, resume as _resume_checkpoint
from ..dist.artifact import CellArtifact, load_cell_artifact, write_cell_artifact
from ..exceptions import ConfigurationError
from ..lora import LogDistanceLink, airtime_table
from ..obs import MetricsRegistry, Observability, RunManifest, config_hash
from .config import SimulationConfig
from .mesoscopic import (
    MesoscopicResult,
    MesoscopicSimulator,
    MonthlySample,
    StaticAttempt,
    reject_fault_plan,
)
from .metrics import NetworkMetrics, NodeMetrics
from .packetlog import PacketLog
from .topology import NodePlacement, build_topology, partition_cells

#: Per receiving cell, only this many strongest foreign nodes (by RSSI
#: at the cell's gateway) are exchanged as border interferers.  Keeps
#: the announcement volume linear in the border length instead of the
#: network size; weaker foreign signals are below the capture margin
#: anyway.
BORDER_TOP_K = 64

#: A foreign node is audible at a gateway when its RSSI there is within
#: this margin below its own sensitivity — quieter signals cannot win a
#: demodulator slot or break capture at the receiving cell.
AUDIBILITY_MARGIN_DB = 6.0


# ----------------------------------------------------------- foreign input


class ForeignStatics:
    """Announced out-of-cell transmissions, replayed as static interference.

    Stored as parallel arrays sorted by ``(window, node_id)`` so a
    window's statics are one ``searchsorted`` slice.  Offsets are the
    announced in-window start for immediate (ALOHA) entries and NaN for
    window-selected entries, whose offset/channel are re-derived from a
    private RNG keyed on ``(seed, node_id, window)`` — deterministic,
    and decoupled from every cell's contention stream.
    """

    def __init__(
        self,
        windows: np.ndarray,
        node_ids: np.ndarray,
        offsets: np.ndarray,
        profiles: Dict[int, Tuple[float, object, Tuple[float, ...]]],
        seed: int,
        window_s: float,
        channel_count: int,
    ) -> None:
        order = np.lexsort((node_ids, windows))
        self.windows = np.ascontiguousarray(windows[order])
        self.node_ids = np.ascontiguousarray(node_ids[order])
        self.offsets = np.ascontiguousarray(offsets[order])
        #: node_id -> (airtime_s, spreading_factor, per-gateway mW tuple)
        self.profiles = profiles
        self.seed = seed
        self.window_s = window_s
        self.channel_count = channel_count

    def __len__(self) -> int:
        return int(self.windows.size)

    def statics_for(self, window_index: int) -> Sequence[StaticAttempt]:
        """The window's foreign transmissions as resolver statics."""
        lo = int(np.searchsorted(self.windows, window_index, side="left"))
        hi = int(np.searchsorted(self.windows, window_index, side="right"))
        if lo == hi:
            return ()
        statics: List[StaticAttempt] = []
        # One generator per call, reseeded per static: ``seed`` resets
        # all of its state, so each static draws what a fresh
        # ``Random(key)`` would.  ``__new__`` alone skips the urandom
        # seeding of a bare ``Random()``, which the first ``seed`` would
        # overwrite.
        draw = random.Random.__new__(random.Random)
        for i in range(lo, hi):
            node_id = int(self.node_ids[i])
            airtime, sf, lin_mw = self.profiles[node_id]
            draw.seed(
                (
                    self.seed * 0x9E3779B97F4A7C15
                    ^ node_id * 0xC2B2AE3D27D4EB4F
                    ^ window_index
                )
                & 0xFFFFFFFFFFFFFFFF
            )
            offset = float(self.offsets[i])
            if math.isnan(offset):
                offset = draw.uniform(0.0, max(1e-6, self.window_s - airtime))
            channel = draw.randrange(self.channel_count)
            statics.append(
                StaticAttempt(offset, offset + airtime, channel, sf, lin_mw)
            )
        return statics


# ------------------------------------------------------------------ cells


@dataclass
class CellOutcome:
    """The slim per-cell summary the coordinator keeps in memory.

    The heavy payload (metrics, monthly, packet rows) lives in the
    cell's spilled artifact; the outcome carries only what the next
    round and the manifest need.
    """

    cell_index: int
    events_executed: int
    peak_heap: int
    #: (absolute_window, node_id, offset | nan) announcements as arrays.
    intent_windows: Optional[np.ndarray] = None
    intent_nodes: Optional[np.ndarray] = None
    intent_offsets: Optional[np.ndarray] = None


def outcome_from_artifact(artifact: CellArtifact) -> CellOutcome:
    """A :class:`CellOutcome` re-derived from a spilled artifact."""
    return CellOutcome(
        cell_index=artifact.cell_index,
        events_executed=artifact.events_executed,
        peak_heap=artifact.peak_heap,
        intent_windows=artifact.intent_windows,
        intent_nodes=artifact.intent_nodes,
        intent_offsets=artifact.intent_offsets,
    )


def _cell_config(
    config: SimulationConfig, cell_dir: Optional[str]
) -> SimulationConfig:
    """The per-cell simulator config (plain mesoscopic, own snapshots)."""
    cell_config = config.replace(shards=None)
    if cell_dir is not None:
        cell_config = cell_config.replace(checkpoint_dir=cell_dir)
    return cell_config


def simulate_cell(
    config: SimulationConfig,
    cell: int,
    placements: List[NodePlacement],
    export_nodes: Optional[frozenset],
    foreign: Optional[ForeignStatics],
    ckpt_dir: Optional[str],
    round_no: int,
) -> CellArtifact:
    """Simulate one cell (resuming from its newest snapshot if any)."""
    if ckpt_dir is not None:
        os.makedirs(ckpt_dir, exist_ok=True)
    cell_config = _cell_config(config, ckpt_dir)
    snapshot = latest_checkpoint(ckpt_dir) if ckpt_dir is not None else None
    if snapshot is not None:
        sim, _header = _resume_checkpoint(
            snapshot, expected_config_hash=config_hash(cell_config)
        )
    else:
        sim = MesoscopicSimulator(
            cell_config,
            placements=placements,
            cell_index=cell,
            export_nodes=export_nodes,
            foreign=foreign,
        )
    result = sim.run()
    intents = sim.border_intents
    artifact = CellArtifact(
        cell_index=cell,
        round_no=round_no,
        events_executed=sim._events_executed,
        peak_heap=sim._peak_heap,
        metrics=result.metrics.nodes,
        monthly=result.monthly,
        linear_rates=result.linear_rates,
        packet_log=result.packet_log,
    )
    if intents:
        artifact.intent_windows = np.array(
            [i[0] for i in intents], dtype=np.int64
        )
        artifact.intent_nodes = np.array(
            [i[1] for i in intents], dtype=np.int64
        )
        artifact.intent_offsets = np.array(
            [i[2] for i in intents], dtype=np.float64
        )
    return artifact


def run_cell_lease(payload: Dict, spill_path: str) -> None:
    """Simulate one leased cell and write its artifact to ``spill_path``.

    The function a cell lease names (see
    :class:`repro.dist.coordinator.CellWork`); it runs in an agent's
    lease subprocess, one cell per process, so worker memory is bounded
    by one cell.
    """
    artifact = simulate_cell(
        payload["config"],
        payload["cell"],
        payload["placements"],
        payload["export"],
        payload["foreign"],
        payload["ckpt_dir"],
        payload["round"],
    )
    write_cell_artifact(spill_path, artifact)


# ------------------------------------------------------------- border sets


def _node_rssi_matrix(
    config: SimulationConfig,
    placements: List[NodePlacement],
    link: LogDistanceLink,
) -> Dict[int, List[float]]:
    """Per-node RSSI at every gateway, with MesoNode's exact formula."""
    rssi: Dict[int, List[float]] = {}
    for placement in placements:
        params = config.tx_params(placement.spreading_factor)
        rssi[placement.node_id] = [
            link.rssi_dbm(
                params.tx_power_dbm,
                distance,
                antenna_gain_db=config.gateway_antenna_gain_db,
            )
            for distance in placement.gateway_distances_m
        ]
    return rssi


def _border_maps(
    config: SimulationConfig,
    placements: List[NodePlacement],
    cells: Dict[int, List[NodePlacement]],
    link: LogDistanceLink,
) -> Tuple[
    Dict[int, frozenset],
    Dict[int, frozenset],
    Dict[int, Tuple[float, object, Tuple[float, ...]]],
]:
    """Who interferes across cell borders.

    Returns ``(selected_by_cell, export_by_cell, profiles)``:
    ``selected_by_cell[c]`` is the set of foreign node ids whose
    transmissions cell ``c`` must hear; ``export_by_cell[s]`` is the set
    of cell ``s``'s nodes any other cell selected (what ``s``
    announces); ``profiles`` carries the static PHY facts of every
    selected node.  All three are pure functions of the topology.
    """
    rssi = _node_rssi_matrix(config, placements, link)
    by_node = {p.node_id: p for p in placements}
    cell_of_node = {
        p.node_id: cell for cell, members in cells.items() for p in members
    }
    selected_by_cell: Dict[int, frozenset] = {}
    export_sets: Dict[int, set] = {cell: set() for cell in cells}
    needed: set = set()
    for cell in cells:
        candidates: List[Tuple[float, int]] = []
        for placement in placements:
            node_id = placement.node_id
            if cell_of_node[node_id] == cell:
                continue
            level = rssi[node_id][cell]
            params = config.tx_params(placement.spreading_factor)
            if level >= params.sensitivity_dbm - AUDIBILITY_MARGIN_DB:
                candidates.append((-level, node_id))
        candidates.sort()
        chosen = frozenset(
            node_id for _, node_id in candidates[:BORDER_TOP_K]
        )
        selected_by_cell[cell] = chosen
        needed.update(chosen)
        for node_id in chosen:
            export_sets[cell_of_node[node_id]].add(node_id)
    profiles: Dict[int, Tuple[float, object, Tuple[float, ...]]] = {}
    energy_model = config.energy_model()
    table = airtime_table(energy_model)
    for node_id in needed:
        placement = by_node[node_id]
        params = config.tx_params(placement.spreading_factor)
        profiles[node_id] = (
            table.entry(params).airtime_s,
            placement.spreading_factor,
            tuple(10.0 ** (level / 10.0) for level in rssi[node_id]),
        )
    export_by_cell = {
        cell: frozenset(nodes) for cell, nodes in export_sets.items()
    }
    return selected_by_cell, export_by_cell, profiles


# ---------------------------------------------------------- transport seam


@dataclass
class RoundRequest:
    """Everything a transport needs to run one round of cells.

    Both transports consume the same request and fulfil the same
    contract: simulate every listed cell, leave its complete artifact
    at ``spill_by_cell[cell]``, and return a ``CellOutcome`` per cell.
    """

    round_no: int
    config: SimulationConfig
    cell_ids: List[int]
    placements_by_cell: Dict[int, List[NodePlacement]]
    export_by_cell: Dict[int, Optional[frozenset]]
    foreign_by_cell: Dict[int, Optional[ForeignStatics]]
    spill_by_cell: Dict[int, str]
    ckpt_by_cell: Dict[int, Optional[str]]
    registry: MetricsRegistry


class LocalTransport:
    """Run rounds on forked local ``repro worker`` agents.

    The first round forks ``workers`` one-slot agents
    (:class:`repro.dist.coordinator.LocalAgents`, capped at the round's
    cell count); they serve every round of the run until :meth:`close`.
    Each round's cells are leased to them by the same
    :class:`~repro.dist.coordinator.DistScheduler` that leases cells to
    remote agents, crash retries included.
    """

    def __init__(
        self,
        workers: int = 1,
        max_retries: int = 1,
        crash_spec=None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self.max_retries = max_retries
        self.crash_spec = crash_spec
        self._agents = None

    def run_round(self, request: RoundRequest) -> Dict[int, CellOutcome]:
        from ..dist.coordinator import DistTransport, LocalAgents

        if self._agents is None:
            self._agents = LocalAgents(
                min(self.workers, max(1, len(request.cell_ids)))
            )
        return DistTransport(
            self._agents.server,
            max_retries=self.max_retries,
            crash_spec=self.crash_spec,
        ).run_round(request)

    def close(self) -> None:
        """Shut the agents down (a no-op before the first round)."""
        if self._agents is not None:
            self._agents.close()
            self._agents = None


# -------------------------------------------------------------- coordinator


def _foreign_for_cell(
    cell: int,
    selected: frozenset,
    outcomes: Dict[int, CellOutcome],
    profiles,
    config: SimulationConfig,
) -> Optional[ForeignStatics]:
    """Assemble one cell's foreign input from the round-1 announcements."""
    if not selected:
        return None
    windows: List[np.ndarray] = []
    nodes: List[np.ndarray] = []
    offsets: List[np.ndarray] = []
    wanted = np.array(sorted(selected), dtype=np.int64)
    for source_cell in sorted(outcomes):
        if source_cell == cell:
            continue
        source = outcomes[source_cell]
        if source.intent_windows is None:
            continue
        mask = np.isin(source.intent_nodes, wanted)
        if not mask.any():
            continue
        windows.append(source.intent_windows[mask])
        nodes.append(source.intent_nodes[mask])
        offsets.append(source.intent_offsets[mask])
    if not windows:
        return None
    return ForeignStatics(
        windows=np.concatenate(windows),
        node_ids=np.concatenate(nodes),
        offsets=np.concatenate(offsets),
        profiles=profiles,
        seed=config.seed,
        window_s=config.window_s,
        channel_count=config.channel_count,
    )


def _merge_monthly(
    parts: List[Tuple[int, List[MonthlySample]]]
) -> List[MonthlySample]:
    """Network monthly series from per-cell series (exact max / mean)."""
    acc: Dict[int, List[float]] = {}
    for weight, samples in parts:
        for sample in samples:
            entry = acc.setdefault(sample.month, [-math.inf, 0.0, 0])
            entry[0] = max(entry[0], sample.max_degradation)
            entry[1] += sample.mean_degradation * weight
            entry[2] += weight
    return [
        MonthlySample(
            month=month,
            max_degradation=acc[month][0],
            mean_degradation=acc[month][1] / acc[month][2],
        )
        for month in sorted(acc)
    ]


def _spill_path(spill_root: str, round_no: int, cell: int) -> str:
    return os.path.join(
        spill_root, f"round{round_no}", f"cell_{cell:04d}.jsonl"
    )


def _ckpt_path(
    base_dir: Optional[str], round_no: int, cell: int
) -> Optional[str]:
    if base_dir is None:
        return None
    return os.path.join(base_dir, f"round{round_no}", f"cell_{cell:04d}")


def run_sharded(
    config: SimulationConfig,
    obs: Optional[Observability] = None,
    workers: int = 1,
    max_retries: int = 1,
    crash_spec=None,
    transport=None,
    spill_dir: Optional[str] = None,
) -> MesoscopicResult:
    """Run ``config`` sharded by gateway cell; merge into one result.

    ``workers`` bounds concurrent cell processes (1 = strict memory
    isolation: coordinator + one cell at a time).  Crashed cells retry
    up to ``max_retries`` times, resuming from per-cell checkpoints when
    checkpointing is configured.

    ``transport`` selects how cells execute: None builds a
    :class:`LocalTransport` from ``workers``/``max_retries``/
    ``crash_spec`` (its agents live for this call); a
    :class:`repro.dist.DistTransport` leases cells to remote
    ``repro worker`` agents instead.  Results are identical either way.  ``spill_dir`` hosts the per-cell artifacts (a private
    temp directory, deleted afterwards, when None).
    """
    if config.shards is None:
        raise ConfigurationError("config.shards must be set for run_sharded")
    reject_fault_plan(config)
    if config.tracing_enabled:
        raise ConfigurationError(
            "sharded execution does not support event tracing; run with "
            "shards=None (or trace off) instead"
        )
    owns_transport = transport is None
    if owns_transport:
        transport = LocalTransport(
            workers=workers, max_retries=max_retries, crash_spec=crash_spec
        )
    obs = obs if obs is not None else config.build_observability()
    duration = config.duration_s

    with obs.profiler.phase("build"):
        link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
        placements = build_topology(config, link)
        cells = partition_cells(placements)
        selected_by_cell, export_by_cell, profiles = _border_maps(
            config, placements, cells, link
        )

    owns_spill = spill_dir is None
    spill_root = (
        tempfile.mkdtemp(prefix="repro-spill-") if owns_spill else spill_dir
    )
    os.makedirs(spill_root, exist_ok=True)
    base_dir = config.checkpoint_dir

    def make_request(
        round_no: int,
        cell_subset: List[int],
        foreign_by_cell: Dict[int, Optional[ForeignStatics]],
        with_exports: bool,
    ) -> RoundRequest:
        return RoundRequest(
            round_no=round_no,
            config=config,
            cell_ids=sorted(cell_subset),
            placements_by_cell={c: cells[c] for c in cell_subset},
            export_by_cell={
                c: ((export_by_cell[c] or None) if with_exports else None)
                for c in cell_subset
            },
            foreign_by_cell=foreign_by_cell,
            spill_by_cell={
                c: _spill_path(spill_root, round_no, c) for c in cell_subset
            },
            ckpt_by_cell={
                c: _ckpt_path(base_dir, round_no, c) for c in cell_subset
            },
            registry=obs.metrics,
        )

    try:
        with obs.profiler.phase("run"):
            request1 = make_request(1, list(cells), {}, with_exports=True)
            outcomes = transport.run_round(request1)

            # Round 2: re-simulate cells that actually received foreign
            # announcements, with those transmissions as static
            # interferers.
            foreign_by_cell: Dict[int, Optional[ForeignStatics]] = {}
            for cell in cells:
                foreign_by_cell[cell] = _foreign_for_cell(
                    cell, selected_by_cell[cell], outcomes, profiles, config
                )
            redo = [
                cell for cell in cells if foreign_by_cell[cell] is not None
            ]
            final_round = {cell: 1 for cell in cells}
            if redo:
                request2 = make_request(
                    2, redo, foreign_by_cell, with_exports=False
                )
                outcomes2 = transport.run_round(request2)
                for cell, outcome in outcomes2.items():
                    outcomes[cell] = outcome
                    final_round[cell] = 2

        with obs.profiler.phase("finalize"):
            merged_metrics: Dict[int, NodeMetrics] = {}
            linear_rates: Dict[int, float] = {}
            monthly_parts: List[Tuple[int, List[MonthlySample]]] = []
            events = 0
            peak = 0
            merge_peak_rows = 0
            packet_log = (
                PacketLog(sample_nodes=config.effective_sample_nodes())
                if config.record_packets
                else None
            )
            # Lazy merge: one cell's artifact in memory at a time, so
            # coordinator RSS is bounded by the largest cell plus the
            # (sampled, capacity-capped) merged log — never the sum of
            # all cells' packet rows.
            for cell in sorted(cells):
                artifact = load_cell_artifact(
                    _spill_path(spill_root, final_round[cell], cell)
                )
                merged_metrics.update(artifact.metrics)
                linear_rates.update(artifact.linear_rates)
                monthly_parts.append((len(artifact.metrics), artifact.monthly))
                events += artifact.events_executed
                peak = max(peak, artifact.peak_heap)
                if packet_log is not None and artifact.packet_log is not None:
                    merge_peak_rows = max(
                        merge_peak_rows, len(artifact.packet_log)
                    )
                    packet_log.merge(artifact.packet_log)
            metrics = NetworkMetrics(
                nodes={
                    nid: merged_metrics[nid] for nid in sorted(merged_metrics)
                }
            )
            metrics.publish(obs.metrics)
            obs.metrics.counter(
                "events_executed_total",
                "Heap events executed by the mesoscopic sweep",
            ).inc(events)
            obs.metrics.gauge(
                "event_queue_peak_depth",
                "Peak depth of the period/resolve heap",
            ).set(peak)
            obs.metrics.gauge(
                "merge_peak_rows",
                "Largest single-cell packet-log row count held in memory "
                "during the lazy artifact merge",
            ).set(merge_peak_rows)
            monthly = _merge_monthly(monthly_parts)
    finally:
        if owns_transport:
            transport.close()
        if owns_spill:
            shutil.rmtree(spill_root, ignore_errors=True)

    manifest = RunManifest(
        engine="mesoscopic-sharded",
        seed=config.seed,
        config_hash=config_hash(config),
        node_count=len(merged_metrics),
        duration_s=duration,
        policy=config.policy_name,
        events_executed=events,
        peak_queue_depth=peak,
    )
    manifest.finalize(obs.profiler, simulated_s=duration)
    obs.close()
    return MesoscopicResult(
        config=config,
        metrics=metrics,
        monthly=monthly,
        linear_rates=linear_rates,
        simulated_s=duration,
        packet_log=packet_log,
        manifest=manifest,
        obs=obs,
    )
