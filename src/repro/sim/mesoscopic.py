"""Mesoscopic simulator for multi-year, hundreds-of-nodes horizons.

The exact engine spends one heap event per transmission attempt, which is
prohibitive for the paper's 5-15-year, 500-node runs.  This runner keeps
per-*period* granularity globally and resolves channel contention
*exactly but locally* inside each forecast window:

* Decisions (Algorithm 1 / ALOHA) happen at period starts, like the
  paper's protocol.
* All transmissions that chose the same absolute forecast window are
  resolved together by a miniature, exact sub-simulation of that window
  (offsets, airtime overlap, capture, the ω demodulator limit, and
  LMIC-style retransmission backoff) — cross-window interaction is
  neglected, which is the paper's own assumption ("transmissions on one
  forecast window have a negligible effect on transmissions in other
  forecast windows").
* Battery SoC is settled through the software-defined switch in coarse
  chunks, preserving turning points for the rainflow computation.

For horizons beyond the simulated window the runner extrapolates the
*linear* degradation ``D_L`` (calendar ∝ age, cycles accrue at a steady
rate under stationary operation) and applies the nonlinear map of
Eq. (4) — the same observation the paper uses when it notes per-day
degradation changes of 0.001-0.0001.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..battery import Battery, DegradationModel
from ..checkpoint.core import save_checkpoint
from ..checkpoint.interrupt import last_signal
from ..constants import SECONDS_PER_DAY, SECONDS_PER_YEAR
from ..core import DegradationService, MacPolicy
from ..exceptions import ConfigurationError, SimulationError, SimulationInterrupted
from ..energy import (
    CloudProcess,
    Harvester,
    SoftwareDefinedSwitch,
    SolarModel,
)
from ..kernels import contention as kcontention
from ..lora import LogDistanceLink, SpreadingFactor, airtime_table
from ..obs import Observability, RunManifest, config_hash, git_revision
from .config import SimulationConfig
from .engine import build_forecaster, build_mac
from .metrics import NetworkMetrics, NodeMetrics
from .packetlog import PacketLog
from .topology import NodePlacement, build_topology


@dataclass(slots=True)
class WindowEntry:
    """One node's planned transmission inside an absolute window."""

    node: "MesoNode"
    immediate: bool
    window_index_in_period: int
    period_start_s: float
    decision: object = None
    #: For immediate (ALOHA) entries: where within the grid window the
    #: transmission actually starts (0 for perfectly synchronized boots,
    #: the boot jitter otherwise).  Window-selected entries randomize.
    offset_in_window_s: float = 0.0


@dataclass
class WindowOutcome:
    """Result of resolving one node's transmission in a window."""

    attempts: int
    success: bool
    finish_offset_s: float


class StaticAttempt:
    """A frozen foreign transmission injected into a window resolution.

    The sharded engine's border exchange replays the announced schedule
    of strong out-of-cell nodes as *static* interference: a static
    occupies a demodulator slot and contributes co-channel/same-SF
    power, but never retries and receives no outcome.  Its received
    power is pre-linearized (``10 ** (rssi / 10)``, a pure function of
    the static RSSI, so the sums stay bit-identical to inline
    exponentiation).
    """

    __slots__ = ("start_s", "end_s", "channel", "spreading_factor", "lin_mw")

    def __init__(
        self,
        start_s: float,
        end_s: float,
        channel: int,
        spreading_factor,
        lin_mw: Sequence[float],
    ) -> None:
        self.start_s = start_s
        self.end_s = end_s
        self.channel = channel
        self.spreading_factor = spreading_factor
        self.lin_mw = lin_mw


class NodeTemplate:
    """The per-spreading-factor constants every node of that SF shares.

    Computed once per SF by :class:`MesoscopicSimulator` instead of once
    per node: tx parameters, the airtime-table entry, battery capacity,
    sleep power and the DIF scale ``E^tx_max``.
    """

    __slots__ = ("tx_params", "phy", "capacity_j", "sleep_watts", "max_tx_energy_j")

    def __init__(self, config: SimulationConfig, sf: SpreadingFactor) -> None:
        energy_model = config.energy_model()
        self.tx_params = config.tx_params(sf)
        self.phy = airtime_table(energy_model).entry(self.tx_params)
        self.capacity_j = config.battery_capacity_j(sf)
        self.sleep_watts = energy_model.power_profile.sleep_watts
        self.max_tx_energy_j = config.max_tx_energy_j()


class MesoNode:
    """Per-node state for the mesoscopic runner.

    ``template`` and ``solar`` default to this node's own per-SF
    constants and regional solar model; a simulator passes shared ones.
    ``row`` is the node's row in the sweep's shading table.
    """

    def __init__(
        self,
        placement: NodePlacement,
        config: SimulationConfig,
        clouds: CloudProcess,
        link: LogDistanceLink,
        trace=None,
        *,
        template: Optional[NodeTemplate] = None,
        solar: Optional[SolarModel] = None,
        row: int = 0,
    ) -> None:
        self.placement = placement
        self.config = config
        self.row = row
        if template is None:
            template = NodeTemplate(config, placement.spreading_factor)
        params = template.tx_params
        self.tx_params = params
        phy = template.phy
        self.airtime_s = phy.airtime_s
        self.tx_energy_j = phy.tx_energy_j
        self.attempt_energy_j = phy.attempt_energy_j
        self.sleep_watts = template.sleep_watts
        capacity = template.capacity_j
        self.battery = Battery(
            capacity_j=capacity,
            initial_soc=config.initial_soc,
            temperature_c=config.temperature_c,
            # Diet: small pure-function stress caches (bit-identical).
            memo_limit=4096 if config.diet else None,
        )
        if solar is None:
            solar = SolarModel(peak_watts=config.solar_peak_watts(), clouds=clouds)
        self.harvester = Harvester(
            solar=solar,
            node_seed=config.seed * 10_007 + placement.node_id,
            shading_sigma=config.shading_sigma,
            diet=config.diet,
        )
        self.forecaster = build_forecaster(config, self.harvester, placement.node_id)
        self.mac: MacPolicy = build_mac(
            config, capacity, self.attempt_energy_j, template.max_tx_energy_j
        )
        self.switch = SoftwareDefinedSwitch(soc_cap=self.mac.soc_cap)
        self.trace = trace
        if trace is not None:
            self.mac.bind_trace(trace, placement.node_id)
            self.battery.bind_trace(trace, placement.node_id)
        #: Received power at each gateway; an uplink is delivered if any
        #: gateway decodes it.
        self.rssi_by_gateway = [
            link.rssi_dbm(
                params.tx_power_dbm,
                distance,
                antenna_gain_db=config.gateway_antenna_gain_db,
            )
            for distance in placement.gateway_distances_m
        ]
        self.rssi_dbm = max(self.rssi_by_gateway)
        self.sensitivity_dbm = params.sensitivity_dbm
        self.metrics = NodeMetrics(
            node_id=placement.node_id, period_s=placement.period_s
        )
        self.settled_until_s = 0.0

    @property
    def node_id(self) -> int:
        """The node's network identifier."""
        return self.placement.node_id

    @property
    def windows_per_period(self) -> int:
        """|T| — forecast windows available per sampling period."""
        return max(1, int(self.placement.period_s // self.config.window_s))


def resolve_window(
    entries: List[WindowEntry],
    window_s: float,
    channel_count: int,
    omega: int,
    max_retransmissions: int,
    rng: random.Random,
    capture_threshold_db: float = 6.0,
    static_attempts: Sequence[StaticAttempt] = (),
) -> Dict[int, WindowOutcome]:
    """Exactly resolve contention among transmissions sharing a window.

    Immediate (ALOHA) entries start at their offset in the window;
    window-selected entries start at a uniform random offset.  Failed
    attempts retry after the class-A receive windows plus a 1-3 s
    jitter, up to the LoRa limit.  Attempt overlap is resolved pairwise
    on channel (+SF) with capture; more than ω concurrent transmissions
    saturate the demodulators.

    ``static_attempts`` (border exchange) add one-shot foreign
    interference: they count toward ω concurrency and co-channel
    same-SF power but never retry and get no outcomes.  They consume no
    RNG draws.

    The RNG draws happen here, in Python: all round-0 offsets and
    channels first (entry order), then each round's retry backoffs and
    channels (start-sorted order).  The O(batch × universe)
    overlap/concurrency/capture scan of each round runs through the
    :mod:`repro.kernels.contention` round kernel, which only consumes
    the drawn placements.  ``tests/sim/resolve_oracle.py`` keeps the
    pairwise scalar resolver this replays draw for draw.

    Every entry must be a distinct node, and all nodes must have the
    same number of gateways; otherwise :class:`SimulationError`.
    """
    if not entries:
        return {}
    k = len(entries)
    nodes = [entry.node for entry in entries]
    if len({node.node_id for node in nodes}) != k:
        raise SimulationError("a node is listed twice in one window")
    if len({len(node.rssi_by_gateway) for node in nodes}) != 1:
        raise SimulationError("window entries have mixed gateway counts")
    airtimes = [node.airtime_s for node in nodes]
    ctx = kcontention.ResolveContext(
        nodes, static_attempts, omega, capture_threshold_db
    )

    # Round-0 draws, in entry order.
    starts0 = np.empty(k)
    chans0 = np.empty(k, dtype=np.int64)
    for i, entry in enumerate(entries):
        if entry.immediate:
            starts0[i] = entry.offset_in_window_s
        else:
            starts0[i] = rng.uniform(0.0, max(1e-6, window_s - airtimes[i]))
        chans0[i] = rng.randrange(channel_count)

    pend_starts = starts0
    pend_ends = starts0 + np.array(airtimes)
    pend_chans = chans0
    pend_entry = np.arange(k)
    pend_att = np.zeros(k, dtype=np.int64)

    # Universe of already-resolved attempts, in emission order.
    res_starts: List[float] = []
    res_ends: List[float] = []
    res_chans: List[int] = []
    res_entry: List[int] = []
    per_entry_items: List[List[Tuple[int, float, bool]]] = [[] for _ in range(k)]

    while pend_starts.size:
        order = np.argsort(pend_starts, kind="stable")
        b_starts = pend_starts[order]
        b_ends = pend_ends[order]
        b_chans = pend_chans[order]
        b_entry = pend_entry[order]
        b_att = pend_att[order]
        kb = b_starts.size
        nres = len(res_starts)
        if nres:
            u_starts = np.concatenate([res_starts, b_starts])
            u_ends = np.concatenate([res_ends, b_ends])
            u_chans = np.concatenate([res_chans, b_chans])
            u_entry_arr = np.concatenate([res_entry, b_entry])
        else:
            u_starts, u_ends, u_chans, u_entry_arr = (
                b_starts,
                b_ends,
                b_chans,
                b_entry,
            )

        ok = kcontention.round_ok(
            ctx,
            b_starts,
            b_ends,
            b_chans,
            b_entry,
            u_starts,
            u_ends,
            u_chans,
            u_entry_arr,
            nres,
        )

        if not res_starts and ok.all():
            # Every round-0 attempt got through: emit outcomes straight
            # from the draw arrays, skipping the retry/aggregation
            # machinery (finish = each attempt's own end).
            ends0 = pend_ends.tolist()
            return {
                nodes[e].node_id: WindowOutcome(
                    attempts=1, success=True, finish_offset_s=ends0[e]
                )
                for e in range(k)
            }

        res_starts.extend(b_starts.tolist())
        res_ends.extend(b_ends.tolist())
        res_chans.extend(b_chans.tolist())
        res_entry.extend(b_entry.tolist())
        b_ends_list = b_ends.tolist()
        for i in range(kb):
            per_entry_items[b_entry[i]].append(
                (int(b_att[i]), b_ends_list[i], bool(ok[i]))
            )

        # Retry draws: failures in batch (start-sorted) order.
        new_starts: List[float] = []
        new_ends: List[float] = []
        new_chans: List[int] = []
        new_entry: List[int] = []
        new_att: List[int] = []
        for i in np.nonzero(~ok)[0]:
            att = int(b_att[i])
            if att >= max_retransmissions:
                continue
            backoff = 2.0 + rng.uniform(1.0, 3.0)
            chan = rng.randrange(channel_count)
            e = int(b_entry[i])
            start = b_ends_list[i] + backoff
            new_starts.append(start)
            new_ends.append(start + airtimes[e])
            new_chans.append(chan)
            new_entry.append(e)
            new_att.append(att + 1)
        pend_starts = np.array(new_starts)
        pend_ends = np.array(new_ends)
        pend_chans = np.array(new_chans, dtype=np.int64)
        pend_entry = np.array(new_entry, dtype=np.int64)
        pend_att = np.array(new_att, dtype=np.int64)

    outcomes: Dict[int, WindowOutcome] = {}
    for e in range(k):
        items = per_entry_items[e]  # already attempt_no-ascending
        attempts_used = 0
        success = False
        finish = items[-1][1]
        for att, end_s, hit in items:
            attempts_used = att + 1
            if hit:
                success = True
                finish = end_s
                break
        outcomes[nodes[e].node_id] = WindowOutcome(
            attempts=attempts_used, success=success, finish_offset_s=finish
        )
    return outcomes


@dataclass
class MonthlySample:
    """Network degradation snapshot at a month boundary."""

    month: int
    max_degradation: float
    mean_degradation: float


@dataclass
class _SweepState:
    """The chronological sweep's complete progress, hoisted for snapshots.

    :func:`repro.sim.mesoscopic_vec.run_sweep` reads its loop state from
    (and syncs it back to) one of these, so a checkpoint carries it and
    a resumed run continues it.
    """

    #: (time, kind, tiebreak, payload) — kind 0 = period, 1 = resolve.
    heap: List[Tuple[float, int, int, int]]
    pending_windows: Dict[int, List[WindowEntry]]
    monthly: List[MonthlySample]
    seq: int
    next_refresh: float
    next_month: float
    month_index: int
    #: Simulated time of the next cadence checkpoint (inf = disabled).
    next_checkpoint: float

    @classmethod
    def initial(cls, sim: "MesoscopicSimulator") -> "_SweepState":
        """Seed the sweep: one period event per node, cadence armed."""
        config = sim.config
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for node in sim.nodes.values():
            heapq.heappush(
                heap,
                (node.placement.start_offset_s, 0, seq, node.node_id),
            )
            seq += 1
        sim._peak_heap = len(heap)
        every = config.checkpoint_every_s
        next_checkpoint = (
            every
            if every is not None and config.checkpoint_dir is not None
            else math.inf
        )
        return cls(
            heap=heap,
            pending_windows={},
            monthly=[],
            seq=seq,
            next_refresh=config.dissemination_interval_s,
            next_month=SECONDS_PER_YEAR / 12.0,
            month_index=0,
            next_checkpoint=next_checkpoint,
        )


@dataclass
class MesoscopicResult:
    """Results of a mesoscopic run plus lifespan extrapolation hooks."""

    config: SimulationConfig
    metrics: NetworkMetrics
    monthly: List[MonthlySample]
    #: Per-node linear-degradation rates (1/s), basis for extrapolation.
    linear_rates: Dict[int, float]
    simulated_s: float
    #: Per-packet records when ``record_packets`` was enabled, else None.
    packet_log: Optional[PacketLog] = None
    #: Run manifest (timings, config hash, throughput); see repro.obs.
    manifest: Optional[RunManifest] = None
    #: The run's observability bundle (metrics registry, trace bus).
    obs: Optional[Observability] = None

    def network_lifespan_days(self, model: Optional[DegradationModel] = None) -> float:
        """Extrapolated network battery lifespan (first battery to EoL)."""
        model = model or DegradationModel()
        worst = max(self.linear_rates.values())
        return model.lifespan_from_linear_rate(worst) / SECONDS_PER_DAY

    def max_degradation_at(
        self, elapsed_s: float, model: Optional[DegradationModel] = None
    ) -> float:
        """Extrapolated worst-node Eq. (4) degradation at ``elapsed_s``."""
        from ..battery import nonlinear_degradation

        worst = max(self.linear_rates.values())
        return nonlinear_degradation(worst * elapsed_s)


def reject_fault_plan(config: SimulationConfig) -> None:
    """Raise when ``config`` carries a non-empty fault plan or a ``w_u`` TTL.

    Only the exact engine has per-event boundaries to inject faults at,
    and only it stamps each disseminated ``w_u`` with its arrival time,
    which the TTL ages from; the mesoscopic and sharded engines would
    otherwise drop both silently.  An empty plan (``FaultPlan.is_empty``)
    is allowed.
    """
    if config.faults is not None and not config.faults.is_empty:
        raise ConfigurationError(
            "fault plans need the exact engine; the mesoscopic and "
            "sharded engines cannot inject faults"
        )
    if config.w_u_ttl_s is not None:
        raise ConfigurationError(
            "w_u_ttl_s needs the exact engine; the mesoscopic and "
            "sharded engines never age a disseminated w_u"
        )


def cell_contention_seed(seed: int, cell_index: Optional[int]) -> int:
    """Seed of a (cell-local) contention RNG stream.

    ``None`` keeps the classic whole-network stream.  Per-cell streams
    are a pure function of (seed, cell index) — never of how cells were
    packed into shard processes — which is what makes sharded results
    invariant to the shard count.
    """
    base = seed ^ 0xC0FFEE
    if cell_index is None:
        return base
    return base ^ ((0x9E3779B1 * (cell_index + 1)) & 0xFFFFFFFF)


class MesoscopicSimulator:
    """Day-structured simulator with exact per-window contention.

    ``placements``/``cell_index``/``export_nodes``/``foreign`` put the
    simulator in *cell mode* (used by :mod:`repro.sim.sharded`): it
    simulates only the given placements as one contention domain seeded
    by the cell index, records the announced schedule of
    ``export_nodes`` into :attr:`border_intents`, and replays
    ``foreign`` transmissions as static interference.
    """

    ACK_DELAY_S = 1.0

    def __init__(
        self,
        config: SimulationConfig,
        obs: Optional[Observability] = None,
        *,
        placements: Optional[List[NodePlacement]] = None,
        cell_index: Optional[int] = None,
        export_nodes: Optional[frozenset] = None,
        foreign=None,
    ) -> None:
        reject_fault_plan(config)
        self.config = config
        self.obs = obs if obs is not None else config.build_observability()
        self._trace = self.obs.trace
        with self.obs.profiler.phase("build"):
            self.link = LogDistanceLink(
                path_loss_exponent=config.path_loss_exponent
            )
            clouds = CloudProcess(seed=config.seed)
            #: The regional solar model every node's harvester shares.
            self.solar = SolarModel(
                peak_watts=config.solar_peak_watts(), clouds=clouds
            )
            if placements is None:
                placements = build_topology(config, self.link)
            templates: Dict[SpreadingFactor, NodeTemplate] = {}
            self.nodes: Dict[int, MesoNode] = {}
            for row, placement in enumerate(placements):
                sf = placement.spreading_factor
                template = templates.get(sf)
                if template is None:
                    template = templates[sf] = NodeTemplate(config, sf)
                self.nodes[placement.node_id] = MesoNode(
                    placement,
                    config,
                    clouds,
                    self.link,
                    trace=self._trace,
                    template=template,
                    solar=self.solar,
                    row=row,
                )
        self.service = DegradationService()
        if self._trace is not None:
            self.service.bind_trace(self._trace)
        self.packet_log = (
            PacketLog(sample_nodes=config.effective_sample_nodes())
            if config.record_packets
            else None
        )
        self.cell_index = cell_index
        self._export_nodes = export_nodes
        self._foreign = foreign
        #: (absolute_window, node_id, offset | nan) schedule announcements
        #: of exported border nodes, in emission order.
        self.border_intents: List[Tuple[int, int, float]] = []
        self.rng = random.Random(cell_contention_seed(config.seed, cell_index))
        self.model = DegradationModel()
        self._events_executed = 0
        self._peak_heap = 0
        #: In-flight sweep progress; None until a run starts.  A
        #: checkpoint restored mid-sweep carries this, and ``run()``
        #: continues it instead of re-seeding the heap.
        self._sweep_state: Optional[_SweepState] = None

    def run(self) -> MesoscopicResult:
        """Execute the configured horizon and aggregate the results.

        Works for fresh simulators and ones restored from a checkpoint
        (a resumed simulator continues its in-flight sweep state).
        """
        try:
            return self._run_impl()
        except BaseException:
            # The trace sink must not lose buffered lines when a run
            # dies or is interrupted; close() is idempotent, so the
            # completion path's obs.close() stays a harmless no-op.
            self.obs.close()
            raise

    def _run_impl(self) -> MesoscopicResult:
        config = self.config
        duration = config.duration_s

        if self._sweep_state is None and self._trace is not None:
            self._trace.emit(
                0.0,
                "engine",
                "engine.run_started",
                engine="mesoscopic",
                seed=config.seed,
                nodes=len(self.nodes),
                duration_s=duration,
            )

        with self.obs.profiler.phase("run"):
            from .mesoscopic_vec import run_sweep

            monthly = run_sweep(self)
        with self.obs.profiler.phase("finalize"):
            self._finalize(duration)
            linear_rates = {}
            for node in self.nodes.values():
                breakdown = node.battery.last_breakdown
                linear = breakdown.linear if breakdown is not None else 0.0
                linear_rates[node.node_id] = linear / max(duration, 1.0)
            metrics = NetworkMetrics(
                nodes={nid: n.metrics for nid, n in self.nodes.items()}
            )
            metrics.publish(self.obs.metrics)
            self._publish_engine_metrics()
        manifest = self._build_manifest()
        if self._trace is not None:
            self._trace.emit(
                duration,
                "engine",
                "engine.run_finished",
                engine="mesoscopic",
                events=self._events_executed,
                wall_s=manifest.wall_s,
            )
            # Include the closing marker in the manifest's accounting.
            manifest.trace_events = self._trace.emitted
            manifest.trace_dropped = self._trace.dropped
        self.obs.close()
        return MesoscopicResult(
            config=config,
            metrics=metrics,
            monthly=monthly,
            linear_rates=linear_rates,
            simulated_s=duration,
            packet_log=self.packet_log,
            manifest=manifest,
            obs=self.obs,
        )

    def _build_manifest(self) -> RunManifest:
        config = self.config
        manifest = RunManifest(
            engine="mesoscopic",
            seed=config.seed,
            config_hash=config_hash(config),
            node_count=len(self.nodes),
            duration_s=config.duration_s,
            policy=config.policy_name,
            git_rev=git_revision() if self._trace is not None else None,
            events_executed=self._events_executed,
            peak_queue_depth=self._peak_heap,
            trace_events=(
                self._trace.emitted if self._trace is not None else 0
            ),
            trace_dropped=(
                self._trace.dropped if self._trace is not None else 0
            ),
            trace_path=config.trace_path,
        )
        manifest.finalize(self.obs.profiler, simulated_s=config.duration_s)
        return manifest

    def _publish_engine_metrics(self) -> None:
        registry = self.obs.metrics
        registry.counter(
            "events_executed_total",
            "Heap events executed by the mesoscopic sweep",
        ).inc(self._events_executed)
        registry.gauge(
            "event_queue_peak_depth",
            "Peak depth of the period/resolve heap",
        ).set(self._peak_heap)

    # -------------------------------------------------------- checkpointing

    def _checkpoint_before(self, next_event_s: float, state: _SweepState) -> None:
        """Cadence snapshot taken at the loop top, before the next pop.

        The state is exactly "about to process the event at
        ``next_event_s``" and saving mutates nothing, so resuming the
        snapshot is trivially bit-identical to continuing.  The cadence
        pointer is advanced *before* saving so the snapshot carries its
        own future (catching up across empty stretches where no event
        landed between two boundaries).
        """
        checkpoint_t = state.next_checkpoint
        while state.next_checkpoint <= next_event_s:
            checkpoint_t = state.next_checkpoint
            state.next_checkpoint += self.config.checkpoint_every_s
        self._write_checkpoint(min(checkpoint_t, self.config.duration_s))

    def _write_checkpoint(self, time_s: float) -> None:
        """Bump the deterministic bookkeeping, then snapshot.

        Counter and trace marker move *before* pickling so a resumed
        run continues both series exactly where the reference run's
        were at this instant.
        """
        self.obs.metrics.counter(
            "checkpoints_written_total", "Checkpoints the engine wrote"
        ).inc()
        if self._trace is not None:
            self._trace.emit(
                time_s,
                "engine",
                "engine.checkpoint",
                severity="debug",
                events_executed=self._events_executed,
            )
        save_checkpoint(self, self.config.checkpoint_dir, time_s, engine="meso")

    def _interrupted(self, time_s: float) -> None:
        """Unwind after a SIGINT/SIGTERM stop request (rescue snapshot).

        The rescue snapshot skips the checkpoint counter and trace —
        out-of-band bookkeeping must not leak into the resumed run's
        (byte-compared) outputs.
        """
        path = None
        if self.config.checkpoint_dir is not None:
            path = save_checkpoint(
                self, self.config.checkpoint_dir, time_s, engine="meso"
            )
        raise SimulationInterrupted(
            f"mesoscopic run stopped by signal at t={time_s:.3f}s",
            time_s=time_s,
            checkpoint_path=path,
            signum=last_signal(),
        )

    # ------------------------------------------------------------- internals

    def _export_intent(self, entry: WindowEntry, absolute_window: int) -> None:
        """Announce a border node's scheduled window to other cells.

        Only the grid window is announced — window-selected offsets are
        drawn later from the *cell* RNG and must not couple cells, so
        receivers re-derive a deterministic offset; immediate (ALOHA)
        offsets are known now and exported as-is.
        """
        node_id = entry.node.node_id
        if self._export_nodes is None or node_id not in self._export_nodes:
            return
        self.border_intents.append(
            (
                absolute_window,
                node_id,
                entry.offset_in_window_s if entry.immediate else math.nan,
            )
        )

    def _statics_for(self, window_index: int) -> Sequence[StaticAttempt]:
        """Foreign static interferers scheduled in one absolute window."""
        if self._foreign is None:
            return ()
        return self._foreign.statics_for(window_index)

    def _record_refresh_wall(self, now_s: float, elapsed_s: float) -> None:
        """Publish one refresh pass's wall time to metrics and trace."""
        self.obs.metrics.counter(
            "degradation_refresh_seconds",
            "Wall seconds spent in Eq. (1)-(4) refresh passes",
        ).inc(elapsed_s)
        if self._trace is not None:
            self._trace.emit(
                now_s,
                "perf",
                "perf.refresh",
                severity="debug",
                nodes=len(self.nodes),
                wall_s=elapsed_s,
            )

    def _finalize(self, duration_s: float) -> None:
        from .mesoscopic_vec import _Harvest, _settle_items

        started = time.perf_counter()
        nodes = list(self.nodes.values())
        _, held = _settle_items(
            [(node, duration_s, 0.0) for node in nodes],
            _Harvest(self),
            self.config.settle_chunk_s(),
        )
        for node, brownouts in zip(nodes, held):
            if brownouts:
                self._trace.publish(brownouts)
            degradation = node.battery.refresh_degradation()
            node.metrics.degradation = degradation
            breakdown = node.battery.last_breakdown
            if breakdown is not None:
                node.metrics.cycle_aging = breakdown.cycle
                node.metrics.calendar_aging = breakdown.calendar
            node.metrics.final_soc = node.battery.soc
        self._record_refresh_wall(duration_s, time.perf_counter() - started)


def run_mesoscopic(
    config: SimulationConfig,
    obs: Optional[Observability] = None,
    shard_workers: int = 1,
    transport=None,
) -> MesoscopicResult:
    """Convenience wrapper: build and run a mesoscopic simulation.

    When ``config.shards`` is set the run is dispatched to the
    gateway-cell sharded coordinator (worker processes bound memory;
    results are invariant to the shard count).  ``transport`` selects
    how shard cells execute (local pipes when None; a
    :class:`repro.dist.DistTransport` leases them to remote workers)
    and requires ``config.shards``.
    """
    if config.shards is not None:
        from .sharded import run_sharded

        return run_sharded(
            config, obs=obs, workers=shard_workers, transport=transport
        )
    if transport is not None:
        raise ConfigurationError(
            "a dist transport requires sharded execution; set config.shards"
        )
    return MesoscopicSimulator(config, obs=obs).run()
