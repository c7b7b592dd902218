"""The exact, event-driven network simulator (NS-3 substitute).

Wires topology, PHY, energy subsystem, MAC policies, gateway, and server
into a deterministic discrete-event simulation.  Every transmission
attempt is an explicit event with exact airtime overlap, capture, the ω
demodulator limit, class-A ACK timing, and per-attempt retransmission
backoff — the level of fidelity of the paper's NS-3 runs.  Use this for
testbed-scale scenarios (tens of nodes, hours-to-weeks); multi-year
500-node sweeps use :mod:`repro.sim.mesoscopic`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..battery import Battery
from ..checkpoint.interrupt import last_signal, stop_requested
from ..core import (
    BatteryLifespanAwareMac,
    ConfirmedUplinkRetrier,
    LorawanAlohaMac,
    MacPolicy,
    PeriodContext,
    ThresholdOnlyMac,
    WindowDecision,
)
from ..core.mac import batch_choose_windows_mixed
from ..checkpoint.core import save_checkpoint
from ..exceptions import (
    ConfigurationError,
    ProtocolError,
    SchedulingError,
    SimulationInterrupted,
)
from ..faults import FaultCounters, FaultInjector
from ..energy import (
    CloudProcess,
    EnergyForecaster,
    Harvester,
    NoisyForecaster,
    OracleForecaster,
    PersistenceForecaster,
    SolarModel,
)
from ..lora import ChannelHopper, ChannelPlan, LogDistanceLink, Transmission
from ..obs import (
    Observability,
    RunManifest,
    config_hash,
    git_revision,
    hot_profiler,
)
from .config import SimulationConfig
from .events import EventQueue
from .gateway import Gateway
from .metrics import NetworkMetrics
from .node import EndDevice
from .packetlog import PacketLog
from .server import NetworkServer
from .topology import NodePlacement, build_topology


@dataclass
class SimulationResult:
    """Everything a run produces."""

    config: SimulationConfig
    metrics: NetworkMetrics
    gateway_stats: "object"
    uplinks_received: int
    disseminations_sent: int
    events_executed: int
    #: Per-packet records when ``record_packets`` was enabled, else None.
    packet_log: "PacketLog | None" = None
    #: Per-fault counters when the config carried a fault plan, else None.
    fault_counters: "FaultCounters | None" = None
    #: Run manifest: config hash, seed, phase timings, throughput.
    manifest: "RunManifest | None" = None
    #: The run's instrumentation bundle (trace bus, metrics registry).
    obs: "Observability | None" = None


def build_forecaster(
    config: SimulationConfig, harvester: Harvester, node_id: int
) -> EnergyForecaster:
    """Instantiate the forecaster family a config selects."""
    if config.forecaster == "persistence":
        return PersistenceForecaster(
            peak_window_energy_j=config.solar_peak_watts() * config.window_s
        )
    if config.forecaster == "noisy" or config.forecast_sigma > 0:
        return NoisyForecaster(
            harvester,
            sigma=config.forecast_sigma if config.forecast_sigma > 0 else 0.15,
            seed=config.seed * 31 + node_id,
        )
    return OracleForecaster(harvester)


def build_mac(
    config: SimulationConfig,
    capacity_j: float,
    nominal_j: float,
    max_tx_energy_j: Optional[float] = None,
) -> MacPolicy:
    """Instantiate the MAC policy a config describes.

    ``max_tx_energy_j`` lets a caller that already holds
    ``config.max_tx_energy_j()`` skip recomputing it per node.
    """
    if config.use_window_selection:
        if max_tx_energy_j is None:
            max_tx_energy_j = config.max_tx_energy_j()
        return BatteryLifespanAwareMac(
            soc_cap=config.soc_cap,
            w_b=config.w_b,
            max_tx_energy_j=max_tx_energy_j,
            nominal_tx_energy_j=nominal_j,
            beta=config.ewma_beta,
            battery_capacity_j=capacity_j,
            w_u_ttl_s=config.w_u_ttl_s,
        )
    if config.soc_cap >= 1.0:
        return LorawanAlohaMac()
    return ThresholdOnlyMac(soc_cap=config.soc_cap)


class Simulator:
    """Deterministic event-driven simulation of one configuration."""

    #: Delay between the end of an uplink and the ACK in RX1.
    ACK_DELAY_S = 1.0

    def __init__(
        self, config: SimulationConfig, obs: "Observability | None" = None
    ) -> None:
        if config.memory_profile == "diet":
            raise ConfigurationError(
                "memory_profile='diet' needs the mesoscopic engine; the "
                "exact engine keeps full per-node state"
            )
        self.config = config
        self.obs = obs if obs is not None else config.build_observability()
        #: Hot-path trace handle; None makes every emission guard dead.
        self._trace = self.obs.trace
        self.queue = EventQueue()
        self.rng = random.Random(config.seed ^ 0x5EED)
        #: Fault oracle; None reproduces the fault-free world exactly.
        #: The injector draws from its own seeded RNG streams, so runs
        #: with and without a plan stay individually bit-reproducible.
        self.injector = (
            FaultInjector(
                config.faults,
                gateway_count=config.gateway_count,
                default_seed=config.seed,
            )
            if config.faults is not None
            else None
        )
        self.link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
        #: One Gateway per site; an uplink is delivered when any of them
        #: decodes it (the network server de-duplicates).
        self.gateways = [Gateway(omega=config.omega) for _ in range(config.gateway_count)]
        self.gateway = self.gateways[0]
        self.server = NetworkServer()
        self.packet_log = (
            PacketLog(sample_nodes=config.effective_sample_nodes())
            if config.record_packets
            else None
        )
        self._bind_queue()
        plan = ChannelPlan().subset(config.channel_count)
        # The regional solar model every node's harvester shares.
        solar = SolarModel(
            peak_watts=config.solar_peak_watts(),
            clouds=CloudProcess(seed=config.seed),
        )

        if self._trace is not None:
            self.server.service.bind_trace(self._trace)
            if self.injector is not None:
                self.injector.bind_trace(self._trace, now=self._now_clock)

        self.nodes: Dict[int, EndDevice] = {}
        with self.obs.profiler.phase("build"):
            placements = build_topology(config, self.link)
            for placement in placements:
                self.nodes[placement.node_id] = self._build_node(
                    placement, plan, solar
                )
        self._events_executed = 0
        self._started = False

    def _now_clock(self) -> float:
        """Picklable clock hook (bound method, not a closure)."""
        return self.queue.now_s

    # ------------------------------------------------------------- building

    def _build_node(
        self, placement: NodePlacement, plan: ChannelPlan, solar: SolarModel
    ) -> EndDevice:
        config = self.config
        params = config.tx_params(placement.spreading_factor)
        capacity = config.battery_capacity_j(placement.spreading_factor)
        battery = Battery(
            capacity_j=capacity,
            initial_soc=config.initial_soc,
            temperature_c=config.temperature_c,
        )
        harvester = Harvester(
            solar=solar,
            node_seed=config.seed * 10_007 + placement.node_id,
            shading_sigma=config.shading_sigma,
        )
        forecaster = build_forecaster(config, harvester, placement.node_id)
        if self.injector is not None:
            forecaster = self.injector.wrap_forecaster(
                forecaster, placement.node_id
            )
        energy_model = config.energy_model()
        nominal = energy_model.tx_attempt_energy(params)
        mac = build_mac(config, capacity, nominal)
        node_rng = random.Random(config.seed * 7919 + placement.node_id)
        hopper = ChannelHopper(plan, rng=node_rng)
        on_brownout = (
            self.injector.on_brownout if self.injector is not None else None
        )
        return EndDevice(
            placement=placement,
            tx_params=params,
            battery=battery,
            harvester=harvester,
            forecaster=forecaster,
            mac=mac,
            hopper=hopper,
            window_s=config.window_s,
            energy_model=energy_model,
            rng=node_rng,
            max_retransmissions=config.max_retransmissions,
            packet_log=self.packet_log,
            retrier=ConfirmedUplinkRetrier(
                max_retransmissions=config.max_retransmissions
            ),
            on_brownout=on_brownout,
            trace=self._trace,
            link=self.link,
            antenna_gain_db=config.gateway_antenna_gain_db,
        )

    # ---------------------------------------------------------- dispatching

    #: Checkpoint events run strictly after every same-time simulation
    #: event, so a snapshot always captures a settled instant.
    CHECKPOINT_PRIORITY = 100

    def _dispatch(self, kind: str, args: tuple) -> None:
        """Route a named event from the queue to its handler."""
        if kind == "attempt":
            self._on_attempt(*args)
        elif kind == "attempt_end":
            self._on_attempt_end(*args)
        elif kind == "period":
            self._on_period_batch(list(args))
        elif kind == "refresh":
            self._on_refresh(*args)
        elif kind == "reboot":
            self._on_reboot(*args)
        elif kind == "checkpoint":
            self._on_checkpoint()
        else:
            raise SchedulingError(f"unknown event kind {kind!r}")

    def _bind_queue(self) -> None:
        """Bind the queue's dispatch hooks (pickling strips them).

        Every same-instant run of PERIOD events pops in one go and goes
        to :meth:`_on_period_batch`; a lone PERIOD event comes through
        :meth:`_dispatch` as a cohort of one.
        """
        self.queue.dispatch = self._dispatch
        self.queue.dispatch_batch = self._dispatch_batch
        self.queue.batch_kinds = frozenset({"period"})

    def _dispatch_batch(self, kind: str, batch: List[tuple]) -> None:
        """Route a same-instant run of PERIOD events (the one batchable kind)."""
        self._on_period_batch([args[0] for args in batch])

    # -------------------------------------------------------------- running

    def run(self) -> SimulationResult:
        """Execute the configured duration and aggregate the results.

        Works for fresh simulators and for ones restored from a
        checkpoint: a resumed simulator skips initial scheduling (its
        event queue already holds the future) and plays out the rest of
        the horizon.
        """
        try:
            return self._run_impl()
        except BaseException:
            # The trace sink must not lose buffered lines when a run
            # dies or is interrupted; close() is idempotent, so the
            # completion path's obs.close() stays a harmless no-op.
            self.obs.close()
            raise

    def _schedule_initial(self) -> None:
        """Queue the events a fresh run starts from."""
        for node in self.nodes.values():
            start = node.placement.start_offset_s
            self._schedule_period(node, start)
        self._schedule_refresh(self.config.dissemination_interval_s)
        if self.injector is not None:
            for node in self.nodes.values():
                for reboot in self.injector.reboots_for(node.node_id):
                    if reboot.time_s < self.config.duration_s:
                        self.queue.schedule_event(
                            reboot.time_s, "reboot", node, priority=-2
                        )
        every = self.config.checkpoint_every_s
        if (
            every is not None
            and self.config.checkpoint_dir is not None
            and every < self.config.duration_s
        ):
            self.queue.schedule_event(
                every, "checkpoint", priority=self.CHECKPOINT_PRIORITY
            )

    def _run_impl(self) -> SimulationResult:
        fresh = not self._started
        if fresh and self._trace is not None:
            self._trace.emit(
                0.0,
                "engine",
                "engine.run_started",
                engine="exact",
                seed=self.config.seed,
                nodes=self.config.node_count,
                duration_s=self.config.duration_s,
            )
        with self.obs.profiler.phase("run"):
            if fresh:
                self._started = True
                self._schedule_initial()
            completed = self.queue.run_until(
                self.config.duration_s, stop_check=stop_requested
            )
            if not completed:
                self._interrupted()
        with self.obs.profiler.phase("finalize"):
            self._finalize()
            counters = (
                self.injector.counters if self.injector is not None else None
            )
            metrics = NetworkMetrics(
                nodes={nid: n.metrics for nid, n in self.nodes.items()},
                faults=counters,
            )
        manifest = self._build_manifest()
        metrics.publish(self.obs.metrics)
        self._publish_engine_metrics()
        if self._trace is not None:
            self._trace.emit(
                self.config.duration_s,
                "engine",
                "engine.run_finished",
                engine="exact",
                events_executed=self._events_executed,
                wall_s=manifest.wall_s,
                sim_s_per_wall_s=manifest.sim_s_per_wall_s,
            )
            # Include the closing marker in the manifest's accounting.
            manifest.trace_events = self._trace.emitted
            manifest.trace_dropped = self._trace.dropped
        self.obs.close()
        return SimulationResult(
            config=self.config,
            metrics=metrics,
            gateway_stats=self.gateway.stats,
            uplinks_received=self.server.uplinks_received,
            disseminations_sent=self.server.disseminations_sent,
            events_executed=self._events_executed,
            packet_log=self.packet_log,
            fault_counters=counters,
            manifest=manifest,
            obs=self.obs,
        )

    # -------------------------------------------------------- observability

    def _build_manifest(self) -> RunManifest:
        """Assemble the run manifest from config identity and timings."""
        trace = self._trace
        manifest = RunManifest(
            engine="exact",
            seed=self.config.seed,
            config_hash=config_hash(self.config),
            node_count=self.config.node_count,
            duration_s=self.config.duration_s,
            policy=self.config.policy_name,
            # A subprocess per run is too slow for sweeps; resolve the
            # revision only when the run is actually being traced.
            git_rev=git_revision() if trace is not None else None,
            events_executed=self._events_executed,
            peak_queue_depth=self.queue.peak_pending,
            trace_events=trace.emitted if trace is not None else 0,
            trace_dropped=trace.dropped if trace is not None else 0,
            trace_path=self.config.trace_path,
        )
        manifest.finalize(self.obs.profiler, simulated_s=self.config.duration_s)
        return manifest

    def _publish_engine_metrics(self) -> None:
        """Fold engine-level counters into the metrics registry."""
        registry = self.obs.metrics
        registry.counter(
            "events_executed_total", "Discrete events the engine executed"
        ).inc(self._events_executed)
        registry.counter(
            "uplinks_received_total", "Uplinks decoded by the network server"
        ).inc(self.server.uplinks_received)
        registry.counter(
            "disseminations_sent_total", "ACKs that carried a w_u byte"
        ).inc(self.server.disseminations_sent)
        registry.gauge(
            "event_queue_peak_depth", "High-water mark of the event heap"
        ).set(self.queue.peak_pending)

    # ---------------------------------------------------------- event logic

    def _schedule_period(self, node: EndDevice, when_s: float) -> None:
        # A period starting at the horizon would generate a packet whose
        # transmission can never complete; cut generation strictly before.
        if when_s >= self.config.duration_s:
            return
        self.queue.schedule_event(when_s, "period", node)

    def _on_period_batch(self, nodes: List[EndDevice]) -> None:
        """Same-instant period cohort, decided in one vector pass.

        Nodes arrive in exact heap pop order (a lone PERIOD event is a
        cohort of one).  Each node settles and forecasts, one batched
        Algorithm-1 pass scores the cohort, then each decision is
        booked.  Cross-node state (RNG streams, estimators, batteries)
        is touched per node in pop order, and booking assigns the
        sequence numbers a one-event-at-a-time drain would (no handler
        schedules between two same-instant periods).  Each node's trace
        events and packet records from the first two phases are held
        and published as it is booked, so both streams keep that
        drain's order too.
        """
        now = self.queue.now_s
        self._events_executed += len(nodes)
        harvest = self._cohort_harvest(nodes, now)
        forecasts, held = [], []
        for node, (layout, powers, oracle) in zip(nodes, harvest):
            self._hold()
            if node.packet is not None:
                # Previous packet still in flight at its deadline: fail it.
                node.finish_packet(now, delivered=False, latency_s=node.period_s)
            if (
                self.injector is not None
                and isinstance(node.mac, BatteryLifespanAwareMac)
                and node.mac.weight_is_stale(now)
            ):
                self.injector.record_stale_weight_period()
            forecasts.append(node.begin_period(now, powers, oracle, layout))
            held.append(self._release())
        self._hold()
        prof = hot_profiler()
        if prof.enabled:
            started = time.perf_counter()
            decisions = self._batch_window_decisions(nodes, forecasts, now)
            prof.add("engine.period_batch", time.perf_counter() - started)
        else:
            decisions = self._batch_window_decisions(nodes, forecasts, now)
        scored, _ = self._release()
        if scored:
            # Scoring events (w_u decay, window.selected) name their node.
            slot = {node.node_id: k for k, node in enumerate(nodes)}
            for event in scored:
                held[slot[event.node_id]][0].append(event)
        for node, decision, (events, records) in zip(nodes, decisions, held):
            if events:
                self._trace.publish(events)
            for record in records:
                self.packet_log.append(record)
            first_attempt = node.finish_period_decision(now, decision)
            if first_attempt is not None:
                if self.injector is not None:
                    # Clock skew displaces the node's view of the window
                    # boundary (never before the packet exists).
                    first_attempt = self.injector.skew_attempt(
                        node.node_id, first_attempt, now
                    )
                self.queue.schedule_event(
                    first_attempt, "attempt", node, node.packet
                )
            self._schedule_period(node, now + node.period_s)

    def _hold(self) -> None:
        """Hold trace events and packet records until :meth:`_release`."""
        for stream in (self._trace, self.packet_log):
            if stream is not None:
                stream.hold()

    def _release(self) -> Tuple[list, list]:
        """Stop holding; returns the held trace events and packet records."""
        trace, log = self._trace, self.packet_log
        return (
            [] if trace is None else trace.release(),
            [] if log is None else log.release(),
        )

    def _cohort_harvest(
        self, nodes: List[EndDevice], now: float, forecast: bool = True
    ) -> List[Tuple[tuple, List[float], Optional[List[float]]]]:
        """Every node's settle layout and powers, and oracle forecast, at once.

        Each node lays out its settle to ``now`` once
        (:meth:`~repro.sim.node.EndDevice.settle_chunks`), and the
        layout travels with its powers to the node's settle.  The
        points are each node's settle-chunk midpoints plus, when
        ``forecast`` is set, the forecast-window midpoints, one row for
        the whole cohort (it shares ``now`` and the window length).  The
        shared solar model evaluates all of them in one
        :meth:`~repro.energy.SolarModel.power_watts_batch` call; shading
        comes from each harvester's own scalar cache, once per distinct
        (node, grid index), night points skipped — zero panel output
        makes the product an exact 0.0 whatever the factor.  Products
        keep the scalar ``(solar × shade) × η`` order, and an oracle
        forecast is ``power × window`` per window, exactly
        :meth:`~repro.energy.Harvester.window_energies`.  Returns, per
        node, its settle layout, its settle powers and its oracle
        forecast (None for other forecasters, which keep calling
        ``forecast``, and for every node when ``forecast`` is off: the
        refresh and finalize passes only settle).
        """
        window_s = self.config.window_s
        half = window_s / 2.0
        oracle = [
            forecast and type(node.forecaster) is OracleForecaster
            for node in nodes
        ]
        widest = max(
            (n.windows_per_period for n, o in zip(nodes, oracle) if o), default=0
        )
        starts: List[float] = []
        durations: List[float] = []
        bounds = []
        layouts = []
        for node in nodes:
            layout = node.settle_chunks(now)
            layouts.append(layout)
            first = len(starts)
            starts += layout[0]
            durations += layout[2]
            bounds.append((first, len(starts)))
        row = len(starts)
        if not row and not widest:
            return [(layout, [], None) for layout in layouts]
        times = np.concatenate(
            (
                np.array(starts) + np.array(durations) / 2.0,
                [now + i * window_s + half for i in range(widest)],
            )
        )
        # All harvesters share one model (snapshots from before it was
        # shared hold equal per-node copies: the values are the same).
        solar = nodes[0].harvester.solar.power_watts_batch(times)

        # Harvest points: every node's settle midpoints, then each
        # oracle's forecast row; ``owner`` is the point's node.
        owner = np.repeat(np.arange(len(nodes)), [b - a for a, b in bounds])
        point_times, point_solar = times, solar
        forecast_at = []
        if widest:
            index, owners, size = [np.arange(row)], [owner], row
            for k, node in enumerate(nodes):
                if oracle[k]:
                    count = node.windows_per_period
                    forecast_at.append((k, size, size + count))
                    index.append(np.arange(row, row + count))
                    owners.append(np.full(count, k))
                    size += count
            index = np.concatenate(index)
            owner = np.concatenate(owners)
            point_times = times[index]
            point_solar = solar[index]
        harvesters = [node.harvester for node in nodes]
        steps = np.array([h.shading_step_s for h in harvesters])
        shade = np.ones(len(owner))
        day = np.flatnonzero(point_solar != 0.0)
        if len(day):
            day_owner = owner[day]
            day_times = point_times[day]
            grid = np.floor_divide(day_times, steps[day_owner]).astype(np.int64)
            _, first_at, inverse = np.unique(
                day_owner * (1 << 40) + grid, return_index=True, return_inverse=True
            )
            day_owner = day_owner.tolist()
            day_times = day_times.tolist()
            shade[day] = np.array(
                [
                    harvesters[day_owner[j]]._shading_factor(day_times[j])
                    for j in first_at.tolist()
                ]
            )[inverse]
        efficiency = np.array([h.efficiency for h in harvesters])[owner]
        power = (point_solar * shade) * efficiency

        harvest = [
            (layout, power[a:b].tolist(), None)
            for layout, (a, b) in zip(layouts, bounds)
        ]
        for k, a, b in forecast_at:
            harvest[k] = harvest[k][:2] + ((power[a:b] * window_s).tolist(),)
        return harvest

    #: Nodes per harvest batch of a refresh or finalize pass.  Each batch
    #: holds its nodes' settle layouts and powers until they settle; one
    #: batch over all 100 nodes of the ``exact_faults`` benchmark at its
    #: finalize, where the run's heap is largest, raised the run's peak
    #: RSS by about 0.14 MiB.
    PASS_BATCH_NODES = 32

    def _pass_harvest(self, now: float):
        """Each node with its settle layout and powers for a settle to ``now``.

        The refresh and finalize passes settle every node.  Nodes come
        in ``self.nodes`` order, their harvest evaluated by
        :meth:`_cohort_harvest` for :data:`PASS_BATCH_NODES` nodes at a
        time.  A node's layout and powers depend only on its own settled
        point, so the caller may settle (and refresh) each node before
        the next batch is evaluated.
        """
        nodes = list(self.nodes.values())
        size = self.PASS_BATCH_NODES
        for first in range(0, len(nodes), size):
            batch = nodes[first : first + size]
            harvest = self._cohort_harvest(batch, now, forecast=False)
            for node, (layout, powers, _) in zip(batch, harvest):
                yield node, layout, powers

    def _batch_window_decisions(
        self,
        nodes: List[EndDevice],
        forecasts: List[list],
        now: float,
    ) -> List[WindowDecision]:
        """Per-node window decisions, vectorized where the MAC allows.

        Every node of a run has the policy its config selects.
        Lifespan-aware MACs go through the padded mixed-|T| batch scorer
        (bit-identical per row to the scalar Algorithm 1, estimator side
        effects in pop order), whose rows also give each node's
        ``window.selected`` event; immediate-transmit baselines consult
        their scalar :meth:`~repro.core.MacPolicy.choose_window` — it is
        a constant-time decision with nothing to vectorize.
        """
        if not isinstance(nodes[0].mac, BatteryLifespanAwareMac):
            return [
                node.mac.choose_window(
                    PeriodContext(
                        battery_energy_j=node.battery.stored_j,
                        green_forecast_j=forecast,
                        nominal_tx_energy_j=node.attempt_energy_j,
                        period_start_s=now,
                    )
                )
                for node, forecast in zip(nodes, forecasts)
            ]
        counts = [len(forecast) for forecast in forecasts]
        green = np.zeros((len(nodes), max(counts)))
        for row, forecast in enumerate(forecasts):
            green[row, : counts[row]] = forecast
        stored = [node.battery.stored_j for node in nodes]
        batch = batch_choose_windows_mixed(
            [node.mac for node in nodes],
            np.array(stored),
            green,
            [node.attempt_energy_j for node in nodes],
            counts,
            now,
        )
        trace = self._trace
        selected = trace is not None and trace.wants("window", "debug")
        decisions = []
        for row, (node, count) in enumerate(zip(nodes, counts)):
            if selected:
                trace.emit(
                    now,
                    "window",
                    "window.selected",
                    severity="debug",
                    node_id=node.node_id,
                    **batch.selected_fields(row, count, stored[row]),
                )
            ok = bool(batch.success[row])
            decisions.append(
                WindowDecision(
                    success=ok,
                    window_index=int(batch.window_index[row]) if ok else None,
                    scores=batch.scores[row, :count].tolist(),
                    utilities=batch.utilities[row, :count].tolist(),
                    difs=batch.difs[row, :count].tolist(),
                )
            )
        return decisions

    def _on_attempt(self, node: EndDevice, packet) -> None:
        self._events_executed += 1
        now = self.queue.now_s
        if node.packet is not packet:
            return  # Packet failed at a period boundary or lost to a reboot.
        if not node.draw_attempt_energy(now):
            # Brown-out: battery cannot fund the attempt.
            node.metrics.packets_dropped_energy += 1
            node.finish_packet(now, delivered=False, latency_s=node.period_s)
            if self.injector is not None and self.injector.reboot_on_brownout:
                self._reboot_node(node)
            return
        packet.battery_energy_j += node.attempt_energy_j
        packet.tx_energy_metric_j += node.tx_energy_j
        packet.discharge_soc = node.battery.soc
        channel = node.hopper.next_channel()
        if self._trace is not None:
            self._trace.emit(
                now,
                "packet",
                "packet.attempt",
                severity="debug",
                node_id=node.node_id,
                attempt=packet.attempt,
                channel=channel.index,
                soc=node.battery.soc,
            )
        tokens = []
        for index, (rssi, gateway) in enumerate(
            zip(node.gateway_rssi_dbm, self.gateways)
        ):
            if self.injector is not None and self.injector.gateway_down(
                index, now
            ):
                # The gateway is down: the uplink is simply not heard
                # there (and contributes no interference at that site).
                self.injector.record_uplink_lost_outage()
                continue
            tx = Transmission(
                node_id=node.node_id,
                start_s=now,
                duration_s=node.airtime_s,
                channel_index=channel.index,
                spreading_factor=node.tx_params.spreading_factor,
                rssi_dbm=rssi,
                attempt=packet.attempt,
            )
            tokens.append((gateway, gateway.begin_reception(tx, node.tx_params)))
        self.queue.schedule_event(
            now + node.airtime_s, "attempt_end", node, packet, tokens
        )

    def _on_attempt_end(self, node: EndDevice, packet, tokens) -> None:
        self._events_executed += 1
        now = self.queue.now_s
        # Every gateway must close out its reception; delivery needs any
        # one of them to have decoded the uplink.
        delivered = False
        for gateway, token in tokens:
            if gateway.end_reception(token):
                delivered = True
        if node.packet is not packet:
            return
        if delivered:
            ack_time = now + self.ACK_DELAY_S
            # The uplink reached the network server: the piggybacked
            # report is consumed whether or not the ACK makes it back.
            report = node.take_pending_report()
            payload = self.server.handle_uplink(
                node.node_id,
                ack_time,
                report=report,
                period_start_s=packet.period_start_s,
                window_s=node.window_s,
            )
            ack_lost = self.injector is not None and self.injector.ack_lost(
                node.node_id, ack_time
            )
            if not ack_lost:
                if payload.w_u is not None:
                    node.mac.set_normalized_degradation(
                        payload.w_u, received_at_s=ack_time
                    )
                    node.needs_weight_refresh = False
                latency = ack_time - packet.generated_at_s
                node.finish_packet(now, delivered=True, latency_s=latency)
                return
            # ACK lost: the node cannot tell a lost uplink from a lost
            # ACK and falls into the same retry path.  A dissemination
            # burned on the lost ACK stays unreceived — the stale-w_u
            # decay (and reboot re-requests) cover exactly this case.
            node.metrics.acks_lost += 1
            if node.needs_weight_refresh:
                self.server.force_dissemination(node.node_id)
        packet.attempt += 1
        try:
            backoff = node.backoff_s(packet.attempt)
        except ProtocolError:
            # Retry budget exhausted: the packet is abandoned.
            node.metrics.retries_exhausted += 1
            if self.injector is not None:
                self.injector.record_retry_exhausted()
            node.finish_packet(now, delivered=False, latency_s=node.period_s)
            return
        self.queue.schedule_event(now + backoff, "attempt", node, packet)

    def _on_reboot(self, node: EndDevice) -> None:
        """Scheduled brown-out reboot event for one node."""
        self._events_executed += 1
        self._reboot_node(node)

    def _reboot_node(self, node: EndDevice) -> None:
        """Execute reboot semantics: fail, wipe, and re-request a weight."""
        now = self.queue.now_s
        if node.packet is not None:
            # The in-flight packet dies with the volatile state.
            node.finish_packet(now, delivered=False, latency_s=node.period_s)
        node.reboot(now)
        if self.injector is not None:
            self.injector.record_reboot()
        # The rebooted node signals for a fresh w_u; the server answers
        # on the next ACK regardless of the dissemination interval.
        self.server.force_dissemination(node.node_id)

    def _schedule_refresh(self, when_s: float) -> None:
        if when_s > self.config.duration_s:
            return
        self.queue.schedule_event(when_s, "refresh", when_s, priority=-1)

    def _on_refresh(self, when_s: float) -> None:
        """Daily gateway pass: recompute and normalize degradations."""
        self._events_executed += 1
        if self._trace is not None:
            self._trace.emit(
                self.queue.now_s,
                "engine",
                "engine.degradation_refresh",
                severity="debug",
                nodes=len(self.nodes),
            )
        started = time.perf_counter()
        compacts = self.config.compaction_rule()
        now = self.queue.now_s
        for node, layout, powers in self._pass_harvest(now):
            node.settle_to(now, powers, layout)
            degradation = node.battery.refresh_degradation()
            if compacts(node.node_id):
                node.battery.trace.compact_tail()
            self.server.publish_degradation(node.node_id, degradation)
            node.metrics.degradation = degradation
            breakdown = node.battery.last_breakdown
            if breakdown is not None:
                node.metrics.cycle_aging = breakdown.cycle
                node.metrics.calendar_aging = breakdown.calendar
        self._record_refresh_wall(time.perf_counter() - started)
        self._schedule_refresh(when_s + self.config.dissemination_interval_s)

    def _record_refresh_wall(self, elapsed_s: float) -> None:
        """Publish one refresh pass's wall time to metrics and trace."""
        self.obs.metrics.counter(
            "degradation_refresh_seconds",
            "Wall seconds spent in Eq. (1)-(4) refresh passes",
        ).inc(elapsed_s)
        if self._trace is not None:
            self._trace.emit(
                self.queue.now_s,
                "perf",
                "perf.refresh",
                severity="debug",
                nodes=len(self.nodes),
                wall_s=elapsed_s,
            )

    # -------------------------------------------------------- checkpointing

    def _on_checkpoint(self) -> None:
        """Scheduled snapshot event (cadence-driven, deterministic).

        The successor is scheduled *before* saving so every snapshot
        already contains its own continuation; the metrics counter and
        trace marker are bumped before pickling for the same reason —
        a resumed run continues both series exactly where the reference
        run's were at that instant.
        """
        now = self.queue.now_s
        nxt = now + self.config.checkpoint_every_s
        if nxt < self.config.duration_s:
            self.queue.schedule_event(
                nxt, "checkpoint", priority=self.CHECKPOINT_PRIORITY
            )
        self.obs.metrics.counter(
            "checkpoints_written_total", "Checkpoints the engine wrote"
        ).inc()
        if self._trace is not None:
            self._trace.emit(
                now,
                "engine",
                "engine.checkpoint",
                severity="debug",
                events_executed=self._events_executed,
            )
        save_checkpoint(self, self.config.checkpoint_dir, now, engine="exact")

    def _interrupted(self) -> None:
        """Unwind after a SIGINT/SIGTERM stop request.

        Writes a rescue snapshot (when checkpointing is configured)
        *without* touching the checkpoint counter or trace — it is
        out-of-band bookkeeping, and a run resumed from it must still
        reproduce the reference run's metrics and trace byte-for-byte.
        """
        now = self.queue.now_s
        path = None
        if self.config.checkpoint_dir is not None:
            path = save_checkpoint(
                self, self.config.checkpoint_dir, now, engine="exact"
            )
        raise SimulationInterrupted(
            f"exact run stopped by signal at t={now:.3f}s",
            time_s=now,
            checkpoint_path=path,
            signum=last_signal(),
        )

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Re-bind the live hooks pickling strips (dispatch, injector, links)."""
        self.__dict__.update(state)
        self._bind_queue()
        for node in self.nodes.values():
            node.bind_link(self.link, self.config.gateway_antenna_gain_db)
        if self.injector is not None:
            self.injector.rebind(trace=self._trace, now=self._now_clock)

    def _finalize(self) -> None:
        """Settle all nodes to the end time and record final state."""
        end = self.config.duration_s
        started = time.perf_counter()
        for node, layout, powers in self._pass_harvest(end):
            if node.packet is not None:
                node.finish_packet(end, delivered=False, latency_s=node.period_s)
            node.settle_to(end, powers, layout)
            degradation = node.battery.refresh_degradation()
            node.metrics.degradation = degradation
            breakdown = node.battery.last_breakdown
            if breakdown is not None:
                node.metrics.cycle_aging = breakdown.cycle
                node.metrics.calendar_aging = breakdown.calendar
            node.metrics.final_soc = node.battery.soc
        self._record_refresh_wall(time.perf_counter() - started)


def run_simulation(
    config: SimulationConfig, obs: "Observability | None" = None
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(config, obs=obs).run()
