"""Simulation configuration.

One dataclass gathers every knob the paper's evaluation sweeps so that
scenarios (Section IV-A setup, the testbed of Section IV-B, and the
ablations) are plain data.  Defaults follow the paper: sampling periods
drawn from [16, 60] minutes, 1-minute forecast windows, ``w_b = 1``,
insulated batteries at 25 °C, a solar panel whose peak supports two
transmissions per window, and a battery sized for 24 hours of operation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..constants import SECONDS_PER_DAY
from ..exceptions import ConfigurationError
from ..faults import FaultPlan
from ..lora import EnergyModel, SpreadingFactor, TxParams, time_on_air, tx_energy


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulated deployment."""

    # ---------------------------------------------------------------- network
    #: Number of end devices.
    node_count: int = 100
    #: Deployment radius around the single gateway (paper: up to 5 km).
    radius_m: float = 5000.0
    #: Number of uplink channels the gateway listens on (testbed: 1).
    channel_count: int = 1
    #: ω — simultaneous receptions each gateway can demodulate.
    omega: int = 8
    #: Number of gateways ("one or more gateways", Section II-C).  The
    #: first sits at the origin; additional gateways spread evenly on a
    #: ring at 60 % of the deployment radius.  An uplink is delivered if
    #: *any* gateway decodes it (standard LoRaWAN de-duplication).
    gateway_count: int = 1
    #: Fixed SF for every node, or None for distance-based assignment.
    fixed_sf: Optional[SpreadingFactor] = SpreadingFactor.SF10
    #: Log-distance path-loss exponent (3.0 keeps 5 km within SF12 range).
    path_loss_exponent: float = 3.0
    #: Gateway antenna gain in dB.
    gateway_antenna_gain_db: float = 3.0

    # ------------------------------------------------------------------- MAC
    #: θ — SoC cap; 1.0 together with ``use_window_selection=False``
    #: reproduces plain LoRaWAN.
    soc_cap: float = 0.5
    #: Whether Algorithm 1 chooses windows (False → immediate ALOHA).
    use_window_selection: bool = True
    #: w_b — importance of degradation over utility (paper uses 1).
    w_b: float = 1.0
    #: β — EWMA weight of Eq. (13).
    ewma_beta: float = 0.3
    #: Maximum retransmissions per packet (LoRa limit).
    max_retransmissions: int = 8
    #: Whether the network server runs margin-based ADR on uplink SNR
    #: (exact engine only; the evaluation fixes SF per node).
    adr_enabled: bool = False
    #: Regulatory duty-cycle budget enforced per node (1.0 = disabled;
    #: EU-style deployments use 0.01).
    duty_cycle: float = 1.0

    # ------------------------------------------------------------------ time
    #: Sampling-period range in seconds (paper: [16, 60] minutes).
    period_range_s: Tuple[float, float] = (16 * 60.0, 60 * 60.0)
    #: Forecast-window length (paper: 1 minute).
    window_s: float = 60.0
    #: Whether all nodes power on together at t = 0 (synchronized
    #: deployments make same-period cohorts collide persistently — the
    #: regime the paper's ALOHA numbers reflect); False staggers starts
    #: uniformly across each node's period.
    synchronized_start: bool = True
    #: Boot jitter applied when starts are synchronized: each node's
    #: first period begins uniformly within this many seconds of t = 0
    #: (hand-powered testbeds boot seconds apart, not microseconds).
    start_jitter_s: float = 0.0
    #: Total simulated time.
    duration_s: float = 28 * SECONDS_PER_DAY

    # ------------------------------------------------------------------- PHY
    payload_bytes: int = 10
    tx_power_dbm: float = 14.0

    # ---------------------------------------------------------------- energy
    #: Peak panel output expressed in transmissions-per-window (paper: 2).
    solar_peak_transmissions: float = 2.0
    #: Battery sized as ``sizing_factor ×`` 24 h of average *nominal*
    #: demand.  3.0 leaves the headroom real cells ship with: at θ = 0.5
    #: the stored energy still exceeds the paper's "24 hours of
    #: operation" even when collisions inflate demand beyond nominal,
    #: keeping night-time cycle depths realistic (calendar aging remains
    #: the dominant term, Fig. 2).
    battery_sizing_factor: float = 3.0
    #: Initial SoC of every battery (fresh deployment at the cap).
    initial_soc: float = 0.5
    #: Fixed internal battery temperature (paper: insulated, 25 °C).
    temperature_c: float = 25.0
    #: Forecaster family: "oracle" (perfect), "noisy" (oracle with
    #: multiplicative log-normal error ``forecast_sigma``), or
    #: "persistence" (envelope-shaped persistence learned only from the
    #: node's own observed harvest — no oracle information at all).
    forecaster: str = "oracle"
    #: Forecast error (log-sigma) used by the "noisy" forecaster.
    forecast_sigma: float = 0.0
    #: Node-local shading variation of the shared solar trace.
    shading_sigma: float = 0.2

    # ---------------------------------------------------------------- faults
    #: Fault-injection plan (ACK loss, gateway outages, node reboots,
    #: clock skew, forecast corruption).  None simulates the fault-free
    #: world of the paper's evaluation.  Exact engine only; the
    #: mesoscopic runner ignores the plan.
    faults: Optional[FaultPlan] = None
    #: TTL applied by BLAM nodes to the disseminated ``w_u`` — past it
    #: the weight decays toward the new-battery default instead of
    #: steering the DIF with stale data.  None disables staleness
    #: tracking (the paper's implicit fault-free assumption).
    w_u_ttl_s: Optional[float] = None

    # ----------------------------------------------------------- performance
    #: Retired (:mod:`repro.checkpoint.retired`): only ``True`` is accepted,
    #: nothing reads it, and it goes once the benchmark stops passing it.
    exact_batched: bool = True

    # ----------------------------------------------------------------- scale
    #: Per-node state budget.  ``"exact"`` keeps every float64 buffer the
    #: golden digests pin down; ``"diet"`` shrinks per-node state for
    #: very large topologies — float32 shading windows, aggressively
    #: compacted SoC traces, small pure-function memo caches, and packet
    #: / trace retention restricted to ``sample_nodes``.  Diet runs are
    #: deterministic (and pinned by their own golden digests) but not
    #: bit-identical to ``"exact"`` because shading factors round
    #: through float32.
    memory_profile: str = "exact"
    #: Node ids whose full per-node history (packet records, SoC traces)
    #: is retained even under the diet profile.  None means "retain
    #: everything" under ``"exact"`` and "retain counters only" under
    #: ``"diet"``.  Retention-only: never changes simulation results.
    sample_nodes: Optional[Tuple[int, ...]] = None
    #: Spatial sharding of the mesoscopic engine: partition the topology
    #: into gateway cells (nearest-gateway Voronoi) and simulate each
    #: cell independently with a per-cell contention domain plus a
    #: border-exchange pass for cross-cell interference (see
    #: docs/PERFORMANCE.md).  None keeps the classic single-domain
    #: engine.  The cell decomposition depends only on the topology, so
    #: any shard count from 1 to ``gateway_count`` produces identical
    #: results; the count only controls how many worker processes the
    #: cells are packed into.
    shards: Optional[int] = None

    # ------------------------------------------------------------ accounting
    #: How often the gateway recomputes and disseminates degradation.
    dissemination_interval_s: float = SECONDS_PER_DAY
    #: Record a per-packet :class:`~repro.sim.packetlog.PacketRecord`
    #: for every generated packet (debugging/analysis; costs memory).
    record_packets: bool = False
    #: RNG seed controlling topology, periods, channels and collisions.
    seed: int = 1

    # ------------------------------------------------------------ robustness
    #: Snapshot cadence in simulated seconds; the engines write a
    #: versioned, integrity-hashed checkpoint every this-many simulated
    #: seconds (see docs/ROBUSTNESS.md).  Both fields are excluded from
    #: the config identity hash — checkpoint settings never change
    #: simulation results.  None disables cadence checkpointing.
    checkpoint_every_s: Optional[float] = None
    #: Directory checkpoints are written to (required when
    #: ``checkpoint_every_s`` is set; also enables the final rescue
    #: snapshot on SIGINT/SIGTERM).
    checkpoint_dir: Optional[str] = None

    # --------------------------------------------------------- observability
    #: Publish structured :class:`~repro.obs.TraceEvent` records onto a
    #: per-run :class:`~repro.obs.TraceBus` (see docs/OBSERVABILITY.md).
    #: False keeps every emission guard dead — runs are bit-identical to
    #: an uninstrumented build.
    trace: bool = False
    #: Stream accepted trace events to this JSONL file (implies trace).
    trace_path: Optional[str] = None
    #: Restrict tracing to these categories (None = all); a subset of
    #: :data:`repro.obs.CATEGORIES`.
    trace_categories: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError("node_count must be >= 1")
        if self.radius_m <= 0:
            raise ConfigurationError("radius must be positive")
        if self.channel_count < 1:
            raise ConfigurationError("channel_count must be >= 1")
        if self.omega < 1:
            raise ConfigurationError("omega must be >= 1")
        if not 0.0 < self.soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        if not 0.0 <= self.w_b <= 1.0:
            raise ConfigurationError("w_b must be in [0, 1]")
        low, high = self.period_range_s
        if low <= 0 or high < low:
            raise ConfigurationError("invalid sampling-period range")
        if self.window_s <= 0 or self.window_s > low:
            raise ConfigurationError("window must be positive and fit in a period")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.battery_sizing_factor <= 0:
            raise ConfigurationError("battery_sizing_factor must be positive")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ConfigurationError("initial_soc must be in [0, 1]")
        if self.initial_soc > self.soc_cap + 1e-12:
            raise ConfigurationError("initial SoC cannot exceed the θ cap")
        if self.max_retransmissions < 0:
            raise ConfigurationError("max_retransmissions cannot be negative")
        if self.start_jitter_s < 0:
            raise ConfigurationError("start_jitter_s cannot be negative")
        if self.gateway_count < 1:
            raise ConfigurationError("gateway_count must be >= 1")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError("duty_cycle must be in (0, 1]")
        if self.forecaster not in ("oracle", "noisy", "persistence"):
            raise ConfigurationError(
                "forecaster must be 'oracle', 'noisy' or 'persistence'"
            )
        if self.w_u_ttl_s is not None and self.w_u_ttl_s <= 0:
            raise ConfigurationError("w_u_ttl_s must be positive")
        if not self.exact_batched:
            raise ConfigurationError(
                "exact_batched=False is gone: the exact engine has one "
                "PERIOD drain"
            )
        if self.memory_profile not in ("exact", "diet"):
            raise ConfigurationError(
                "memory_profile must be 'exact' or 'diet'"
            )
        if self.sample_nodes is not None:
            normalized = tuple(sorted({int(n) for n in self.sample_nodes}))
            for node_id in normalized:
                if not 0 <= node_id < self.node_count:
                    raise ConfigurationError(
                        f"sample_nodes names node {node_id} but only "
                        f"{self.node_count} nodes exist"
                    )
            object.__setattr__(self, "sample_nodes", normalized)
        if self.shards is not None:
            if self.shards < 1:
                raise ConfigurationError("shards must be >= 1")
            if self.shards > self.gateway_count:
                raise ConfigurationError(
                    f"shards ({self.shards}) cannot exceed gateway_count "
                    f"({self.gateway_count}): shards are packed gateway cells"
                )
        if self.checkpoint_every_s is not None:
            if self.checkpoint_every_s <= 0:
                raise ConfigurationError("checkpoint_every_s must be positive")
            if self.checkpoint_dir is None:
                raise ConfigurationError(
                    "checkpoint_every_s requires checkpoint_dir"
                )
        if self.trace_categories is not None:
            from ..obs import CATEGORIES

            unknown = set(self.trace_categories) - set(CATEGORIES)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"expected a subset of {list(CATEGORIES)}"
                )
        if self.faults is not None:
            for reboot in self.faults.node_reboots:
                if reboot.node_id >= self.node_count:
                    raise ConfigurationError(
                        f"fault plan reboots node {reboot.node_id} but only "
                        f"{self.node_count} nodes exist"
                    )
            for outage in self.faults.gateway_outages:
                if (
                    outage.gateway_index is not None
                    and outage.gateway_index >= self.gateway_count
                ):
                    raise ConfigurationError(
                        f"fault plan names gateway {outage.gateway_index} but "
                        f"only {self.gateway_count} gateways exist"
                    )

    # --------------------------------------------------------------- derived

    def tx_params(self, sf: Optional[SpreadingFactor] = None) -> TxParams:
        """Transmission parameters for a node using ``sf`` (or the fixed SF)."""
        return TxParams(
            spreading_factor=sf or self.fixed_sf or SpreadingFactor.SF10,
            payload_bytes=self.payload_bytes,
            tx_power_dbm=self.tx_power_dbm,
        )

    def energy_model(self) -> EnergyModel:
        """The per-operation radio energy model."""
        return EnergyModel()

    def nominal_tx_energy_j(self, sf: Optional[SpreadingFactor] = None) -> float:
        """Single-attempt TX energy from Eq. (6) (no RX windows)."""
        return tx_energy(self.tx_params(sf))

    def attempt_energy_j(self, sf: Optional[SpreadingFactor] = None) -> float:
        """TX energy plus the two class-A receive windows."""
        return self.energy_model().tx_attempt_energy(self.tx_params(sf))

    def airtime_s(self, sf: Optional[SpreadingFactor] = None) -> float:
        """Eq. (7) time on air for this configuration's packet."""
        return time_on_air(self.tx_params(sf))

    def max_tx_energy_j(self) -> float:
        """``E^tx_max`` (worst-case SF12 transmission) for DIF scaling."""
        return self.energy_model().max_tx_energy(self.tx_params())

    def mean_period_s(self) -> float:
        """Midpoint of the sampling-period range."""
        low, high = self.period_range_s
        return (low + high) / 2.0

    def average_demand_w(self, sf: Optional[SpreadingFactor] = None) -> float:
        """Long-run average node power demand (sleep + periodic uplinks)."""
        model = self.energy_model()
        sleep = model.power_profile.sleep_watts
        per_period = self.attempt_energy_j(sf)
        return sleep + per_period / self.mean_period_s()

    def battery_capacity_j(self, sf: Optional[SpreadingFactor] = None) -> float:
        """Battery sized for ``sizing_factor × 24 h`` of average demand."""
        return (
            self.battery_sizing_factor
            * SECONDS_PER_DAY
            * self.average_demand_w(sf)
        )

    def solar_peak_watts(self, sf: Optional[SpreadingFactor] = None) -> float:
        """Panel peak sized for N transmissions per forecast window."""
        return (
            self.solar_peak_transmissions
            * self.nominal_tx_energy_j(sf)
            / self.window_s
        )

    def windows_per_period(self, period_s: float) -> int:
        """|T| — forecast windows available in one sampling period."""
        count = int(math.floor(period_s / self.window_s))
        return max(1, count)

    def replace(self, **changes) -> "SimulationConfig":
        """Return a modified copy (sweep helper)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ scale

    @property
    def diet(self) -> bool:
        """Whether the shrunken-state memory profile is active."""
        return self.memory_profile == "diet"

    def effective_sample_nodes(self) -> Optional[frozenset]:
        """Node ids whose full history is retained; None = everything.

        ``sample_nodes`` always wins when given.  Otherwise the exact
        profile retains everything and the diet profile retains nothing
        beyond aggregate counters.
        """
        if self.sample_nodes is not None:
            return frozenset(self.sample_nodes)
        if self.memory_profile == "diet":
            return frozenset()
        return None

    def settle_chunk_s(self) -> float:
        """Energy-settling chunk length for the mesoscopic engine.

        The exact profile integrates harvest/sleep in 5-window chunks
        (the granularity the golden digests pin down).  The diet
        profile coarsens to 2-hour chunks (never finer than 5 windows):
        harvest midpoint sampling and SoC turning points track the
        diurnal cycle rather than every 5 minutes, trading a small,
        documented accuracy loss for an order of magnitude less settle
        work on 10k+-node topologies.
        """
        base = self.window_s * 5.0
        if self.memory_profile == "diet":
            return max(base, 7200.0)
        return base

    def effective_compact_trace(self) -> bool:
        """Whether SoC traces are compacted after degradation refreshes.

        Compaction is bit-identical to results (the streaming rainflow
        accumulator folds turning points as they close and the
        time-weighted mean is maintained online), so it is on for the
        diet profile and for any multi-month horizon, where retaining
        every turning point costs megabytes per node-year.
        """
        if self.memory_profile == "diet":
            return True
        return self.duration_s >= 180 * SECONDS_PER_DAY

    def compaction_rule(self) -> Callable[[int], bool]:
        """Predicate on node ids: is this node's SoC trace compacted
        after each degradation refresh?  Yes whenever
        :meth:`effective_compact_trace` holds, except for the nodes
        ``sample_nodes`` names, whose full history is kept.  Both
        engines apply this one rule, built once per refresh pass.
        """
        if not self.effective_compact_trace():
            return lambda node_id: False
        keep = frozenset(self.sample_nodes or ())
        return lambda node_id: node_id not in keep

    # --------------------------------------------------------- observability

    @property
    def tracing_enabled(self) -> bool:
        """Whether this config asks for event tracing (path implies it)."""
        return self.trace or self.trace_path is not None

    def build_observability(self) -> "object":
        """An :class:`~repro.obs.Observability` bundle for one run.

        Metrics and profiling are always on (they cost a handful of
        timer calls per run); the trace bus is built only when the
        config asks for tracing, keeping the hot-path guards dead
        otherwise.
        """
        from ..obs import Observability

        if not self.tracing_enabled:
            return Observability()
        return Observability.create(
            trace_path=self.trace_path, categories=self.trace_categories
        )

    # -------------------------------------------------------- named variants

    def as_lorawan(self) -> "SimulationConfig":
        """Plain LoRaWAN baseline: θ = 1, no window selection."""
        return self.replace(soc_cap=1.0, use_window_selection=False, initial_soc=1.0)

    def as_h(self, theta: float) -> "SimulationConfig":
        """H-θ: the full protocol at a given cap (H-50 → ``as_h(0.5)``)."""
        return self.replace(
            soc_cap=theta,
            use_window_selection=True,
            initial_soc=min(self.initial_soc, theta),
        )

    def as_hc(self, theta: float) -> "SimulationConfig":
        """H-θC: cap only, no window selection (paper's H-50C)."""
        return self.replace(
            soc_cap=theta,
            use_window_selection=False,
            initial_soc=min(self.initial_soc, theta),
        )

    @property
    def policy_name(self) -> str:
        """Human-readable policy label (LoRaWAN / H-x / H-xC)."""
        if self.soc_cap >= 1.0 and not self.use_window_selection:
            return "LoRaWAN"
        suffix = "" if self.use_window_selection else "C"
        return f"H-{round(self.soc_cap * 100)}{suffix}"
