"""MAC policies: the battery lifespan-aware MAC and its baselines.

Three policies cover everything the evaluation compares:

* :class:`LorawanAlohaMac` — standard LoRaWAN: pure ALOHA, transmit in
  the first forecast window of every period, battery charges to full
  (θ = 1).  The paper's baseline.
* :class:`ThresholdOnlyMac` — the paper's **H-θC** variant (e.g. H-50C):
  caps stored energy at θ but still transmits immediately; isolates the
  calendar-aging benefit of the cap from the window-selection benefit.
* :class:`BatteryLifespanAwareMac` — the full protocol (**H-θ**):
  Algorithm 1 window selection driven by the Eq. (13) energy EWMA, the
  Eq. (14) retransmission estimator, the Eq. (15) DIF, the Eq. (16)
  utility, and the gateway-disseminated normalized degradation ``w_u``.

A policy is consulted once per sampling period through
:meth:`MacPolicy.choose_window` and fed the realized outcome through
:meth:`MacPolicy.observe_result`, which is all the simulator (or a real
firmware port) needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError, ProtocolError
from .estimators import EwmaTxEnergyEstimator, RetransmissionEstimator
from .utility import LinearUtility, UtilityFunction
from .window_selection import (
    MixedBatchWindowDecision,
    WindowDecision,
    WindowSelector,
    score_windows_mixed,
)

#: LoRaWAN caps confirmed-uplink retries; "8 retransmissions (maximum
#: allowed by LoRa)" per Section III-B.
MAX_RETRANSMISSIONS = 8


@dataclass(frozen=True)
class ConfirmedUplinkRetrier:
    """Capped exponential backoff for confirmed-uplink retransmissions.

    After a missed ACK the node waits both class-A receive windows
    (``base_s``), then backs off exponentially — doubling per failed
    attempt up to ``cap_s`` — plus LMIC-style random jitter, so a cohort
    that collided (or lost a burst of ACKs together) de-synchronizes
    instead of colliding again in lock-step.  Asking for a backoff past
    the retransmission cap is a protocol violation and raises
    :class:`~repro.exceptions.ProtocolError`; callers treat that as the
    packet's terminal failure.
    """

    #: Fixed delay: both RX windows must elapse before a retry.
    base_s: float = 2.0
    #: Exponential growth factor per failed attempt.
    factor: float = 2.0
    #: Ceiling on the exponential component.
    cap_s: float = 64.0
    #: Uniform jitter bounds added to every backoff (LMIC uses 1-3 s).
    jitter_s: Tuple[float, float] = (1.0, 3.0)
    #: Retransmission budget (LoRa allows at most 8).
    max_retransmissions: int = MAX_RETRANSMISSIONS

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ConfigurationError("backoff base must be positive")
        if self.factor < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")
        if self.cap_s < self.base_s:
            raise ConfigurationError("backoff cap must be >= base")
        low, high = self.jitter_s
        if low < 0 or high < low:
            raise ConfigurationError("invalid jitter bounds")
        if self.max_retransmissions < 0:
            raise ConfigurationError("max_retransmissions cannot be negative")

    def backoff_s(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retry number ``attempt`` (1 = first retry).

        Raises :class:`ProtocolError` when ``attempt`` exceeds the
        retransmission budget — the packet must be abandoned, not
        retried.
        """
        if attempt < 1:
            raise ConfigurationError("attempt numbering starts at 1")
        if attempt > self.max_retransmissions:
            raise ProtocolError(
                f"retry {attempt} exceeds the {self.max_retransmissions}"
                "-retransmission budget"
            )
        exponential = min(self.cap_s, self.base_s * self.factor ** (attempt - 1))
        generator = rng or random
        return exponential + generator.uniform(*self.jitter_s)


@dataclass(frozen=True)
class PeriodContext:
    """Everything a MAC may consult when choosing this period's window."""

    #: Energy currently stored in the battery, ψ (joules).
    battery_energy_j: float
    #: Forecast green energy per forecast window, E^g_u[t] (joules).
    green_forecast_j: Sequence[float]
    #: Nominal one-attempt transmission energy from Eq. (6) (joules).
    nominal_tx_energy_j: float
    #: Absolute start time of the period (seconds); for diagnostics.
    period_start_s: float = 0.0


class MacPolicy:
    """Base class for per-node MAC policies."""

    #: θ — the SoC cap enforced by the software-defined switch.
    soc_cap: float = 1.0
    #: Optional :class:`~repro.obs.TraceBus`; None keeps tracing free.
    _trace = None
    #: Node id stamped onto emitted events (set by :meth:`bind_trace`).
    _trace_node: Optional[int] = None

    def bind_trace(self, bus, node_id: int) -> None:
        """Attach a trace bus so decisions publish structured events."""
        self._trace = bus
        self._trace_node = node_id

    def choose_window(self, context: PeriodContext) -> WindowDecision:
        """Pick the forecast window for the packet generated this period."""
        raise NotImplementedError

    def observe_result(
        self, window_index: int, retransmissions: int, actual_tx_energy_j: float
    ) -> None:
        """Feed back the realized outcome of the period's transmission."""

    def set_normalized_degradation(
        self, w_u: float, received_at_s: Optional[float] = None
    ) -> None:
        """Receive the gateway-disseminated ``w_u`` (piggybacked on ACKs)."""

    def reboot(self) -> None:
        """Wipe volatile state after a node brown-out/reboot (no-op here)."""

    @property
    def name(self) -> str:
        """Display name used in reports."""
        return type(self).__name__


def _immediate_decision(context: PeriodContext) -> WindowDecision:
    """A decision that transmits in window 0 (pure ALOHA behaviour)."""
    windows = len(context.green_forecast_j)
    if windows == 0:
        raise ConfigurationError("at least one forecast window is required")
    utility_fn = LinearUtility()
    utilities = [utility_fn(t, windows) for t in range(windows)]
    return WindowDecision(
        success=True,
        window_index=0,
        scores=[0.0] * windows,
        utilities=utilities,
        difs=[0.0] * windows,
    )


class LorawanAlohaMac(MacPolicy):
    """Standard LoRaWAN: transmit immediately, charge the battery fully.

    "A node tries to send a packet immediately after it is generated and
    does not consider any of the factors mentioned above" — window 0,
    θ = 1, no estimators.
    """

    soc_cap = 1.0

    def choose_window(self, context: PeriodContext) -> WindowDecision:
        """Always transmit immediately (pure ALOHA, window 0)."""
        return _immediate_decision(context)

    @property
    def name(self) -> str:
        """Display name used in reports ("LoRaWAN")."""
        return "LoRaWAN"


class ThresholdOnlyMac(MacPolicy):
    """H-θC: the SoC cap without window selection (paper's H-50C)."""

    def __init__(self, soc_cap: float = 0.5) -> None:
        if not 0.0 < soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        self.soc_cap = soc_cap

    def choose_window(self, context: PeriodContext) -> WindowDecision:
        """Always transmit immediately (pure ALOHA, window 0)."""
        return _immediate_decision(context)

    @property
    def name(self) -> str:
        """Display name used in reports, e.g. "H-50C"."""
        return f"H-{round(self.soc_cap * 100)}C"


class BatteryLifespanAwareMac(MacPolicy):
    """The proposed battery lifespan-aware MAC (H-θ).

    Parameters
    ----------
    soc_cap:
        θ, the maximum SoC the switch may charge to (H-5/H-50/H-100 use
        0.05/0.5/1.0).
    w_b:
        Importance of degradation over utility, set by the network
        manager (evaluation uses 1.0).
    max_tx_energy_j:
        ``E^tx_max`` for DIF normalization (worst-case TX energy).
    nominal_tx_energy_j:
        Seed for the Eq. (13) EWMA before any observation.
    beta:
        EWMA importance weight β of Eq. (13).
    utility_fn:
        Packet-utility function (Eq. 16's linear decay by default).
    battery_capacity_j:
        If given, Algorithm 1's cumulative-energy scan respects the
        θ·capacity storage bound between windows.
    w_u_ttl_s:
        Time-to-live of a disseminated ``w_u``.  When set, a weight
        older than the TTL decays exponentially toward the new-battery
        default of 0 (half-life = one TTL) instead of steering the DIF
        with stale data; None (default) trusts the last value forever,
        the paper's implicit assumption of a fault-free downlink.
    """

    def __init__(
        self,
        soc_cap: float = 0.5,
        w_b: float = 1.0,
        max_tx_energy_j: float = 1.0,
        nominal_tx_energy_j: float = 0.0,
        beta: float = 0.3,
        utility_fn: Optional[UtilityFunction] = None,
        battery_capacity_j: Optional[float] = None,
        w_u_ttl_s: Optional[float] = None,
    ) -> None:
        if not 0.0 < soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        if w_u_ttl_s is not None and w_u_ttl_s <= 0:
            raise ConfigurationError("w_u TTL must be positive")
        self.soc_cap = soc_cap
        self._w_u_ttl_s = w_u_ttl_s
        self._w_received_at_s: Optional[float] = None
        soc_cap_j = (
            soc_cap * battery_capacity_j if battery_capacity_j else float("inf")
        )
        self._selector = WindowSelector(
            w_b=w_b,
            utility_fn=utility_fn or LinearUtility(),
            max_tx_energy_j=max_tx_energy_j,
            soc_cap_j=soc_cap_j,
        )
        self._energy_estimator = EwmaTxEnergyEstimator(
            beta=beta, initial_j=nominal_tx_energy_j
        )
        self._retx_estimator = RetransmissionEstimator(
            max_retransmissions=MAX_RETRANSMISSIONS
        )
        #: w_u: 0 for a new battery — "when a new node joins the network
        #: with an unused battery, its normalized degradation is 0".
        self._normalized_degradation = 0.0

    # ------------------------------------------------------------------ API

    def choose_window(self, context: PeriodContext) -> WindowDecision:
        """Run Algorithm 1 with the learned per-window energy estimates."""
        windows = len(context.green_forecast_j)
        if self._energy_estimator.estimate_j == 0.0:
            self._energy_estimator.reset(context.nominal_tx_energy_j)
        base = self._energy_estimator.estimate_j
        estimated = [
            base * self._retx_estimator.window_energy_multiplier(t)
            for t in range(windows)
        ]
        effective_w = self.effective_degradation(context.period_start_s)
        decision = self._selector.select(
            battery_energy_j=context.battery_energy_j,
            normalized_degradation=effective_w,
            green_energies_j=context.green_forecast_j,
            estimated_tx_energies_j=estimated,
        )
        if self._trace is not None and self._trace.wants("window", "debug"):
            self._trace.emit(
                context.period_start_s,
                "window",
                "window.selected",
                severity="debug",
                node_id=self._trace_node,
                success=decision.success,
                window_index=decision.window_index,
                w_u=effective_w,
                battery_energy_j=context.battery_energy_j,
                scores=[round(s, 6) for s in decision.scores],
                difs=[round(d, 6) for d in decision.difs],
                utilities=[round(u, 6) for u in decision.utilities],
            )
        return decision

    def observe_result(
        self, window_index: int, retransmissions: int, actual_tx_energy_j: float
    ) -> None:
        """Fold the period's outcome into the Eq. 13/14 estimators."""
        self._energy_estimator.observe(actual_tx_energy_j)
        self._retx_estimator.observe(window_index, retransmissions)

    def set_normalized_degradation(
        self, w_u: float, received_at_s: Optional[float] = None
    ) -> None:
        """Receive the gateway-disseminated ``w_u`` byte's value.

        ``received_at_s`` stamps the weight for TTL-based staleness
        tracking; omitting it marks the weight permanently fresh (the
        pre-fault-model behaviour, still used by the mesoscopic runner).
        """
        if not 0.0 <= w_u <= 1.0:
            raise ConfigurationError("normalized degradation must be in [0, 1]")
        self._normalized_degradation = w_u
        self._w_received_at_s = received_at_s
        if self._trace is not None:
            self._trace.emit(
                received_at_s if received_at_s is not None else 0.0,
                "wu",
                "wu.received",
                node_id=self._trace_node,
                w_u=w_u,
                stamped=received_at_s is not None,
            )

    def reboot(self) -> None:
        """Brown-out/reboot: volatile MAC state is lost.

        The Eq. 13/14 estimators and the disseminated ``w_u`` live in
        RAM on a real node; after a reboot the MAC restarts from the
        new-battery defaults and must re-learn (and re-request a fresh
        weight from the gateway).
        """
        self._energy_estimator.reset(0.0)
        self._retx_estimator = RetransmissionEstimator(
            max_retransmissions=MAX_RETRANSMISSIONS
        )
        self._normalized_degradation = 0.0
        self._w_received_at_s = None

    # ----------------------------------------------------- graceful staleness

    def weight_is_stale(self, now_s: float) -> bool:
        """Whether the held ``w_u`` is past its TTL at ``now_s``."""
        if self._w_u_ttl_s is None or self._w_received_at_s is None:
            return False
        return now_s - self._w_received_at_s > self._w_u_ttl_s

    def effective_degradation(self, now_s: float) -> float:
        """The ``w_u`` actually steering the DIF at ``now_s``.

        Within the TTL the disseminated value is used as-is.  Past it,
        the value decays exponentially toward 0 (the safe new-battery
        default) with a half-life of one TTL — the node gracefully stops
        acting on data the gateway may long have revised, rather than
        either trusting it forever or discarding it at a cliff edge.
        """
        if not self.weight_is_stale(now_s):
            return self._normalized_degradation
        age = now_s - self._w_received_at_s
        excess = age - self._w_u_ttl_s
        decayed = self._normalized_degradation * 0.5 ** (excess / self._w_u_ttl_s)
        if self._trace is not None:
            self._trace.emit(
                now_s,
                "wu",
                "wu.stale_decay",
                severity="debug",
                node_id=self._trace_node,
                held_w_u=self._normalized_degradation,
                effective_w_u=decayed,
                age_s=age,
                ttl_s=self._w_u_ttl_s,
            )
        return decayed

    # ----------------------------------------------------------- diagnostics

    @property
    def normalized_degradation(self) -> float:
        """The node's current ``w_u`` (0 for a new battery)."""
        return self._normalized_degradation

    @property
    def weight_received_at_s(self) -> Optional[float]:
        """When the current ``w_u`` arrived (None = never/unstamped)."""
        return self._w_received_at_s

    @property
    def w_u_ttl_s(self) -> Optional[float]:
        """The staleness TTL, or None when staleness is not tracked."""
        return self._w_u_ttl_s

    @property
    def tx_energy_estimate_j(self) -> float:
        """Current Eq. (13) estimate (diagnostic)."""
        return self._energy_estimator.estimate_j

    @property
    def retransmission_estimator(self) -> RetransmissionEstimator:
        """The per-window Eq. (14) statistics (diagnostic)."""
        return self._retx_estimator

    @property
    def name(self) -> str:
        """Display name used in reports, e.g. "H-50"."""
        return f"H-{round(self.soc_cap * 100)}"


def batch_choose_windows_mixed(
    macs: Sequence[BatteryLifespanAwareMac],
    battery_energies_j: np.ndarray,
    green_matrix: np.ndarray,
    nominal_tx_energies_j: Sequence[float],
    counts: Sequence[int],
    now_s: Union[float, Sequence[float]],
) -> MixedBatchWindowDecision:
    """Run :meth:`BatteryLifespanAwareMac.choose_window` for many nodes.

    Row ``i`` of ``green_matrix`` is node ``i``'s forecast, padded to
    the widest count; ``counts[i]`` is node ``i``'s real window count.
    ``now_s`` is one period start for every row or a sequence of one
    per row (rows decided ahead of their own instant read ``w_u``
    staleness at their own time).  All MACs must share ``w_b``, the
    utility function and ``E^tx_max`` (one simulation config guarantees
    this); θ·capacity caps are gathered per node.  Row ``i``'s decision
    is bit-identical to :meth:`~BatteryLifespanAwareMac.choose_window`
    with ``counts[i]`` windows — the per-window retransmission
    multipliers are pure per-index statistics (a wider slice of the
    same cached array), and :func:`score_windows_mixed` masks the pad
    columns infeasible.  Estimator side effects (EWMA re-seeding when
    the estimate is 0) happen in batch order, as one-at-a-time calls
    would.  No ``window.selected`` event is emitted here: the result
    carries each row's scores, DIFs, utilities and ``w_u``, and the
    caller emits the event when it books the decision.
    """
    if not macs:
        raise ConfigurationError("at least one MAC is required")
    green = np.asarray(green_matrix, dtype=np.float64)
    if green.ndim != 2 or green.shape[0] != len(macs):
        raise ConfigurationError("green_matrix must be (len(macs), windows)")
    n, windows = green.shape
    times = np.asarray(now_s, dtype=np.float64)
    if times.ndim == 0:
        times = np.full(n, times)
    elif times.shape != (n,):
        raise ConfigurationError("now_s must be one time or one per row")
    times = times.tolist()
    est = np.empty((n, windows))
    weights = np.empty(n)
    caps = np.empty(n)
    for i, mac in enumerate(macs):
        estimator = mac._energy_estimator
        if estimator.estimate_j == 0.0:
            estimator.reset(nominal_tx_energies_j[i])
        est[i] = estimator.estimate_j * mac._retx_estimator.window_energy_multipliers(
            windows
        )
        weights[i] = mac.effective_degradation(times[i])
        caps[i] = mac._selector.soc_cap_j
    selector = macs[0]._selector
    return score_windows_mixed(
        battery_energies_j,
        weights,
        green,
        est,
        counts,
        max_tx_energy_j=selector.max_tx_energy_j,
        soc_cap_j=caps,
        w_b=selector.w_b,
        utility_fn=selector.utility_fn,
    )


def uniform_offset_in_window(
    window_s: float, airtime_s: float, rng: Optional[random.Random] = None
) -> float:
    """Random transmission offset within a forecast window.

    Section III-B ("Network dynamics and channel access"): choosing the
    transmission time randomly within the window reduces the chance of
    collisions among nodes that picked the same window.  The offset
    leaves room for the transmission itself to finish inside the window.
    """
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    if airtime_s < 0 or airtime_s >= window_s:
        raise ConfigurationError("airtime must fit inside the window")
    generator = rng or random
    return generator.uniform(0.0, window_s - airtime_s)
