"""End-device model for the event-driven simulator.

Each :class:`EndDevice` owns its battery, harvester, forecaster, MAC
policy, and metrics, and implements the per-period behaviour of
Section III-B: at every sampling period it generates a packet, runs the
MAC's window decision, transmits (with up to 8 retransmissions and
class-A receive windows) at the chosen window, and settles its energy
through the software-defined switch so the SoC trace reflects Eq. (5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Callable, List, Optional, Sequence, Tuple

from ..battery import Battery, TransitionReport
from ..core import (
    ConfirmedUplinkRetrier,
    MacPolicy,
    WindowDecision,
    uniform_offset_in_window,
)
from ..energy import EnergyForecaster, Harvester, SoftwareDefinedSwitch
from ..exceptions import ConfigurationError, InvariantError
from ..lora import ChannelHopper, EnergyModel, LogDistanceLink, TxParams, airtime_table
from .metrics import NodeMetrics
from .packetlog import PacketLog, PacketRecord
from .topology import NodePlacement


@dataclass
class PacketState:
    """Lifecycle of the packet generated in the current sampling period."""

    generated_at_s: float
    period_start_s: float
    decision: WindowDecision
    attempt: int = 0
    tx_energy_metric_j: float = 0.0
    battery_energy_j: float = 0.0
    #: Forecast window of the last recharge within the period, for the
    #: piggybacked transition report.
    last_recharge_window: Optional[int] = None
    discharge_soc: Optional[float] = None


class EndDevice:
    """One LoRa node: radio, energy subsystem, MAC, and bookkeeping."""

    def __init__(
        self,
        placement: NodePlacement,
        tx_params: TxParams,
        battery: Battery,
        harvester: Harvester,
        forecaster: EnergyForecaster,
        mac: MacPolicy,
        hopper: ChannelHopper,
        window_s: float,
        energy_model: Optional[EnergyModel] = None,
        rng: Optional[random.Random] = None,
        max_retransmissions: int = 8,
        packet_log: Optional[PacketLog] = None,
        retrier: Optional[ConfirmedUplinkRetrier] = None,
        on_brownout: Optional[Callable[[float], None]] = None,
        trace=None,
        link: Optional[LogDistanceLink] = None,
        antenna_gain_db: float = 0.0,
    ) -> None:
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        self.placement = placement
        self.tx_params = tx_params
        self.battery = battery
        self.harvester = harvester
        self.forecaster = forecaster
        self.mac = mac
        self.hopper = hopper
        self.window_s = window_s
        self.energy_model = energy_model or EnergyModel()
        self.rng = rng or random.Random(placement.node_id)
        self.max_retransmissions = max_retransmissions
        self.packet_log = packet_log
        self.retrier = retrier or ConfirmedUplinkRetrier(
            max_retransmissions=max_retransmissions
        )
        #: Set after a reboot: the node keeps requesting a fresh ``w_u``
        #: until one actually arrives on a received ACK.
        self.needs_weight_refresh = False

        # PHY constants come from the process-wide precomputed table;
        # entries are built through the same time_on_air/tx_energy
        # functions, so the values are bit-identical to direct calls.
        # ``tx_params`` is fixed for the node's lifetime, and so are they.
        entry = airtime_table(self.energy_model).entry(tx_params)
        self.airtime_s = entry.airtime_s
        #: Eq. (6) energy of one attempt (the TX-energy metric's unit).
        self.tx_energy_j = entry.tx_energy_j
        #: Battery cost of one attempt incl. the class-A receive windows.
        self.attempt_energy_j = entry.attempt_energy_j
        self.bind_link(link, antenna_gain_db)

        self.switch = SoftwareDefinedSwitch(
            soc_cap=mac.soc_cap, on_brownout=on_brownout
        )
        #: Optional :class:`~repro.obs.TraceBus`; binding it here wires
        #: the node's MAC, battery, and switch in one place.
        self.trace = trace
        if trace is not None:
            self.mac.bind_trace(trace, placement.node_id)
            self.battery.bind_trace(trace, placement.node_id)
            self.switch.bind_trace(trace, placement.node_id)
        self.metrics = NodeMetrics(
            node_id=placement.node_id, period_s=placement.period_s
        )
        self.packet: Optional[PacketState] = None
        self._settled_until_s = 0.0
        self._pending_report: Optional[TransitionReport] = None

    # -------------------------------------------------------- checkpointing

    def __getstate__(self):
        """Snapshot without the RSSI derived from the link.

        The link is the engine's; it binds it again on resume
        (:meth:`bind_link`).
        """
        state = dict(self.__dict__)
        state.pop("gateway_rssi_dbm", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.bind_link(None)

    def bind_link(
        self, link: Optional[LogDistanceLink], antenna_gain_db: float = 0.0
    ) -> None:
        """Attach the link the node's uplinks cross to every gateway.

        :attr:`gateway_rssi_dbm` then holds the node's RSSI at each
        gateway of ``placement.gateway_distances_m`` for its TX power;
        without a link it is None.
        """
        if link is None:
            self.gateway_rssi_dbm = None
            return
        power = self.tx_params.tx_power_dbm
        self.gateway_rssi_dbm = tuple(
            link.rssi_dbm(power, distance, antenna_gain_db=antenna_gain_db)
            for distance in self.placement.gateway_distances_m
        )

    # ------------------------------------------------------------ properties

    @property
    def node_id(self) -> int:
        """The node's network identifier."""
        return self.placement.node_id

    @property
    def period_s(self) -> float:
        """τ — the node's sampling period in seconds."""
        return self.placement.period_s

    @property
    def windows_per_period(self) -> int:
        """|T| — forecast windows available per sampling period."""
        return max(1, int(self.placement.period_s // self.window_s))

    # --------------------------------------------------------------- energy

    def settle_chunks(
        self, now_s: float
    ) -> Tuple[List[float], List[float], List[float]]:
        """Starts, ends and durations of the chunks settling to ``now_s``.

        Chunks are forecast-window sized from the settled point on; a
        partial final chunk ends exactly at ``now_s``.  Each chunk's
        harvest is its power at ``start + duration / 2`` times its
        duration.  Each chunk starts where the one before it ended.
        """
        ends: List[float] = []
        append = ends.append
        window_s = self.window_s
        stop = now_s - 1e-9
        cursor = self._settled_until_s
        while cursor < stop:
            cursor = cursor + window_s
            if not cursor < now_s:
                cursor = now_s
            append(cursor)
        if not ends:
            return [], ends, []
        starts = [self._settled_until_s]
        starts += ends[:-1]
        return starts, ends, list(map(sub, ends, starts))

    def settle_to(
        self,
        now_s: float,
        powers: Optional[Sequence[float]] = None,
        layout: Optional[Tuple[list, list, list]] = None,
    ) -> None:
        """Apply harvested energy and sleep demand up to ``now_s``.

        The :meth:`settle_chunks` chunks go through the software-defined
        switch in one :meth:`~repro.energy.SoftwareDefinedSwitch.apply_chunks`
        pass, so the SoC trace gains at most one point per window — the
        paper's discrete-time trace granularity.  The batched exact
        engine lays out and evaluates every cohort node's chunks at
        once and hands both over: ``layout`` is this settle's
        :meth:`settle_chunks` result and ``powers`` the harvester's
        powers at its chunk midpoints.  Without them the node lays out
        its own chunks and the scalar harvester supplies the powers.
        Powers whose count is not the layout's chunk count, or a layout
        that does not run from the settled point to ``now_s`` (one laid
        out before another settle, or for another instant), raise
        :class:`~repro.exceptions.InvariantError`.
        """
        if now_s < self._settled_until_s:
            raise InvariantError("cannot settle backwards in time")
        if layout is None:
            layout = self.settle_chunks(now_s)
        elif not self._spans(layout, now_s):
            raise InvariantError(
                "settle layout does not run from the settled point to now"
            )
        starts, ends, durations = layout
        if powers is None:
            powers = self._scalar_powers(starts, durations)
        elif len(powers) != len(ends):
            raise InvariantError(
                f"{len(powers)} settle powers for {len(ends)} chunks"
            )
        self._apply_chunks(now_s, starts, ends, durations, powers)

    def _spans(self, layout, now_s: float) -> bool:
        """Whether ``layout`` is what :meth:`settle_chunks` lays out now."""
        starts, ends, durations = layout
        count = len(ends)
        if len(starts) != count or len(durations) != count:
            return False
        if not count:
            return not self._settled_until_s < now_s - 1e-9
        return (
            starts[0] == self._settled_until_s
            and not ends[-1] < now_s - 1e-9
            and ends[-1] <= now_s
        )

    def _scalar_powers(self, starts, durations) -> List[float]:
        """The harvester's power at each chunk midpoint, one at a time."""
        power = self.harvester.power_watts
        return [
            power(start + duration / 2.0)
            for start, duration in zip(starts, durations)
        ]

    def _apply_chunks(
        self,
        now_s: float,
        starts: Sequence[float],
        ends: List[float],
        durations: Sequence[float],
        powers: Sequence[float],
        attempt_j: Optional[float] = None,
    ):
        """One switch pass over the chunks; returns its ``SettleResult``.

        ``attempt_j``, when given, is a transmission attempt's battery
        cost, settled as a zero-length last chunk ending at ``now_s``
        (harvest 0; ``ends`` gains that chunk).  It cannot charge, so
        the last recharge the packet reports is always a settle chunk.
        """
        sleep_watts = self.energy_model.power_profile.sleep_watts
        harvested = list(map(mul, powers, durations))
        demands = list(map(mul, repeat(sleep_watts), durations))
        if attempt_j is not None:
            harvested.append(0.0)
            demands.append(attempt_j)
            ends.append(now_s)
        result = self.switch.apply_chunks(self.battery, harvested, demands, ends)
        last = result.last_charged
        if last >= 0 and self.packet is not None:
            window = int((starts[last] - self.packet.period_start_s) // self.window_s)
            if window >= 0:
                self.packet.last_recharge_window = min(window, 0xFE)
        self._settled_until_s = now_s
        return result

    def draw_attempt_energy(self, now_s: float) -> bool:
        """Settle to ``now_s`` and draw one attempt's battery cost.

        Harvest during the sub-second attempt itself is negligible: the
        attempt is the settle's zero-length last chunk, drawing the full
        attempt energy from the battery after the chunks before it have
        credited harvest up to now — the values and event order of a
        :meth:`settle_to` followed by a one-window
        :meth:`~repro.energy.SoftwareDefinedSwitch.apply_window`, in one
        switch pass.  Returns False when that chunk browns out.
        """
        if now_s < self._settled_until_s:
            raise InvariantError("cannot settle backwards in time")
        starts, ends, durations = self.settle_chunks(now_s)
        attempt = len(ends)
        shortfalls = self._apply_chunks(
            now_s,
            starts,
            ends,
            durations,
            self._scalar_powers(starts, durations),
            self.attempt_energy_j,
        ).shortfalls
        return not shortfalls or shortfalls[-1][0] != attempt

    # ------------------------------------------------------------- protocol

    def begin_period(
        self,
        now_s: float,
        powers: Optional[Sequence[float]] = None,
        forecast: Optional[List[float]] = None,
        layout: Optional[Tuple[list, list, list]] = None,
    ):
        """Settle, count the generated packet, and forecast this period.

        First half of a period start; the exact engine runs it for every
        same-instant node before computing the window decisions in one
        vector pass, passing the settle ``layout`` and ``powers`` (see
        :meth:`settle_to`) and, for an oracle forecaster, the
        ``forecast`` from its cohort-wide harvest evaluation.  Returns
        the green-energy forecast the MAC decision needs.
        """
        self.settle_to(now_s, powers, layout)
        self.metrics.record_generated()
        if forecast is not None:
            return forecast
        return self.forecaster.forecast(
            now_s, self.window_s, self.windows_per_period
        )

    def finish_period_decision(
        self, now_s: float, decision: WindowDecision
    ) -> Optional[float]:
        """Apply a window decision: bookkeeping, packet state, schedule.

        Second half of a period start — everything after the MAC
        decision.  Returns the absolute first-attempt time, or None on
        FAIL.
        """
        if not decision.success or decision.window_index is None:
            self.metrics.record_failure(0, 0.0, energy_drop=True)
            if self.trace is not None:
                self.trace.emit(
                    now_s,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=self.node_id,
                    reason="no_feasible_window",
                    soc=self.battery.soc,
                )
            if self.packet_log is not None:
                self.packet_log.append(
                    PacketRecord(
                        node_id=self.node_id,
                        generated_at_s=now_s,
                        window_index=-1,
                        attempts=0,
                        delivered=False,
                        latency_s=self.period_s,
                        utility=0.0,
                        energy_drop=True,
                    )
                )
            self.packet = None
            return None

        self.metrics.record_window(decision.window_index)
        self.packet = PacketState(
            generated_at_s=now_s,
            period_start_s=now_s,
            decision=decision,
        )
        window_start = now_s + decision.window_index * self.window_s
        if decision.window_index == 0 and not self._randomize_offset():
            offset = 0.0  # Pure ALOHA transmits the instant the packet exists.
        else:
            offset = uniform_offset_in_window(
                self.window_s, self.airtime_s, self.rng
            )
        if self.trace is not None:
            self.trace.emit(
                now_s,
                "packet",
                "packet.generated",
                severity="debug",
                node_id=self.node_id,
                window_index=decision.window_index,
                first_attempt_s=window_start + offset,
                soc=self.battery.soc,
            )
        return window_start + offset

    def _randomize_offset(self) -> bool:
        """Whether this MAC spreads transmissions inside the window.

        The proposed MAC picks a random time within the window to cut
        same-window collisions; plain ALOHA transmits immediately.
        """
        return self.mac.name != "LoRaWAN" and self.mac.name[-1] != "C"

    def observe_window_energy(self, window_start_s: float) -> None:
        """Feed the realized harvest of a window into the forecaster."""
        actual = self.harvester.window_energy_j(window_start_s, self.window_s)
        self.forecaster.observe(window_start_s, self.window_s, actual)

    def finish_packet(
        self, now_s: float, delivered: bool, latency_s: float
    ) -> Optional[TransitionReport]:
        """Close out the current packet; returns the piggyback report.

        Updates metrics and the MAC estimators; the returned report is
        what the *next* uplink would carry (the paper appends transition
        data for the previous period to the subsequent packet).
        """
        packet = self.packet
        if packet is None:
            raise InvariantError("no packet in flight")
        # ``attempt`` counts failed attempts so far; for an exhausted
        # packet it reads max+1 (the loop increments before giving up),
        # while the retransmission count is capped at the LoRa limit.
        retx = min(packet.attempt, self.max_retransmissions)
        window = packet.decision.window_index or 0
        if delivered:
            self.metrics.record_delivery(
                retransmissions=retx,
                tx_energy_j=packet.tx_energy_metric_j,
                utility=packet.decision.utility,
                latency_s=latency_s,
            )
        else:
            self.metrics.record_failure(
                retransmissions=retx, tx_energy_j=packet.tx_energy_metric_j
            )
        self.mac.observe_result(window, retx, packet.battery_energy_j)
        if self.trace is not None:
            self.trace.emit(
                now_s,
                "packet",
                "packet.finished",
                severity="info" if delivered else "warning",
                node_id=self.node_id,
                delivered=delivered,
                window_index=window,
                retransmissions=retx,
                latency_s=latency_s,
                battery_energy_j=packet.battery_energy_j,
            )
        if self.packet_log is not None:
            attempted = packet.tx_energy_metric_j > 0
            self.packet_log.append(
                PacketRecord(
                    node_id=self.node_id,
                    generated_at_s=packet.generated_at_s,
                    window_index=window,
                    attempts=retx + 1 if attempted else 0,
                    delivered=delivered,
                    latency_s=latency_s,
                    utility=packet.decision.utility if delivered else 0.0,
                    energy_drop=not delivered and not attempted,
                )
            )
        self.observe_window_energy(
            packet.period_start_s + window * self.window_s
        )
        report = TransitionReport(
            discharge_window=min(window, 0xFE),
            discharge_soc=packet.discharge_soc,
            recharge_window=packet.last_recharge_window,
            recharge_soc=self.battery.soc if packet.last_recharge_window is not None else None,
        )
        self._pending_report = report
        self.packet = None
        return report

    def take_pending_report(self) -> Optional[TransitionReport]:
        """The transition report to piggyback on the next uplink."""
        report = self._pending_report
        self._pending_report = None
        return report

    # ----------------------------------------------------------------- faults

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt``, drawn from the node's RNG.

        Raises :class:`~repro.exceptions.ProtocolError` once the
        retransmission budget is exhausted — the caller must abandon the
        packet.
        """
        return self.retrier.backoff_s(attempt, self.rng)

    def reboot(self, now_s: float) -> None:
        """Brown-out reboot: volatile MAC state is wiped.

        The battery, harvester, and radio survive (hardware); the MAC's
        estimators and its copy of ``w_u`` live in RAM and are lost.
        Any in-flight packet must be failed by the caller *before* the
        reboot so its outcome still reaches the metrics.  After
        rebooting the node asks the gateway for a fresh weight on its
        next delivered uplink.
        """
        self.settle_to(now_s)
        if self.packet is not None:
            raise InvariantError("fail the in-flight packet before rebooting")
        self.mac.reboot()
        self._pending_report = None
        self.needs_weight_refresh = True
        self.metrics.reboots += 1
