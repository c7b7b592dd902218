"""Gateway-side degradation computation and dissemination (Section III-B).

The rainflow computation is too heavy for low-power nodes, so the
gateway: (1) reconstructs each node's SoC trace from the 4-byte
transition reports piggybacked on uplinks, (2) periodically runs the
degradation model (Eq. 1-4) per node, (3) normalizes each node's
degradation by the network maximum, ``w_u = D_u / D_max``, and (4)
disseminates each node's own ``w_u`` as a single byte piggybacked on the
next ACK, at most once per ``dissemination_interval`` (the paper suggests
once a day, since per-day degradation change is 0.001-0.0001).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..battery import DegradationModel, SocTrace, TransitionReport
from ..exceptions import ConfigurationError
from ..constants import SECONDS_PER_DAY


def quantize_w(w_u: float) -> int:
    """Encode ``w_u ∈ [0, 1]`` into the single dissemination byte."""
    if not 0.0 <= w_u <= 1.0:
        raise ConfigurationError("w_u must be in [0, 1]")
    return min(255, round(w_u * 255))


def dequantize_w(byte_value: int) -> float:
    """Decode the dissemination byte back into ``w_u``."""
    if not 0 <= byte_value <= 255:
        raise ConfigurationError("byte value out of range")
    return byte_value / 255.0


@dataclass
class NodeDegradationState:
    """Per-node bookkeeping held by the gateway."""

    trace: SocTrace = field(default_factory=SocTrace)
    degradation: float = 0.0
    last_disseminated_s: float = float("-inf")
    reports_received: int = 0
    #: The ``w_u`` byte last pushed to the node (what the node holds if
    #: no ACK was lost since); None before the first dissemination.
    last_w_byte: Optional[int] = None


class DegradationService:
    """The gateway's battery-degradation bookkeeper.

    In simulation the service can be fed either decoded
    :class:`TransitionReport` objects (faithful to the wire protocol) or
    direct SoC samples (when the simulator already owns the battery
    object); both end up in the same per-node :class:`SocTrace`.
    """

    def __init__(
        self,
        model: Optional[DegradationModel] = None,
        dissemination_interval_s: float = SECONDS_PER_DAY,
    ) -> None:
        if dissemination_interval_s <= 0:
            raise ConfigurationError("dissemination interval must be positive")
        self._model = model or DegradationModel()
        self._interval_s = dissemination_interval_s
        self._nodes: Dict[int, NodeDegradationState] = {}
        # D_max cache: every per-node w_u query needs the network
        # maximum, and rescanning all nodes per query made refresh
        # passes O(N²).  Invalidated whenever any degradation changes.
        self._max_cache = 0.0
        self._max_dirty = True
        #: Optional :class:`~repro.obs.TraceBus`; None keeps tracing free.
        self._trace = None

    def bind_trace(self, bus) -> None:
        """Attach a trace bus so disseminations publish ``wu`` events."""
        self._trace = bus

    # ------------------------------------------------------------- ingestion

    def _state(self, node_id: int) -> NodeDegradationState:
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeDegradationState()
            self._nodes[node_id] = state
        return state

    def ingest_report(
        self,
        node_id: int,
        report: TransitionReport,
        period_start_s: float,
        window_s: float,
    ) -> None:
        """Fold one piggybacked transition report into the node's trace."""
        state = self._state(node_id)
        state.reports_received += 1
        events = []
        if report.discharge_window is not None and report.discharge_soc is not None:
            events.append(
                (period_start_s + report.discharge_window * window_s, report.discharge_soc)
            )
        if report.recharge_window is not None and report.recharge_soc is not None:
            events.append(
                (period_start_s + report.recharge_window * window_s, report.recharge_soc)
            )
        for time_s, soc in sorted(events):
            last = state.trace.last_time
            if last is not None and time_s <= last:
                time_s = last + 1e-6
            state.trace.append(time_s, soc)

    def ingest_soc_sample(self, node_id: int, time_s: float, soc: float) -> None:
        """Directly record a node's SoC (simulator-side shortcut)."""
        self._state(node_id).trace.append(time_s, soc)

    def set_degradation(self, node_id: int, degradation: float) -> None:
        """Inject an externally computed degradation value for a node.

        The mesoscopic simulator computes degradation itself (it owns the
        batteries) and only uses the service for normalization and
        dissemination pacing.
        """
        if not 0.0 <= degradation <= 1.0:
            raise ConfigurationError("degradation must be in [0, 1]")
        self._state(node_id).degradation = degradation
        self._max_dirty = True

    # ----------------------------------------------------------- computation

    def recompute(self, node_id: int, age_s: float, temperature_c: float = 25.0) -> float:
        """Run Eq. (1)-(4) on the node's reconstructed trace."""
        state = self._state(node_id)
        if len(state.trace) == 0:
            return state.degradation
        state.degradation = self._model.degradation_from_trace(
            state.trace, age_s=age_s, temperature_c=temperature_c
        )
        self._max_dirty = True
        return state.degradation

    def recompute_all(self, age_s: float, temperature_c: float = 25.0) -> None:
        """Run the Eq. (1)-(4) pipeline for every known node."""
        for node_id in self._nodes:
            self.recompute(node_id, age_s=age_s, temperature_c=temperature_c)

    def max_degradation(self) -> float:
        """``D_max`` across the network (0 for an empty network)."""
        if self._max_dirty:
            self._max_cache = (
                max(state.degradation for state in self._nodes.values())
                if self._nodes
                else 0.0
            )
            self._max_dirty = False
        return self._max_cache

    def normalized_degradation(self, node_id: int) -> float:
        """``w_u = D_u / D_max`` — 0 when the whole network is pristine."""
        d_max = self.max_degradation()
        if d_max <= 0.0:
            return 0.0
        return self._state(node_id).degradation / d_max

    # --------------------------------------------------------- dissemination

    def ack_payload_byte(self, node_id: int, now_s: float) -> Optional[int]:
        """The ``w_u`` byte to piggyback on this ACK, if one is due.

        Returns None when the node received a fresh value less than the
        dissemination interval ago — the ACK then carries no overhead.
        """
        state = self._state(node_id)
        if now_s - state.last_disseminated_s < self._interval_s:
            return None
        state.last_disseminated_s = now_s
        state.last_w_byte = quantize_w(self.normalized_degradation(node_id))
        if self._trace is not None:
            self._trace.emit(
                now_s,
                "wu",
                "wu.disseminated",
                node_id=node_id,
                w_byte=state.last_w_byte,
                degradation=state.degradation,
                d_max=self.max_degradation(),
            )
        return state.last_w_byte

    def force_dissemination(self, node_id: int) -> None:
        """Make the next ACK to ``node_id`` carry a ``w_u`` byte.

        A rebooted node loses its volatile copy of ``w_u`` and requests
        a fresh one; the interval-based pacing would otherwise keep the
        node weightless for up to a whole dissemination interval.
        """
        self._state(node_id).last_disseminated_s = float("-inf")

    @property
    def node_count(self) -> int:
        """Number of nodes the service has seen."""
        return len(self._nodes)

    @property
    def model(self) -> DegradationModel:
        """The degradation model evaluating Eq. (1)-(4)."""
        return self._model
