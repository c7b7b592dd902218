"""Gateway model for the event-driven simulator.

A LoRa gateway (e.g. the paper's RAK2245) can lock onto at most ω
concurrent transmissions; signals below sensitivity or beyond the
demodulator budget are not received but still contribute interference.
Collisions are resolved pairwise on (time, channel, SF) overlap with the
capture effect, matching the NS-3 LoRaWAN module's behaviour the paper
builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..exceptions import InvariantError
from ..lora import CollisionDetector, Transmission, TxParams
from ..lora.params import SENSITIVITY_DBM


@dataclass
class ReceptionToken:
    """Tracks one in-flight uplink at the gateway."""

    transmission: Transmission
    locked: bool


@dataclass
class GatewayStats:
    """Gateway-side counters (diagnostics for the engine's reports)."""

    receptions_started: int = 0
    receptions_locked: int = 0
    lost_below_sensitivity: int = 0
    lost_demodulator_busy: int = 0
    lost_collision: int = 0
    delivered: int = 0


class Gateway:
    """ω-demodulator gateway with collision and capture resolution."""

    def __init__(self, omega: int, capture_effect: bool = True) -> None:
        if omega < 1:
            raise InvariantError("omega must be >= 1")
        self._omega = omega
        self._detector = CollisionDetector(capture_effect=capture_effect)
        self._locked_count = 0
        self.stats = GatewayStats()

    @property
    def omega(self) -> int:
        """ω — demodulators available at this gateway."""
        return self._omega

    def begin_reception(self, tx: Transmission, params: TxParams) -> ReceptionToken:
        """Register the start of an uplink at the gateway.

        The transmission always enters the interference pool; it is only
        *locked* (candidate for decoding) when it clears sensitivity and
        a demodulator is free.
        """
        self.stats.receptions_started += 1
        sensitivity = SENSITIVITY_DBM[(params.spreading_factor, params.bandwidth_hz)]
        locked = True
        if tx.rssi_dbm < sensitivity:
            locked = False
            self.stats.lost_below_sensitivity += 1
        elif self._locked_count >= self._omega:
            locked = False
            self.stats.lost_demodulator_busy += 1
        if locked:
            self._locked_count += 1
            self.stats.receptions_locked += 1
        self._detector.begin(tx)
        return ReceptionToken(transmission=tx, locked=locked)

    def end_reception(self, token: ReceptionToken) -> bool:
        """Finish an uplink; True when it was decoded successfully."""
        survived = self._detector.end(token.transmission)
        if token.locked:
            self._locked_count -= 1
            if self._locked_count < 0:
                raise InvariantError("demodulator count went negative")
        if not token.locked:
            return False
        if not survived:
            self.stats.lost_collision += 1
            return False
        self.stats.delivered += 1
        return True
