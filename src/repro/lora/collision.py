"""LoRa collision and capture model.

Two concurrent transmissions interfere destructively only when they
overlap in time, frequency (channel), and spreading factor — different
SFs are quasi-orthogonal, which is the standard assumption of the NS-3
LoRaWAN module the paper builds on.  When two same-SF/same-channel
transmissions overlap, the *capture effect* lets the stronger one survive
if it exceeds the other by :data:`~repro.lora.params.CAPTURE_THRESHOLD_DB`.

This module supplies the exact pairwise test used by the event-driven
engine's gateway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List

from ..exceptions import ConfigurationError
from .params import CAPTURE_THRESHOLD_DB, SpreadingFactor


@dataclass(frozen=True)
class Transmission:
    """An on-air transmission as seen by the gateway."""

    node_id: int
    start_s: float
    duration_s: float
    channel_index: int
    spreading_factor: SpreadingFactor
    rssi_dbm: float
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("transmission duration must be positive")

    @property
    def end_s(self) -> float:
        """Absolute time the transmission finishes."""
        return self.start_s + self.duration_s

    def overlaps_in_time(self, other: "Transmission") -> bool:
        """Strict time overlap (touching endpoints do not collide)."""
        return self.start_s < other.end_s and other.start_s < self.end_s

    def interferes_with(self, other: "Transmission") -> bool:
        """Whether the pair mutually interferes (time+channel+SF overlap)."""
        return (
            self.channel_index == other.channel_index
            and self.spreading_factor == other.spreading_factor
            and self.overlaps_in_time(other)
        )


def survives_capture(
    victim: Transmission,
    interferers: Iterable[Transmission],
    capture_threshold_db: float = CAPTURE_THRESHOLD_DB,
) -> bool:
    """Whether ``victim`` is decodable despite ``interferers``.

    The victim survives if it is at least ``capture_threshold_db`` stronger
    than the aggregate of every interfering signal (computed in linear
    power domain, mirroring the NS-3 module's co-channel rejection check).
    Non-interfering transmissions in the iterable are ignored.
    """
    interference_mw = 0.0
    for other in interferers:
        if other.node_id == victim.node_id and other.attempt == victim.attempt:
            continue
        if victim.interferes_with(other):
            interference_mw += 10.0 ** (other.rssi_dbm / 10.0)
    if interference_mw == 0.0:
        return True
    victim_mw = 10.0 ** (victim.rssi_dbm / 10.0)
    sir_db = 10.0 * math.log10(victim_mw / interference_mw)
    return sir_db >= capture_threshold_db - 1e-9


@dataclass
class CollisionDetector:
    """Tracks active/on-air transmissions and resolves collisions.

    The event-driven engine registers a transmission when it starts and
    asks for the verdict when it ends; a transmission that interfered with
    any concurrent same-channel/same-SF transmission (and did not capture
    over it) is lost.  The detector retains a short sliding history so a
    transmission that started *before* the victim is also accounted for.
    """

    capture_threshold_db: float = CAPTURE_THRESHOLD_DB
    capture_effect: bool = True
    _active: List[Transmission] = field(default_factory=list)
    _doomed: set = field(default_factory=set)

    def begin(self, tx: Transmission) -> None:
        """Register the start of a transmission and mark new collisions."""
        for other in self._active:
            if not tx.interferes_with(other):
                continue
            if self.capture_effect:
                if not survives_capture(tx, [other], self.capture_threshold_db):
                    self._doomed.add(self._key(tx))
                if not survives_capture(other, [tx], self.capture_threshold_db):
                    self._doomed.add(self._key(other))
            else:
                self._doomed.add(self._key(tx))
                self._doomed.add(self._key(other))
        self._active.append(tx)

    def end(self, tx: Transmission) -> bool:
        """Finish a transmission; returns True if it survived collisions."""
        key = self._key(tx)
        try:
            self._active.remove(tx)
        except ValueError:
            raise ConfigurationError("end() called for unregistered transmission")
        survived = key not in self._doomed
        self._doomed.discard(key)
        return survived

    @staticmethod
    def _key(tx: Transmission) -> tuple:
        return (tx.node_id, tx.attempt, tx.start_s)

