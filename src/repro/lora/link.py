"""Radio link model: path loss, RSSI, SNR and reception feasibility.

The paper's NS-3 evaluation uses the standard log-distance propagation
model from the LoRaWAN NS-3 module [25].  We implement the same model:

.. math::

    PL(d) = PL(d_0) + 10\\,n\\,\\log_{10}(d / d_0) + X_\\sigma

with a reference loss at ``d0 = 1 m`` derived from free space at the
carrier frequency, path-loss exponent ``n`` (3.76 in the NS-3 module's
urban default; 2.75 is a common suburban choice), and optional log-normal
shadowing ``X_sigma``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..constants import SPEED_OF_LIGHT, THERMAL_NOISE_DBM_PER_HZ
from ..exceptions import ConfigurationError
from .params import TxParams


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB at ``distance_m`` meters."""
    if distance_m <= 0:
        raise ConfigurationError("distance must be positive")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 6.0) -> float:
    """Receiver noise floor in dBm for the given bandwidth."""
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass
class LogDistanceLink:
    """Log-distance path-loss model with optional log-normal shadowing.

    Parameters
    ----------
    path_loss_exponent:
        Environment exponent ``n``; 3.76 matches the NS-3 LoRaWAN module's
        default used in the paper's smart-city-derived evaluation.
    shadowing_sigma_db:
        Standard deviation of log-normal shadowing; 0 disables it.
    reference_distance_m:
        Distance at which the reference loss is computed (free space).
    frequency_hz:
        Carrier frequency used for the reference loss.
    """

    path_loss_exponent: float = 3.76
    shadowing_sigma_db: float = 0.0
    reference_distance_m: float = 1.0
    frequency_hz: float = 915e6
    noise_figure_db: float = 6.0
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.path_loss_exponent < 1.0:
            raise ConfigurationError("path_loss_exponent must be >= 1")
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError("shadowing sigma cannot be negative")
        if self.reference_distance_m <= 0:
            raise ConfigurationError("reference distance must be positive")
        self._reference_loss_db = free_space_path_loss_db(
            self.reference_distance_m, self.frequency_hz
        )

    def path_loss_db(self, distance_m: float, sample_shadowing: bool = False) -> float:
        """Total path loss at ``distance_m`` meters."""
        if distance_m <= 0:
            raise ConfigurationError("distance must be positive")
        distance = max(distance_m, self.reference_distance_m)
        loss = self._reference_loss_db + 10.0 * self.path_loss_exponent * math.log10(
            distance / self.reference_distance_m
        )
        if sample_shadowing and self.shadowing_sigma_db > 0:
            rng = self.rng or random
            loss += rng.gauss(0.0, self.shadowing_sigma_db)
        return loss

    def rssi_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        antenna_gain_db: float = 0.0,
        sample_shadowing: bool = False,
    ) -> float:
        """Received signal strength at the gateway in dBm."""
        return (
            tx_power_dbm
            + antenna_gain_db
            - self.path_loss_db(distance_m, sample_shadowing=sample_shadowing)
        )

    def snr_db(self, rssi_dbm: float, bandwidth_hz: float) -> float:
        """SNR of a reception given its RSSI and channel bandwidth."""
        return rssi_dbm - noise_floor_dbm(bandwidth_hz, self.noise_figure_db)

    def is_receivable(
        self,
        params: TxParams,
        distance_m: float,
        antenna_gain_db: float = 0.0,
        sample_shadowing: bool = False,
    ) -> bool:
        """Whether a lone packet at ``distance_m`` clears sensitivity and SNR."""
        rssi = self.rssi_dbm(
            params.tx_power_dbm,
            distance_m,
            antenna_gain_db=antenna_gain_db,
            sample_shadowing=sample_shadowing,
        )
        if rssi < params.sensitivity_dbm:
            return False
        snr = self.snr_db(rssi, params.bandwidth_hz)
        return snr >= params.demodulation_snr_db
