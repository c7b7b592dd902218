"""Hybrid supercapacitor + battery storage (the paper's stated future work).

Related work [39] proposes pairing LoRa nodes with supercapacitors to
spare the battery; the paper notes such hardware cannot bridge long
no-energy periods and "leave[s] the study of setups considering
supercapacitors as future work".  This module implements that setup so
the extension bench can quantify it:

* :class:`Supercapacitor` — small, leaky, effectively cycle-immortal
  buffer (capacitors do not suffer electrochemical cycle aging).
* :class:`HybridStorage` — a drop-in replacement for the
  software-defined switch's energy path: harvest fills the supercap
  first, demand drains it first, and the battery only sees the residual
  bulk flows.  Transmission micro-cycles therefore never touch the
  battery's SoC trace, removing their cycle-aging contribution, while
  the battery still bridges nights (the capability [39] lacks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..battery import Battery
from ..exceptions import ConfigurationError
from .switch import WindowEnergyResult


@dataclass
class Supercapacitor:
    """An ideal-ish supercapacitor buffer.

    Parameters
    ----------
    capacity_j:
        Usable energy capacity in joules (small: typically a handful of
        transmissions' worth).
    leakage_per_hour:
        Fraction of stored energy self-discharged per hour — the
        defining drawback versus batteries.
    initial_soc:
        Starting fill level.
    """

    capacity_j: float
    leakage_per_hour: float = 0.02
    initial_soc: float = 0.0

    stored_j: float = field(init=False)
    _last_time_s: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ConfigurationError("supercap capacity must be positive")
        if not 0.0 <= self.leakage_per_hour < 1.0:
            raise ConfigurationError("leakage must be in [0, 1) per hour")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ConfigurationError("initial SoC must be in [0, 1]")
        self.stored_j = self.initial_soc * self.capacity_j

    @property
    def soc(self) -> float:
        """Fill level of the supercapacitor in [0, 1]."""
        return self.stored_j / self.capacity_j

    def leak_to(self, now_s: float) -> float:
        """Apply self-discharge up to ``now_s``; returns energy lost."""
        if now_s < self._last_time_s:
            raise ConfigurationError("supercap time cannot move backwards")
        hours = (now_s - self._last_time_s) / 3600.0
        self._last_time_s = now_s
        if hours == 0.0 or self.stored_j == 0.0:
            return 0.0
        kept = self.stored_j * (1.0 - self.leakage_per_hour) ** hours
        lost = self.stored_j - kept
        self.stored_j = kept
        return lost

    def charge(self, energy_j: float) -> float:
        """Store up to ``energy_j``; returns the amount accepted."""
        if energy_j < 0:
            raise ConfigurationError("charge energy cannot be negative")
        accepted = min(energy_j, self.capacity_j - self.stored_j)
        self.stored_j += accepted
        return accepted

    def discharge(self, energy_j: float) -> float:
        """Draw up to ``energy_j``; returns the amount supplied."""
        if energy_j < 0:
            raise ConfigurationError("discharge energy cannot be negative")
        supplied = min(energy_j, self.stored_j)
        self.stored_j -= supplied
        return supplied


class HybridStorage:
    """Supercap-first energy routing in front of a battery.

    Mirrors :class:`~repro.energy.switch.SoftwareDefinedSwitch`'s
    ``apply_window`` contract so simulations can swap it in: green energy
    covers demand, surplus charges the supercap then (θ-capped) the
    battery, deficit drains the supercap then the battery.  The battery's
    SoC trace only records the *residual* flows, so rainflow counting
    sees far fewer (and shallower) cycles.
    """

    def __init__(
        self, supercap: Supercapacitor, soc_cap: float = 1.0
    ) -> None:
        if not 0.0 < soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        self.supercap = supercap
        self.soc_cap = soc_cap

    def apply_window(
        self,
        battery: Battery,
        harvested_j: float,
        demand_j: float,
        window_end_s: float,
    ) -> WindowEnergyResult:
        """Settle one window's flows across supercap and battery."""
        if harvested_j < 0 or demand_j < 0:
            raise ConfigurationError("energies cannot be negative")
        self.supercap.leak_to(window_end_s)

        green_used = min(harvested_j, demand_j)
        surplus = harvested_j - green_used
        deficit = demand_j - green_used

        charged = 0.0
        spilled = 0.0
        battery_used = 0.0
        shortfall = 0.0

        if surplus > 0.0:
            surplus -= self.supercap.charge(surplus)
            if surplus > 0.0:
                charged = battery.charge(surplus, window_end_s, soc_cap=self.soc_cap)
                spilled = surplus - charged
            else:
                battery.settle(window_end_s)
        elif deficit > 0.0:
            deficit -= self.supercap.discharge(deficit)
            if deficit > 0.0:
                battery_used = min(deficit, battery.stored_j)
                shortfall = deficit - battery_used
                battery.discharge(battery_used, window_end_s)
            else:
                battery.settle(window_end_s)
        else:
            battery.settle(window_end_s)

        return WindowEnergyResult(
            green_used_j=green_used,
            battery_used_j=battery_used,
            charged_j=charged,
            spilled_j=spilled,
            shortfall_j=shortfall,
        )

    def can_sustain(
        self, battery: Battery, harvested_j: float, demand_j: float
    ) -> bool:
        """Eq. (20) extended with the supercap's stored energy."""
        available = battery.stored_j + self.supercap.stored_j + harvested_j
        return available + 1e-12 >= demand_j
