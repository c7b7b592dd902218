"""Battery degradation model: Eq. (1)-(4) of the paper.

Implements the calendar-aging, cycle-aging, combined-linear and nonlinear
(SEI) degradation equations from Xu et al. [13] exactly as the paper
states them:

* Eq. (1): ``D_cal(ζ, T̄, φ̄) = k1 · ζ · e^{k2(φ̄−k3)} ·
  e^{k4(T̄−k5)(273+k5)/(273+T̄)}``
* Eq. (2): ``D_cyc = Σ_i η_i · δ_i · φ_i · k6 ·
  e^{k4(T̄−k5)(273+k5)/(273+T̄)}``
* Eq. (3): ``D_L = D_cal + D_cyc``
* Eq. (4): ``D = 1 − α_sei e^{−k·D_L} − (1−α_sei) e^{−D_L}``

plus helpers to evaluate them from a :class:`~repro.battery.soc_trace.SocTrace`
(via rainflow counting) and to invert Eq. (4), which the lifespan benches
use to extrapolate when a battery will cross end of life.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..constants import CELSIUS_TO_KELVIN_OFFSET
from ..exceptions import ConfigurationError
from .constants import DEFAULT_CONSTANTS, DegradationConstants
from .rainflow import Cycle, count_cycles, cycle_statistics
from .soc_trace import SocTrace


def temperature_stress(
    temperature_c: float, constants: DegradationConstants = DEFAULT_CONSTANTS
) -> float:
    """The Arrhenius-style temperature factor shared by Eq. (1) and (2).

    ``e^{k4 (T̄ − k5)(273 + k5) / (273 + T̄)}`` — equals 1 at the
    reference temperature ``k5`` and grows exponentially above it.
    """
    kelvin = CELSIUS_TO_KELVIN_OFFSET + temperature_c
    if kelvin <= 0:
        raise ConfigurationError("temperature below absolute zero")
    exponent = (
        constants.k4
        * (temperature_c - constants.k5)
        * (CELSIUS_TO_KELVIN_OFFSET + constants.k5)
        / kelvin
    )
    return math.exp(exponent)


def soc_stress(
    mean_soc: float, constants: DegradationConstants = DEFAULT_CONSTANTS
) -> float:
    """SoC stress factor ``e^{k2(φ̄ − k3)}`` of Eq. (1)."""
    if not 0.0 <= mean_soc <= 1.0:
        raise ConfigurationError(f"mean SoC {mean_soc} outside [0, 1]")
    return math.exp(constants.k2 * (mean_soc - constants.k3))


def calendar_aging(
    age_s: float,
    temperature_c: float,
    mean_soc: float,
    constants: DegradationConstants = DEFAULT_CONSTANTS,
) -> float:
    """Calendar-aging component ``D_cal`` (Eq. 1).

    ``age_s`` is ζ, the time elapsed since battery manufacturing, in
    seconds; ``mean_soc`` is φ̄, the average SoC across cycles.
    """
    if age_s < 0:
        raise ConfigurationError("battery age cannot be negative")
    return (
        constants.k1
        * age_s
        * soc_stress(mean_soc, constants)
        * temperature_stress(temperature_c, constants)
    )


def depth_of_discharge_stress(
    depth: float, constants: DegradationConstants = DEFAULT_CONSTANTS
) -> float:
    """Xu et al.'s nonlinear DoD stress ``S_δ(δ) = 1/(kd1·δ^kd2 + kd3)``.

    Superlinear in depth: a 100 %-DoD cycle damages far more than ten
    10 %-DoD cycles.  Returns 0 for a zero-depth cycle (no stress).
    """
    if depth < 0:
        raise ConfigurationError("cycle depth cannot be negative")
    if depth == 0.0:
        return 0.0
    denominator = constants.kd1 * depth**constants.kd2 + constants.kd3
    if denominator <= 0:
        raise ConfigurationError(f"DoD stress undefined for depth {depth}")
    return 1.0 / denominator


def cycle_aging(
    cycles: Iterable[Cycle],
    temperature_c: float,
    constants: DegradationConstants = DEFAULT_CONSTANTS,
) -> float:
    """Cycle-aging component ``D_cyc`` (Eq. 2) from counted cycles.

    Two forms are supported via ``constants.cycle_stress_model``:

    * ``"xu"`` (default): Xu et al.'s full per-cycle damage
      ``η · S_δ(δ) · S_σ(φ) · S_T(T)`` — the model the paper's
      implementation uses.
    * ``"linear"``: the paper's simplified presentation,
      ``η · δ · φ · k6 · S_T(T)``.
    """
    stress_t = temperature_stress(temperature_c, constants)
    if constants.cycle_stress_model == "linear":
        return sum(
            cycle.weight * cycle.depth * cycle.mean_soc * constants.k6 * stress_t
            for cycle in cycles
        )
    return sum(
        cycle.weight
        * depth_of_discharge_stress(cycle.depth, constants)
        * soc_stress(cycle.mean_soc, constants)
        * stress_t
        for cycle in cycles
    )


def linear_degradation(calendar: float, cycle: float) -> float:
    """Combined linear degradation ``D_L = D_cal + D_cyc`` (Eq. 3)."""
    if calendar < 0 or cycle < 0:
        raise ConfigurationError("degradation components cannot be negative")
    return calendar + cycle


def nonlinear_degradation(
    linear: float, constants: DegradationConstants = DEFAULT_CONSTANTS
) -> float:
    """Nonlinear (SEI-corrected) degradation ``D`` (Eq. 4).

    Monotone in ``D_L``, starts at 0 for a fresh battery, and saturates
    at 1.  The SEI term makes early degradation fast (film formation)
    before settling onto the slower exponential.
    """
    if linear < 0:
        raise ConfigurationError("linear degradation cannot be negative")
    a = constants.alpha_sei
    return 1.0 - a * math.exp(-constants.k_sei * linear) - (1.0 - a) * math.exp(-linear)


def invert_nonlinear_degradation(
    target: float,
    constants: DegradationConstants = DEFAULT_CONSTANTS,
    tolerance: float = 1e-12,
) -> float:
    """The ``D_L`` at which Eq. (4) reaches ``target`` (bisection inverse).

    Used to answer "how much linear degradation budget remains before
    end of life" when extrapolating lifespans.
    """
    if not 0.0 <= target < 1.0:
        raise ConfigurationError("target degradation must be in [0, 1)")
    if target == 0.0:
        return 0.0
    low, high = 0.0, 1.0
    while nonlinear_degradation(high, constants) < target:
        high *= 2.0
        if high > 1e6:
            raise ConfigurationError("target degradation unreachable")
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if nonlinear_degradation(mid, constants) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


@dataclass(frozen=True)
class DegradationBreakdown:
    """The decomposed degradation of one battery at one instant."""

    calendar: float
    cycle: float
    equivalent_full_cycles: float
    mean_cycle_depth: float
    mean_soc: float

    @property
    def linear(self) -> float:
        """``D_L`` of Eq. (3)."""
        return self.calendar + self.cycle

    def nonlinear(
        self, constants: DegradationConstants = DEFAULT_CONSTANTS
    ) -> float:
        """``D`` of Eq. (4)."""
        return nonlinear_degradation(self.linear, constants)


class DegradationModel:
    """Evaluates the full Eq. (1)-(4) pipeline from SoC histories.

    This is the gateway-side computation of Section III-B ("Computing
    Battery Degradation"): given a node's SoC trace, run rainflow, derive
    ``N_u``, ``δ_u``, ``φ_u``, ``η_u``, and combine with the battery age
    and temperature into the final nonlinear degradation.
    """

    def __init__(
        self, constants: DegradationConstants = DEFAULT_CONSTANTS
    ) -> None:
        self._constants = constants

    @property
    def constants(self) -> DegradationConstants:
        """The battery-specific constant set in use."""
        return self._constants

    def breakdown_from_soc_series(
        self,
        soc_series: Sequence[float],
        age_s: float,
        temperature_c: float = 25.0,
        fallback_mean_soc: Optional[float] = None,
    ) -> DegradationBreakdown:
        """Degradation breakdown from a raw SoC series.

        ``φ̄`` for the calendar term is the weighted mean of the counted
        cycles' average SoCs, per the paper's definition; if the series
        contains no cycles (e.g. a battery that was never touched),
        ``fallback_mean_soc`` (or the series mean) is used instead.
        """
        cycles = count_cycles(soc_series)
        efc, mean_depth, mean_soc = cycle_statistics(cycles)
        if not cycles:
            if fallback_mean_soc is not None:
                mean_soc = fallback_mean_soc
            elif len(soc_series):
                mean_soc = sum(soc_series) / len(soc_series)
            else:
                raise ConfigurationError("cannot degrade an empty SoC history")
        calendar = calendar_aging(age_s, temperature_c, mean_soc, self._constants)
        cycle = cycle_aging(cycles, temperature_c, self._constants)
        return DegradationBreakdown(
            calendar=calendar,
            cycle=cycle,
            equivalent_full_cycles=efc,
            mean_cycle_depth=mean_depth,
            mean_soc=mean_soc,
        )

    def breakdown_from_trace(
        self, trace: SocTrace, age_s: Optional[float] = None, temperature_c: float = 25.0
    ) -> DegradationBreakdown:
        """Degradation breakdown from a compressed :class:`SocTrace`."""
        if len(trace) == 0:
            raise ConfigurationError("cannot degrade an empty trace")
        effective_age = trace.duration_s if age_s is None else age_s
        return self.breakdown_from_soc_series(
            trace.turning_points,
            age_s=effective_age,
            temperature_c=temperature_c,
            fallback_mean_soc=trace.time_weighted_mean_soc(),
        )

    def degradation_from_trace(
        self, trace: SocTrace, age_s: Optional[float] = None, temperature_c: float = 25.0
    ) -> float:
        """Final nonlinear degradation ``D`` (Eq. 4) of a traced battery."""
        breakdown = self.breakdown_from_trace(trace, age_s, temperature_c)
        return breakdown.nonlinear(self._constants)

    def is_end_of_life(self, degradation: float) -> bool:
        """Whether ``degradation`` crosses the 20 % EoL threshold."""
        return degradation >= self._constants.eol_threshold

    def eol_linear_budget(self) -> float:
        """The ``D_L`` at which Eq. (4) hits the EoL threshold."""
        return invert_nonlinear_degradation(
            self._constants.eol_threshold, self._constants
        )

    def lifespan_from_linear_rate(self, linear_rate_per_s: float) -> float:
        """Extrapolated lifespan in seconds from a steady ``D_L`` rate.

        Under stationary operation ``D_L`` grows linearly (calendar ∝ ζ,
        cycles accrue at a constant rate), so the EoL crossing time is
        the linear budget divided by the observed rate.  Returns ``inf``
        for a zero rate.
        """
        if linear_rate_per_s < 0:
            raise ConfigurationError("degradation rate cannot be negative")
        if linear_rate_per_s == 0.0:
            return math.inf
        return self.eol_linear_budget() / linear_rate_per_s
