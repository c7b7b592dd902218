"""Packet utility (data-usefulness) functions.

The paper defines a packet's utility as "an indicator of the data
usefulness at transmission time": a monotonically decreasing function of
the delay between the packet's generation and its transmission, reaching
0 by the time the next packet arrives.  Eq. (16) is the linear instance

.. math::  μ_u = \\frac{τ_u - t}{τ_u}

where ``t`` is the forecast-window index of the transmission within the
sampling period of ``τ_u`` windows.  The system designer may choose other
functions per node; we provide the linear one used in the evaluation plus
exponential and step variants, all behind one small interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..exceptions import ConfigurationError


class UtilityFunction(Protocol):
    """Maps a transmission window index to a utility value in [0, 1]."""

    def __call__(self, window_index: int, windows_per_period: int) -> float:
        ...


def _validate(window_index: int, windows_per_period: int) -> None:
    if windows_per_period < 1:
        raise ConfigurationError("windows_per_period must be >= 1")
    if window_index < 0:
        raise ConfigurationError("window_index cannot be negative")


@dataclass(frozen=True)
class LinearUtility:
    """Eq. (16): utility decays linearly from 1 to 0 across the period.

    ``μ(t) = (τ − t) / τ``; window 0 (transmit immediately) has utility
    1, and a packet still unsent when the next one arrives has utility 0.
    """

    def __call__(self, window_index: int, windows_per_period: int) -> float:
        _validate(window_index, windows_per_period)
        if window_index >= windows_per_period:
            return 0.0
        return (windows_per_period - window_index) / windows_per_period


@dataclass(frozen=True)
class ExponentialUtility:
    """Utility decays exponentially with a configurable half life.

    ``μ(t) = exp(−λ t)`` with λ chosen so utility halves every
    ``half_life_windows`` windows.  Suits applications where freshness
    matters a lot early and much less later (e.g. alarm-ish telemetry).
    """

    half_life_windows: float = 4.0

    def __post_init__(self) -> None:
        if self.half_life_windows <= 0:
            raise ConfigurationError("half_life_windows must be positive")

    def __call__(self, window_index: int, windows_per_period: int) -> float:
        _validate(window_index, windows_per_period)
        if window_index >= windows_per_period:
            return 0.0
        rate = math.log(2.0) / self.half_life_windows
        return math.exp(-rate * window_index)


@dataclass(frozen=True)
class StepUtility:
    """Full utility inside a grace interval, linear decay after.

    Models the paper's remark that "if the utility of the packet does not
    change significantly between the interval [0, L]" the node may pick
    any window in [0, L] freely: utility is 1 for windows below
    ``grace_windows`` and decays linearly to 0 afterwards.
    """

    grace_windows: int = 2

    def __post_init__(self) -> None:
        if self.grace_windows < 0:
            raise ConfigurationError("grace_windows cannot be negative")

    def __call__(self, window_index: int, windows_per_period: int) -> float:
        _validate(window_index, windows_per_period)
        if window_index >= windows_per_period:
            return 0.0
        if window_index <= self.grace_windows:
            return 1.0
        remaining = windows_per_period - self.grace_windows
        return (windows_per_period - window_index) / remaining


def utilities_vector(
    utility_fn: UtilityFunction, windows_per_period: int
) -> np.ndarray:
    """Utility of every window index ``0..τ-1`` as one array.

    The linear Eq. (16) case is computed as an array expression whose
    integer-exact division matches the scalar call bit for bit; other
    utility functions are evaluated per index (still the scalar floats).
    """
    if windows_per_period < 1:
        raise ConfigurationError("windows_per_period must be >= 1")
    if isinstance(utility_fn, LinearUtility):
        t = np.arange(windows_per_period)
        return (windows_per_period - t) / windows_per_period
    return np.array(
        [utility_fn(t, windows_per_period) for t in range(windows_per_period)]
    )


def average_utility(utilities: list) -> float:
    """Mean utility of a set of packets (0 for the empty set).

    The paper's avg-utility metric penalizes failed packets with utility
    0, so callers should include zeros for dropped packets.
    """
    if not utilities:
        return 0.0
    total = 0.0
    for value in utilities:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"utility {value} outside [0, 1]")
        total += value
    return total / len(utilities)
