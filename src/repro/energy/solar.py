"""Synthetic solar-generation model (NREL-trace substitute).

The paper drives its NS-3 evaluation with a year-long solar-power trace
from NREL's "Solar Power Data for Integration Studies" [26], scaled so
peak generation covers two transmissions, with random variation added to
emulate cloud cover and shading over the deployment area.  That dataset
is not available offline, so this module generates a statistically
similar trace: a deterministic clear-sky envelope (diurnal half-sine
modulated by a seasonal cycle) multiplied by an autocorrelated
cloud-cover process.  The substitution preserves what the protocol
feeds on — a strong day/night cycle, day-to-day variability, and
short-term fluctuations within a sampling period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..constants import SECONDS_PER_DAY, SECONDS_PER_YEAR
from ..exceptions import ConfigurationError
from .ar1 import CheckpointedAR1


def clear_sky_factor(
    time_s: float,
    sunrise_hour: float = 6.0,
    sunset_hour: float = 18.0,
    seasonal_amplitude: float = 0.25,
) -> float:
    """Normalized clear-sky irradiance in [0, 1] at absolute ``time_s``.

    Half-sine between sunrise and sunset, zero at night, scaled by a
    seasonal cosine (peak at mid-year, i.e. summer for a northern-
    hemisphere deployment).
    """
    if sunset_hour <= sunrise_hour:
        raise ConfigurationError("sunset must come after sunrise")
    hour = (time_s % SECONDS_PER_DAY) / 3600.0
    if not sunrise_hour <= hour <= sunset_hour:
        return 0.0
    day_fraction = (hour - sunrise_hour) / (sunset_hour - sunrise_hour)
    diurnal = math.sin(math.pi * day_fraction)
    year_fraction = (time_s % SECONDS_PER_YEAR) / SECONDS_PER_YEAR
    seasonal = 1.0 - seasonal_amplitude * math.cos(2.0 * math.pi * year_fraction)
    seasonal /= 1.0 + seasonal_amplitude  # normalize so the max is 1.0
    return diurnal * seasonal


def clear_sky_factor_batch(
    times_s: np.ndarray,
    sunrise_hour: float = 6.0,
    sunset_hour: float = 18.0,
    seasonal_amplitude: float = 0.25,
) -> np.ndarray:
    """Vectorized :func:`clear_sky_factor` over an array of times.

    Identical arithmetic, element for element (NumPy float64 elementwise
    ops round exactly like the scalar expressions; the ``sin``/``cos``
    evaluations may differ by at most 1 ulp from ``math.sin``/``cos``).
    The daylight mask keeps the scalar's *inclusive* sunrise/sunset
    bounds — ``hour == sunset`` yields the tiny nonzero ``sin(pi)``.
    """
    if sunset_hour <= sunrise_hour:
        raise ConfigurationError("sunset must come after sunrise")
    times = np.asarray(times_s, dtype=np.float64)
    hour = np.mod(times, SECONDS_PER_DAY) / 3600.0
    day_fraction = (hour - sunrise_hour) / (sunset_hour - sunrise_hour)
    diurnal = np.sin(math.pi * day_fraction)
    year_fraction = np.mod(times, SECONDS_PER_YEAR) / SECONDS_PER_YEAR
    seasonal = 1.0 - seasonal_amplitude * np.cos(2.0 * math.pi * year_fraction)
    seasonal /= 1.0 + seasonal_amplitude
    daylight = (hour >= sunrise_hour) & (hour <= sunset_hour)
    return np.where(daylight, diurnal * seasonal, 0.0)


@dataclass
class CloudProcess:
    """Autocorrelated multiplicative cloud attenuation in (0, 1].

    A mean-reverting AR(1) process sampled on a fixed grid (default
    15 min) and squashed to (0, 1]: persistent overcast spells and clear
    spells, like real cloud cover.  Deterministic given the seed, and
    *random-access*: ``factor(time_s)`` for any time without generating
    the whole year, by caching grid samples lazily.
    """

    seed: int = 0
    step_s: float = 900.0
    persistence: float = 0.95
    volatility: float = 0.35
    mean_clearness: float = 0.75

    #: Per-index factor memo is cleared past this size; accesses are near
    #: monotone, so recomputation after a clear stays O(1) amortized.
    FACTOR_CACHE_LIMIT = 16384

    def __post_init__(self) -> None:
        if not 0.0 <= self.persistence < 1.0:
            raise ConfigurationError("persistence must be in [0, 1)")
        if self.step_s <= 0:
            raise ConfigurationError("step must be positive")
        if not 0.0 < self.mean_clearness <= 1.0:
            raise ConfigurationError("mean_clearness must be in (0, 1]")
        # Checkpointed chain replaces the old every-index cache: memory is
        # O(indices/1024) and a time jump resumes from the last state or
        # nearest checkpoint instead of replaying from index 0.
        self._ar1 = CheckpointedAR1(
            self.seed << 20, self.persistence, self.volatility
        )
        # Logistic squash centred so the mean factor ≈ mean_clearness
        # (hoisted out of factor(): it only depends on mean_clearness).
        self._centre = math.log(
            self.mean_clearness / (1.0 - self.mean_clearness + 1e-9)
        )
        self._factor_cache: dict = {}
        # Contiguous factor array for the vectorized engines, covering
        # grid indices [_chain_base, _chain_base + len).  Values come
        # from the same scalar expression as factor(), so both caches
        # hold bit-identical floats for the same index.
        self._chain_arr: Optional[np.ndarray] = None
        self._chain_base = 0

    #: The contiguous chain is trimmed from the left past this length
    #: (≈3.7 simulated years at the default 15-min step).
    CHAIN_LIMIT = 131072

    def _state(self, index: int) -> float:
        """Latent AR(1) state at grid index (lazily computed, cached)."""
        return self._ar1.state(index)

    def factor(self, time_s: float) -> float:
        """Cloud attenuation factor at ``time_s``, in (0, 1]."""
        index = int(time_s // self.step_s)
        cached = self._factor_cache.get(index)
        if cached is None:
            cached = 1.0 / (1.0 + math.exp(-(self._ar1.state(index) + self._centre)))
            if len(self._factor_cache) >= self.FACTOR_CACHE_LIMIT:
                self._factor_cache.clear()
            self._factor_cache[index] = cached
        return cached

    def factors_batch(self, times_s: np.ndarray) -> np.ndarray:
        """Cloud factors for an array of times in one gather.

        Precomputes the AR(1)-driven factor chain in whole-day blocks
        into a contiguous array (the state chain is sequential, so a
        block extension is one ordered walk), then answers any batch of
        times with a single fancy-indexing gather.  Factors are computed
        with the exact scalar expression of :meth:`factor`.
        """
        times = np.asarray(times_s, dtype=np.float64)
        if times.size == 0:
            return np.empty(0, dtype=np.float64)
        indices = np.floor_divide(times, self.step_s).astype(np.int64)
        lo = int(indices.min())
        hi = int(indices.max())
        self._ensure_chain(lo, hi)
        return self._chain_arr[indices - self._chain_base]

    def _factor_at(self, index: int) -> float:
        """The scalar factor expression (shared by both cache paths)."""
        return 1.0 / (1.0 + math.exp(-(self._ar1.state(index) + self._centre)))

    def _ensure_chain(self, lo: int, hi: int) -> None:
        """Grow the contiguous chain to cover grid indices [lo, hi]."""
        per_day = max(1, int(SECONDS_PER_DAY // self.step_s))
        lo = (lo // per_day) * per_day
        hi = ((hi // per_day) + 1) * per_day - 1
        arr = self._chain_arr
        if arr is None:
            self._chain_base = lo
            self._chain_arr = np.array(
                [self._factor_at(i) for i in range(lo, hi + 1)]
            )
            return
        base = self._chain_base
        top = base + len(arr)  # exclusive
        parts = []
        if lo < base:
            # Rare backward jump (refresh after a long settle): the
            # checkpointed AR(1) rewinds, values are unchanged.
            parts.append(np.array([self._factor_at(i) for i in range(lo, base)]))
            self._chain_base = lo
        else:
            lo = base
        parts.append(arr)
        if hi >= top:
            parts.append(np.array([self._factor_at(i) for i in range(top, hi + 1)]))
        arr = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(arr) > self.CHAIN_LIMIT:
            # Accesses are near monotone; drop the stale left tail.
            keep = self.CHAIN_LIMIT // 2
            self._chain_base += len(arr) - keep
            arr = arr[-keep:]
        self._chain_arr = arr


@dataclass
class SolarModel:
    """Panel output power over time: envelope × clouds × peak rating.

    ``peak_watts`` is the panel's output at full clear-sky irradiance;
    the paper sizes it so a forecast window at peak collects enough
    energy for two transmissions (see
    :meth:`~SolarModel.scaled_for_transmissions`).
    """

    peak_watts: float = 1.0e-3
    sunrise_hour: float = 6.0
    sunset_hour: float = 18.0
    seasonal_amplitude: float = 0.25
    clouds: Optional[CloudProcess] = None

    #: Bounded memo sizes; cleared-and-rebuilt on overflow.  Instantaneous
    #: power is keyed per evaluation time (all nodes sharing this regional
    #: model hit the same window midpoints, so each unique time is
    #: computed once per deployment instead of once per node).
    POWER_CACHE_LIMIT = 131072
    WINDOW_CACHE_LIMIT = 4096

    #: Memo tables of pure functions: never pickled, rebuilt empty.
    _CACHES = ("_power_cache", "_window_cache")

    def __post_init__(self) -> None:
        if self.peak_watts <= 0:
            raise ConfigurationError("peak_watts must be positive")
        self._power_cache: dict = {}
        self._window_cache: dict = {}

    def __getstate__(self) -> dict:
        # Snapshots carry no memo table: each holds only pure-function
        # values and refills on demand.
        state = self.__dict__.copy()
        for name in self._CACHES:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Also empties the tables older snapshots still carry, and drops
        # their retired daily-energy table.
        self.__dict__.pop("_daily_cache", None)
        for name in self._CACHES:
            setattr(self, name, {})

    @classmethod
    def scaled_for_transmissions(
        cls,
        tx_energy_j: float,
        window_s: float,
        transmissions_per_window: float = 2.0,
        clouds: Optional[CloudProcess] = None,
        **kwargs,
    ) -> "SolarModel":
        """Panel sized as the paper prescribes.

        "The solar trace was scaled to generate, at peak power, enough
        energy to support two transmissions" — peak power is therefore
        ``transmissions_per_window × tx_energy / window``.
        """
        if tx_energy_j <= 0 or window_s <= 0:
            raise ConfigurationError("tx energy and window must be positive")
        peak = transmissions_per_window * tx_energy_j / window_s
        return cls(peak_watts=peak, clouds=clouds, **kwargs)

    def power_watts(self, time_s: float) -> float:
        """Instantaneous panel output power at ``time_s``."""
        cached = self._power_cache.get(time_s)
        if cached is not None:
            return cached
        envelope = clear_sky_factor(
            time_s,
            sunrise_hour=self.sunrise_hour,
            sunset_hour=self.sunset_hour,
            seasonal_amplitude=self.seasonal_amplitude,
        )
        if envelope == 0.0:
            power = 0.0
        else:
            cloud = self.clouds.factor(time_s) if self.clouds is not None else 1.0
            power = self.peak_watts * envelope * cloud
        if len(self._power_cache) >= self.POWER_CACHE_LIMIT:
            self._power_cache.clear()
        self._power_cache[time_s] = power
        return power

    def power_watts_batch(self, times_s: np.ndarray) -> np.ndarray:
        """Panel output for an array of times in one array expression.

        Matches :meth:`power_watts` element for element: the product
        order is ``(peak × envelope) × cloud``, and a zero envelope
        yields exactly ``0.0`` through the product (no mask needed).
        """
        times = np.asarray(times_s, dtype=np.float64)
        envelope = clear_sky_factor_batch(
            times,
            sunrise_hour=self.sunrise_hour,
            sunset_hour=self.sunset_hour,
            seasonal_amplitude=self.seasonal_amplitude,
        )
        power = self.peak_watts * envelope
        if self.clouds is not None:
            power = power * self.clouds.factors_batch(times)
        return power

    def window_energies_batch(
        self, start_s: float, window_s: float, count: int
    ) -> np.ndarray:
        """Vectorized :meth:`window_energies` (midpoint rule per window)."""
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        if count < 0:
            raise ConfigurationError("count cannot be negative")
        mids = (start_s + np.arange(count) * window_s) + window_s / 2.0
        return self.power_watts_batch(mids) * window_s

    def window_energy_j(self, start_s: float, window_s: float) -> float:
        """Energy harvested in ``[start, start+window)``, midpoint rule.

        The paper notes generation "remains mostly constant across a
        couple of seconds"; forecast windows are 1–2 minutes, over which
        a midpoint evaluation is accurate to well under the cloud noise.
        """
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        return self.power_watts(start_s + window_s / 2.0) * window_s

    def window_energies(
        self, start_s: float, window_s: float, count: int
    ) -> List[float]:
        """Energies for ``count`` consecutive windows from ``start_s``."""
        if count < 0:
            raise ConfigurationError("count cannot be negative")
        key = (start_s, window_s, count)
        cached = self._window_cache.get(key)
        if cached is None:
            cached = [
                self.window_energy_j(start_s + i * window_s, window_s)
                for i in range(count)
            ]
            if len(self._window_cache) >= self.WINDOW_CACHE_LIMIT:
                self._window_cache.clear()
            self._window_cache[key] = cached
        return list(cached)
