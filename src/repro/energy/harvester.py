"""Per-node energy harvester with spatial variation.

All nodes in a deployment share the same regional weather, but the paper
adds "random variations ... to emulate cloud cover and shades occurring
over the deployment area".  :class:`Harvester` wraps a shared
:class:`~repro.energy.solar.SolarModel` with a node-specific,
autocorrelated multiplicative shading factor, so two nodes see correlated
but not identical generation.
"""

from __future__ import annotations

import _random
import math
import threading
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..kernels import shading as _kshading
from .solar import SolarModel

#: Each thread's scratch generator for :meth:`Harvester._shading_at`.
#: Every draw fully reseeds it, so no harvester needs generator state of
#: its own; one per thread means no other thread can reseed it between a
#: seed and its two draws.
_SCRATCH = threading.local()


@dataclass
class Harvester:
    """A node's green-energy source.

    Parameters
    ----------
    solar:
        The shared regional solar model.
    node_seed:
        Seed for the node's local shading process; nodes with different
        seeds see independent local variation on top of shared weather.
    shading_sigma:
        Log-scale standard deviation of the local variation (0 disables).
    shading_step_s:
        Grid on which the local variation is resampled (autocorrelation
        scale for shades moving across a node).
    efficiency:
        Harvesting-path efficiency (MPPT/regulator losses).

    A harvester holds no generator: shading draws reseed the calling
    thread's scratch generator (``_SCRATCH`` in this module).
    """

    solar: SolarModel
    node_seed: int = 0
    shading_sigma: float = 0.2
    shading_step_s: float = 1800.0
    efficiency: float = 0.85
    #: Memory-diet mode: shading factors are rounded through float32
    #: (both cache paths, so the scalar and vectorized engines still
    #: agree bitwise) and the scalar cache shrinks.
    diet: bool = False

    _cache: dict = field(default_factory=dict, init=False, repr=False)
    #: Private one-row shading table behind :meth:`shading_factors_batch`
    #: (the vectorized engine gathers through its own cohort table).
    _table: Optional[_kshading.ShadingTable] = field(
        default=None, init=False, repr=False
    )

    #: Slots of the private table: a 128 h forecast at the 2-h diet grid.
    TABLE_WIDTH = 64
    #: Scalar-path cache cap (diet keeps a much smaller dict).
    CACHE_LIMIT = 4096
    DIET_CACHE_LIMIT = 512
    #: Diet-mode shading grid: local variation is resampled every 2 h
    #: instead of every 30 min.  Each factor costs a seeded RNG draw, so
    #: the coarser grid cuts the dominant per-node-day cost of very
    #: large topologies 4x; shades then move across a node on the
    #: 2-hour scale (a documented diet approximation).
    DIET_SHADING_STEP_S = 7200.0

    def __post_init__(self) -> None:
        if self.shading_sigma < 0:
            raise ConfigurationError("shading_sigma cannot be negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        if self.shading_step_s <= 0:
            raise ConfigurationError("shading_step_s must be positive")
        if self.diet:
            self.shading_step_s = max(self.shading_step_s, self.DIET_SHADING_STEP_S)
        self._cache_limit = self.DIET_CACHE_LIMIT if self.diet else self.CACHE_LIMIT

    def __getstate__(self) -> dict:
        # Snapshots do not carry the cache table: it is rebuilt on
        # demand and holds only pure-function values.
        state = self.__dict__.copy()
        state["_table"] = None
        return state

    def _shading_factor(self, time_s: float) -> float:
        """Node-local multiplicative variation, mean ≈ 1, clipped to [0, 1.5]."""
        if self.shading_sigma == 0.0:
            return 1.0
        index = int(time_s // self.shading_step_s)
        cached = self._cache.get(index)
        if cached is None:
            cached = self._shading_at(index)
            if len(self._cache) > self._cache_limit:
                self._cache.clear()
            self._cache[index] = cached
        return cached

    def _shading_at(self, index: int) -> float:
        """The scalar shading expression (shared by both cache paths).

        In diet mode the value is rounded through float32 before use, so
        the scalar cache and the float32 shading tables hold the exact
        same number and both engines keep agreeing bitwise.
        """
        rng = getattr(_SCRATCH, "rng", None)
        if rng is None:
            rng = _SCRATCH.rng = _random.Random()
        # ``random.Random(seed).gauss(mu, σ)`` inlined: the C-level seed
        # (what ``Random.seed`` does for an int, minus resetting the spare
        # Gaussian this path never reads) and one Box–Muller draw with
        # ``gauss``'s exact expression and operand order.
        rng.seed((self.node_seed << 24) ^ index)
        draw = rng.random
        x2pi = draw() * math.tau
        g2rad = math.sqrt(-2.0 * math.log(1.0 - draw()))
        sigma = self.shading_sigma
        value = min(
            1.5, math.exp(-sigma**2 / 2.0 + (math.cos(x2pi) * g2rad) * sigma)
        )
        if self.diet:
            return float(np.float32(value))
        return value

    def shading_factors_batch(self, times_s: np.ndarray) -> np.ndarray:
        """Shading factors for an array of times in one gather.

        The factor is a pure function of its grid index, so any caching
        policy is free; the gather runs through a private one-row
        :class:`~repro.kernels.shading.ShadingTable`, with entries
        computed by the exact scalar expression of
        :meth:`_shading_factor` on a miss.
        """
        times = np.asarray(times_s, dtype=np.float64)
        if self.shading_sigma == 0.0:
            return np.ones(times.shape)
        if times.size == 0:
            return np.empty(0, dtype=np.float64)
        indices = np.floor_divide(times, self.shading_step_s).astype(np.int64)
        if self._table is None:
            self._table = _kshading.ShadingTable([self], self.TABLE_WIDTH)
        return _kshading.gather(self._table, indices, 0)

    def power_watts(self, time_s: float) -> float:
        """Instantaneous harvested (post-regulator) power for this node.

        Zero panel output makes the product that zero whatever the
        shading factor, so at night no factor is drawn or cached (as in
        :meth:`window_energies` and the engines' batched harvest).
        """
        solar = self.solar.power_watts(time_s)
        if solar == 0.0:
            return solar
        return solar * self._shading_factor(time_s) * self.efficiency

    def power_watts_batch(
        self,
        times_s: np.ndarray,
        solar_powers: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`power_watts` with the same product order.

        ``solar_powers`` lets a caller that already evaluated the shared
        :meth:`SolarModel.power_watts_batch` for these times (e.g. once
        per node batch) skip the duplicate envelope/cloud work.
        """
        times = np.asarray(times_s, dtype=np.float64)
        power = (
            self.solar.power_watts_batch(times)
            if solar_powers is None
            else solar_powers
        )
        return (power * self.shading_factors_batch(times)) * self.efficiency

    def window_energy_j(self, start_s: float, window_s: float) -> float:
        """Actual energy ``E^g_u[t]`` harvested in one forecast window."""
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        return self.power_watts(start_s + window_s / 2.0) * window_s

    def window_energies(
        self, start_s: float, window_s: float, count: int
    ) -> List[float]:
        """Actual energies for ``count`` consecutive forecast windows.

        Inlined hot path of the per-period forecasts: one bound-method
        lookup per batch and a night short-circuit (zero panel output
        makes the whole product exactly ``0.0``, so the shading draw and
        multiplications are skipped; the shading factor is a pure
        function of its grid index, so skipping it cannot perturb later
        values).
        """
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        solar_power = self.solar.power_watts
        shading = self._shading_factor
        efficiency = self.efficiency
        half = window_s / 2.0
        energies: List[float] = []
        append = energies.append
        for i in range(count):
            mid = start_s + i * window_s + half
            power = solar_power(mid)
            if power == 0.0:
                append(0.0)
            else:
                append(power * shading(mid) * efficiency * window_s)
        return energies

    def window_energies_batch(
        self,
        start_s: float,
        window_s: float,
        count: int,
        solar_powers: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`window_energies`.

        Element values match the scalar loop: the product order is
        ``((power × shading) × efficiency) × window``, and zero panel
        output propagates to an exact ``0.0``.  ``solar_powers`` is the
        optional precomputed shared-solar vector for these midpoints.
        """
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        if count < 0:
            raise ConfigurationError("count cannot be negative")
        mids = (start_s + np.arange(count) * window_s) + window_s / 2.0
        return self.power_watts_batch(mids, solar_powers=solar_powers) * window_s
