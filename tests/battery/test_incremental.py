"""Tests for the incremental (streaming) degradation accumulator.

The contract under test is *bit-identity*: every breakdown produced by
:class:`IncrementalDegradation` — and so every :class:`Battery` refresh
— must equal the batch recomputation exactly (``==`` on floats, no
tolerance).  See docs/PERFORMANCE.md.
"""

import contextlib
import random

import pytest

from repro.battery import (
    Battery,
    DegradationConstants,
    DegradationModel,
    IncrementalDegradation,
    cached_temperature_stress,
)
from repro.battery.degradation import temperature_stress
from repro.exceptions import BatteryDepletedError, ConfigurationError

XU = DegradationConstants()
LINEAR = DegradationConstants(cycle_stress_model="linear")


def _random_series(rng, length):
    """A clamped random-walk SoC series like a harvesting node produces."""
    soc = rng.uniform(0.3, 1.0)
    series = [soc]
    for _ in range(length - 1):
        soc += rng.uniform(-0.2, 0.2)
        soc = min(max(soc, 0.0), 1.0)
        series.append(soc)
    return series


class TestAccumulatorEquality:
    @pytest.mark.parametrize("constants", [XU, LINEAR], ids=["xu", "linear"])
    @pytest.mark.parametrize("temperature_c", [25.0, 40.0])
    def test_matches_batch_on_random_walks(self, constants, temperature_c):
        rng = random.Random(1234)
        model = DegradationModel(constants)
        for case in range(60):
            series = _random_series(rng, rng.randrange(2, 120))
            age_s = rng.uniform(3600.0, 3.0e7)
            inc = IncrementalDegradation(temperature_c, constants)
            for value in series:
                inc.push(value)
            batch = model.breakdown_from_soc_series(
                series, age_s=age_s, temperature_c=temperature_c
            )
            streaming = inc.breakdown(age_s=age_s)
            assert streaming == batch, f"case {case} diverged"

    def test_mid_stream_queries_match_batch_prefixes(self):
        # Querying must not consume state: every prefix of the stream
        # must agree with a batch run over that prefix.
        rng = random.Random(7)
        model = DegradationModel(XU)
        series = _random_series(rng, 80)
        inc = IncrementalDegradation(25.0, XU)
        for i, value in enumerate(series):
            inc.push(value)
            if i % 7 == 0 and i > 0:
                batch = model.breakdown_from_soc_series(
                    series[: i + 1], age_s=1.0e6, temperature_c=25.0
                )
                assert inc.breakdown(age_s=1.0e6) == batch

    def test_fallback_mean_soc_used_when_no_cycles(self):
        inc = IncrementalDegradation(25.0, XU)
        inc.push(0.8)  # one sample: no reversals, no cycles
        breakdown = inc.breakdown(age_s=1.0e6, fallback_mean_soc=0.8)
        batch = DegradationModel(XU).breakdown_from_soc_series(
            [0.8, 0.8], age_s=1.0e6, fallback_mean_soc=0.8
        )
        assert breakdown == batch
        assert breakdown.cycle == 0.0
        assert breakdown.mean_soc == 0.8

    def test_empty_history_without_fallback_raises(self):
        inc = IncrementalDegradation(25.0, XU)
        with pytest.raises(ConfigurationError):
            inc.breakdown(age_s=1.0e6)

    def test_query_at_other_temperature_rejected(self):
        # Eq. (2) terms already carry the construction temperature's
        # stress factor; silently mixing temperatures would be wrong.
        inc = IncrementalDegradation(25.0, XU)
        with pytest.raises(ConfigurationError):
            inc.breakdown(age_s=1.0, temperature_c=40.0)

    def test_closed_cycle_count_tracks_emissions(self):
        inc = IncrementalDegradation(25.0, XU)
        for value in [1.0, 0.2, 0.6, 0.4, 0.9]:
            inc.push(value)
        # 0.9 is still the provisional tail, so the inner 0.6/0.4 loop is
        # pending, not closed; the next reversal confirms it.
        assert inc.closed_cycle_count == 0
        inc.push(0.3)
        assert inc.closed_cycle_count == 1  # the 0.6/0.4 inner loop


class TestCachedTemperatureStress:
    def test_equals_direct_computation(self):
        for temp in (0.0, 25.0, 25.0, 40.0, 60.0):
            assert cached_temperature_stress(temp, XU) == temperature_stress(
                temp, XU
            )

    def test_distinct_constants_not_conflated(self):
        hot = DegradationConstants(k5=30.0)
        assert cached_temperature_stress(40.0, XU) == temperature_stress(40.0, XU)
        assert cached_temperature_stress(40.0, hot) == temperature_stress(40.0, hot)


class TestBatteryIntegration:
    """Each battery refresh equals the batch oracle on the same trace."""

    def _refresh_checked(self, battery):
        oracle = DegradationModel(battery.constants).breakdown_from_trace(
            battery.trace, age_s=battery.age_s, temperature_c=battery.temperature_c
        )
        degradation = battery.refresh_degradation()
        assert battery.last_breakdown == oracle
        assert degradation == oracle.nonlinear(battery.constants)
        return degradation

    def _exercise(self, battery, rng):
        now = 0.0
        checked = 0
        for _ in range(rng.randrange(20, 60)):
            now += rng.uniform(60.0, 3600.0)
            action = rng.random()
            if action < 0.45:
                with contextlib.suppress(BatteryDepletedError):
                    battery.discharge(rng.uniform(0.0, 8.0), now)
            elif action < 0.9:
                battery.charge(rng.uniform(0.0, 8.0), now)
            else:
                battery.settle(now)
            if rng.random() < 0.2:
                self._refresh_checked(battery)
                checked += 1
        self._refresh_checked(battery)
        return checked + 1

    @pytest.mark.parametrize("constants", [XU, LINEAR], ids=["xu", "linear"])
    def test_incremental_battery_equals_batch_battery(self, constants):
        for seed in range(25):
            battery = Battery(
                capacity_j=40.0,
                initial_soc=0.9,
                temperature_c=25.0,
                constants=constants,
            )
            assert self._exercise(battery, random.Random(seed)) >= 1

    def test_untouched_battery_refresh_matches(self):
        battery = Battery(capacity_j=10.0, initial_soc=0.7)
        battery.settle(3600.0)
        self._refresh_checked(battery)
