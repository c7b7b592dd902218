"""Tests for the synthetic solar model (NREL-trace substitute)."""

import pytest

from repro.constants import SECONDS_PER_DAY, SECONDS_PER_YEAR
from repro.energy import CloudProcess, SolarModel, clear_sky_factor
from repro.exceptions import ConfigurationError

NOON = 12 * 3600.0
MIDNIGHT = 0.0


class TestClearSkyFactor:
    def test_zero_at_night(self):
        assert clear_sky_factor(MIDNIGHT) == 0.0
        assert clear_sky_factor(23 * 3600.0) == 0.0

    def test_positive_at_noon(self):
        assert clear_sky_factor(NOON) > 0.5

    def test_peaks_at_solar_noon(self):
        values = [clear_sky_factor(h * 3600.0) for h in range(24)]
        assert max(values) == values[12]

    def test_bounded_in_unit_interval(self):
        for h in range(0, 24):
            for day in (0, 100, 200, 300):
                value = clear_sky_factor(day * SECONDS_PER_DAY + h * 3600.0)
                assert 0.0 <= value <= 1.0

    def test_seasonal_variation(self):
        # Mid-year noon is stronger than new-year noon.
        winter = clear_sky_factor(NOON)
        summer = clear_sky_factor(183 * SECONDS_PER_DAY + NOON)
        assert summer > winter

    def test_rejects_inverted_day(self):
        with pytest.raises(ConfigurationError):
            clear_sky_factor(NOON, sunrise_hour=19.0, sunset_hour=6.0)


class TestCloudProcess:
    def test_factor_in_unit_interval(self):
        clouds = CloudProcess(seed=1)
        for i in range(200):
            assert 0.0 < clouds.factor(i * 900.0) <= 1.0

    def test_deterministic_given_seed(self):
        a = CloudProcess(seed=5)
        b = CloudProcess(seed=5)
        assert [a.factor(i * 900.0) for i in range(50)] == [
            b.factor(i * 900.0) for i in range(50)
        ]

    def test_different_seeds_differ(self):
        a = CloudProcess(seed=1)
        b = CloudProcess(seed=2)
        assert [round(a.factor(i * 900.0), 6) for i in range(20)] != [
            round(b.factor(i * 900.0), 6) for i in range(20)
        ]

    def test_random_access_consistent_with_sequential(self):
        sequential = CloudProcess(seed=9)
        seq_values = [sequential.factor(i * 900.0) for i in range(100)]
        random_access = CloudProcess(seed=9)
        assert random_access.factor(99 * 900.0) == pytest.approx(seq_values[99])
        assert random_access.factor(42 * 900.0) == pytest.approx(seq_values[42])

    def test_autocorrelation_beats_white_noise(self):
        clouds = CloudProcess(seed=3)
        values = [clouds.factor(i * 900.0) for i in range(500)]
        mean = sum(values) / len(values)
        num = sum(
            (a - mean) * (b - mean) for a, b in zip(values, values[1:])
        )
        den = sum((v - mean) ** 2 for v in values)
        assert num / den > 0.5  # strongly persistent

    def test_mean_clearness_roughly_respected(self):
        clouds = CloudProcess(seed=11, mean_clearness=0.75)
        values = [clouds.factor(i * 900.0) for i in range(2000)]
        assert 0.5 < sum(values) / len(values) < 0.9

    def test_rejects_bad_persistence(self):
        with pytest.raises(ConfigurationError):
            CloudProcess(persistence=1.0)


class TestSolarModel:
    def test_zero_power_at_night(self):
        model = SolarModel(peak_watts=1.0)
        assert model.power_watts(MIDNIGHT) == 0.0

    def test_peak_bounded_by_rating(self):
        model = SolarModel(peak_watts=2.0)
        for h in range(24):
            assert model.power_watts(h * 3600.0) <= 2.0

    def test_clouds_attenuate(self):
        clear = SolarModel(peak_watts=1.0)
        cloudy = SolarModel(peak_watts=1.0, clouds=CloudProcess(seed=1))
        assert cloudy.power_watts(NOON) <= clear.power_watts(NOON)

    def test_window_energy_is_power_times_window(self):
        model = SolarModel(peak_watts=1.0)
        energy = model.window_energy_j(NOON, 60.0)
        assert energy == pytest.approx(model.power_watts(NOON + 30.0) * 60.0)

    def test_window_energies_convenience(self):
        model = SolarModel(peak_watts=1.0)
        energies = model.window_energies(NOON, 60.0, 5)
        assert len(energies) == 5
        assert energies[0] == pytest.approx(model.window_energy_j(NOON, 60.0))

    def test_scaled_for_transmissions_matches_paper_rule(self):
        # Peak power × window = 2 × E_tx (the paper's scaling).
        model = SolarModel.scaled_for_transmissions(
            tx_energy_j=0.034, window_s=60.0
        )
        assert model.peak_watts * 60.0 == pytest.approx(2 * 0.034)

    def test_daily_energy_positive_and_reasonable(self):
        model = SolarModel(peak_watts=1.0e-3)
        daily = sum(model.window_energies(0.0, 900.0, 96))
        # Half-sine over 12 h at 1 mW peak ≈ 27 J upper bound.
        assert 5.0 < daily < 35.0

    def test_rejects_non_positive_peak(self):
        with pytest.raises(ConfigurationError):
            SolarModel(peak_watts=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            SolarModel(peak_watts=1.0).window_energy_j(0.0, 0.0)
