"""Tests for the Battery state machine."""

import pytest

from repro.battery import Battery, DegradationConstants
from repro.exceptions import (
    BatteryDepletedError,
    BatteryEndOfLifeError,
    ConfigurationError,
)


def make_battery(capacity=10.0, soc=0.5):
    return Battery(capacity_j=capacity, initial_soc=soc)


class TestConstruction:
    def test_initial_state(self):
        battery = make_battery()
        assert battery.soc == pytest.approx(0.5)
        assert battery.stored_j == pytest.approx(5.0)
        assert battery.degradation == 0.0
        assert not battery.is_end_of_life

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_j=0.0)

    def test_rejects_bad_initial_soc(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_j=1.0, initial_soc=1.2)

    def test_initial_age_offsets_zeta(self):
        battery = Battery(capacity_j=1.0, initial_age_s=1000.0)
        assert battery.age_s == 1000.0


class TestChargeDischarge:
    def test_charge_accepts_up_to_capacity(self):
        battery = make_battery()
        accepted = battery.charge(100.0, now_s=1.0)
        assert accepted == pytest.approx(5.0)
        assert battery.soc == pytest.approx(1.0)

    def test_charge_respects_soc_cap(self):
        battery = make_battery(soc=0.4)
        accepted = battery.charge(100.0, now_s=1.0, soc_cap=0.5)
        assert accepted == pytest.approx(1.0)
        assert battery.soc == pytest.approx(0.5)

    def test_charge_above_cap_accepts_nothing(self):
        battery = make_battery(soc=0.8)
        assert battery.charge(1.0, now_s=1.0, soc_cap=0.5) == 0.0
        assert battery.soc == pytest.approx(0.8)

    def test_discharge_reduces_stored(self):
        battery = make_battery()
        battery.discharge(2.0, now_s=1.0)
        assert battery.stored_j == pytest.approx(3.0)

    def test_discharge_beyond_stored_raises(self):
        battery = make_battery()
        with pytest.raises(BatteryDepletedError):
            battery.discharge(6.0, now_s=1.0)

    def test_negative_energy_rejected(self):
        battery = make_battery()
        with pytest.raises(ConfigurationError):
            battery.charge(-1.0, now_s=1.0)
        with pytest.raises(ConfigurationError):
            battery.discharge(-1.0, now_s=1.0)

    def test_time_cannot_move_backwards(self):
        battery = make_battery()
        battery.settle(10.0)
        with pytest.raises(ConfigurationError):
            battery.settle(5.0)


class TestTraceIntegration:
    def test_operations_recorded_in_trace(self):
        battery = make_battery()
        battery.charge(2.0, now_s=1.0)
        battery.discharge(3.0, now_s=2.0)
        assert battery.trace.last_soc == pytest.approx(battery.soc)
        assert battery.trace.last_time == 2.0

    def test_trace_compresses_monotone_discharge(self):
        battery = make_battery(soc=1.0)
        for i in range(1, 50):
            battery.discharge(0.1, now_s=float(i))
        assert len(battery.trace) <= 3


class TestDegradation:
    def test_refresh_after_cycling_is_positive(self):
        battery = make_battery(soc=1.0)
        for day in range(30):
            battery.discharge(5.0, now_s=day * 86400.0 + 43200.0)
            battery.charge(5.0, now_s=(day + 1) * 86400.0)
        degradation = battery.refresh_degradation()
        assert 0 < degradation < 0.05

    def test_capacity_shrinks_with_degradation(self):
        battery = make_battery(soc=1.0)
        for day in range(30):
            battery.discharge(5.0, now_s=day * 86400.0 + 43200.0)
            battery.charge(5.0, now_s=(day + 1) * 86400.0)
        battery.refresh_degradation()
        assert battery.current_max_capacity_j < battery.capacity_j

    def test_stored_clipped_to_degraded_capacity(self):
        constants = DegradationConstants()
        battery = Battery(capacity_j=10.0, initial_soc=1.0, constants=constants)
        # Age the battery hard via a long idle period at full SoC.
        battery.settle(10 * 365 * 86400.0)
        battery.refresh_degradation()
        assert battery.stored_j <= battery.current_max_capacity_j + 1e-9

    def test_eol_raises_when_requested(self):
        battery = Battery(capacity_j=10.0, initial_soc=1.0)
        battery.settle(30 * 365 * 86400.0)  # Decades idle at high SoC.
        with pytest.raises(BatteryEndOfLifeError):
            battery.refresh_degradation(raise_on_eol=True)
        assert battery.is_end_of_life

    def test_breakdown_available_after_refresh(self):
        battery = make_battery()
        battery.settle(86400.0)
        battery.refresh_degradation()
        assert battery.last_breakdown is not None
        assert battery.last_breakdown.calendar > 0

    def test_low_soc_storage_degrades_slower(self):
        year = 365 * 86400.0
        high = Battery(capacity_j=10.0, initial_soc=0.95)
        high.settle(year)
        low = Battery(capacity_j=10.0, initial_soc=0.3)
        low.settle(year)
        assert high.refresh_degradation() > low.refresh_degradation()
