"""Tests for the EndDevice model."""

import random

import pytest

from repro.battery import Battery
from repro.core import BatteryLifespanAwareMac, LorawanAlohaMac, PeriodContext
from repro.energy import Harvester, OracleForecaster, SolarModel
from repro.lora import ChannelHopper, ChannelPlan, EnergyModel, SpreadingFactor, TxParams
from repro.sim import EndDevice, NodePlacement


def make_placement(period_s=600.0):
    return NodePlacement(
        node_id=0,
        x_m=100.0,
        y_m=0.0,
        distance_m=100.0,
        spreading_factor=SpreadingFactor.SF10,
        period_s=period_s,
        start_offset_s=0.0,
    )


def make_device(mac=None, soc=0.5, peak_watts=2.0e-3, capacity=12.0):
    params = TxParams()
    battery = Battery(capacity_j=capacity, initial_soc=soc)
    harvester = Harvester(
        solar=SolarModel(peak_watts=peak_watts), node_seed=1, shading_sigma=0.0
    )
    model = EnergyModel()
    mac = mac or LorawanAlohaMac()
    return EndDevice(
        placement=make_placement(),
        tx_params=params,
        battery=battery,
        harvester=harvester,
        forecaster=OracleForecaster(harvester),
        mac=mac,
        hopper=ChannelHopper(ChannelPlan().subset(1), rng=random.Random(1)),
        window_s=60.0,
        energy_model=model,
        rng=random.Random(1),
    )


NOON = 12 * 3600.0


def start_period(device, now_s):
    """One period start as the engine drives it: settle and forecast,
    the MAC's window decision, then booking; returns the first-attempt
    time (None on FAIL)."""
    forecast = device.begin_period(now_s)
    decision = device.mac.choose_window(
        PeriodContext(
            battery_energy_j=device.battery.stored_j,
            green_forecast_j=forecast,
            nominal_tx_energy_j=device.attempt_energy_j,
            period_start_s=now_s,
        )
    )
    return device.finish_period_decision(now_s, decision)


class TestEnergySettlement:
    def test_settle_at_night_drains_sleep_energy(self):
        device = make_device()
        before = device.battery.stored_j
        device.settle_to(3600.0)  # one midnight hour: no harvest
        drained = before - device.battery.stored_j
        expected = device.energy_model.power_profile.sleep_watts * 3600.0
        assert drained == pytest.approx(expected, rel=1e-6)

    def test_settle_during_day_charges_battery(self):
        device = make_device(soc=0.2)
        device.settle_to(NOON - 3600.0)
        before = device.battery.stored_j
        device.settle_to(NOON + 3600.0)
        assert device.battery.stored_j > before

    def test_soc_cap_respected_while_charging(self):
        mac = BatteryLifespanAwareMac(
            soc_cap=0.5, max_tx_energy_j=0.132, nominal_tx_energy_j=0.057
        )
        device = make_device(mac=mac, soc=0.4)
        device.settle_to(NOON + 2 * 3600.0)
        assert device.battery.soc <= 0.5 + 1e-9

    def test_settle_backwards_raises(self):
        device = make_device()
        device.settle_to(100.0)
        from repro.exceptions import InvariantError

        with pytest.raises(InvariantError):
            device.settle_to(50.0)

    def test_settle_with_handed_layout_and_powers_matches_scalar(self):
        handed, scalar = make_device(soc=0.2), make_device(soc=0.2)
        now = NOON + 90.0
        layout = handed.settle_chunks(now)
        powers = [
            handed.harvester.power_watts(start + duration / 2.0)
            for start, _, duration in zip(*layout)
        ]
        handed.settle_to(now, powers, layout)
        scalar.settle_to(now)
        assert handed.battery.stored_j == scalar.battery.stored_j
        assert handed.battery.trace.socs == scalar.battery.trace.socs

    def test_settle_rejects_powers_of_another_count(self):
        from repro.exceptions import InvariantError

        device = make_device()
        layout = device.settle_chunks(600.0)
        with pytest.raises(InvariantError):
            device.settle_to(600.0, [0.0] * (len(layout[1]) - 1), layout)
        with pytest.raises(InvariantError):
            device.settle_to(600.0, [0.0] * (len(layout[1]) + 1))
        assert device.battery.trace.last_time == 0.0

    def test_settle_rejects_a_layout_of_another_settle(self):
        from repro.exceptions import InvariantError

        device = make_device()
        stale = device.settle_chunks(600.0)
        device.settle_to(120.0)
        # Laid out before the settle to 120 s: it starts at 0 s.
        with pytest.raises(InvariantError):
            device.settle_to(600.0, [0.0] * len(stale[1]), stale)
        # Laid out for another instant: it ends short of 900 s.
        with pytest.raises(InvariantError):
            early = device.settle_chunks(600.0)
            device.settle_to(900.0, [0.0] * len(early[1]), early)
        # An empty layout cannot settle across a chunk.
        with pytest.raises(InvariantError):
            device.settle_to(900.0, [], ([], [], []))
        assert device.battery.trace.last_time == 120.0

    def test_draw_attempt_energy_success(self):
        device = make_device(soc=0.5)
        before = device.battery.stored_j
        assert device.draw_attempt_energy(1.0) is True
        # The draw settles 1 s of sleep (midnight, no harvest) plus the
        # attempt energy itself.
        sleep = device.energy_model.power_profile.sleep_watts * 1.0
        assert before - device.battery.stored_j == pytest.approx(
            device.attempt_energy_j + sleep, rel=1e-6
        )

    def test_draw_attempt_energy_brownout(self):
        device = make_device(soc=0.0)
        assert device.draw_attempt_energy(1.0) is False


class TestPeriodProtocol:
    def test_lorawan_transmits_at_period_start(self):
        device = make_device()
        attempt_time = start_period(device, 0.0)
        assert attempt_time == 0.0  # pure ALOHA: immediately
        assert device.packet is not None
        assert device.metrics.packets_generated == 1

    def test_blam_randomizes_offset_within_window(self):
        mac = BatteryLifespanAwareMac(
            soc_cap=0.5, max_tx_energy_j=0.132, nominal_tx_energy_j=0.057
        )
        device = make_device(mac=mac)
        attempt_time = start_period(device, NOON)
        window = device.packet.decision.window_index
        window_start = NOON + window * 60.0
        assert window_start <= attempt_time <= window_start + 60.0

    def test_mac_fail_drops_packet(self):
        mac = BatteryLifespanAwareMac(
            soc_cap=0.05, max_tx_energy_j=0.132, nominal_tx_energy_j=0.057
        )
        device = make_device(mac=mac, soc=0.0)
        # Midnight: no green energy, no battery → FAIL.
        assert start_period(device, 0.0) is None
        assert device.packet is None
        assert device.metrics.packets_dropped_energy == 1

    def test_finish_packet_delivery_updates_metrics(self):
        device = make_device()
        start_period(device, 0.0)
        device.packet.tx_energy_metric_j = 0.03
        report = device.finish_packet(2.0, delivered=True, latency_s=2.0)
        assert device.metrics.packets_delivered == 1
        assert device.metrics.avg_latency_s == pytest.approx(2.0)
        assert report is not None
        assert device.packet is None

    def test_finish_packet_failure_penalizes_period(self):
        device = make_device()
        start_period(device, 0.0)
        device.finish_packet(40.0, delivered=False, latency_s=600.0)
        assert device.metrics.packets_delivered == 0
        assert device.metrics.avg_latency_s == pytest.approx(600.0)

    def test_pending_report_consumed_once(self):
        device = make_device()
        start_period(device, 0.0)
        device.finish_packet(2.0, delivered=True, latency_s=2.0)
        assert device.take_pending_report() is not None
        assert device.take_pending_report() is None

    def test_windows_per_period(self):
        assert make_device().windows_per_period == 10
