"""Tests for the MAC policies (LoRaWAN, H-θC, H-θ)."""

import random

import numpy as np
import pytest

from repro.core import (
    BatteryLifespanAwareMac,
    LorawanAlohaMac,
    PeriodContext,
    ThresholdOnlyMac,
    uniform_offset_in_window,
)
from repro.core.mac import batch_choose_windows_mixed
from repro.exceptions import ConfigurationError

E_TX = 0.06
E_MAX = 0.132


def context(battery=1.0, green=None, windows=10):
    return PeriodContext(
        battery_energy_j=battery,
        green_forecast_j=green if green is not None else [E_TX * 2] * windows,
        nominal_tx_energy_j=E_TX,
    )


def blam(theta=0.5, w_b=1.0, capacity=None):
    return BatteryLifespanAwareMac(
        soc_cap=theta,
        w_b=w_b,
        max_tx_energy_j=E_MAX,
        nominal_tx_energy_j=E_TX,
        battery_capacity_j=capacity,
    )


class TestLorawanAlohaMac:
    def test_always_window_zero(self):
        mac = LorawanAlohaMac()
        for green in ([0.0] * 10, [E_TX * 2] * 10):
            decision = mac.choose_window(context(green=green))
            assert decision.window_index == 0

    def test_full_soc_cap(self):
        assert LorawanAlohaMac().soc_cap == 1.0

    def test_name(self):
        assert LorawanAlohaMac().name == "LoRaWAN"

    def test_utility_of_immediate_tx_is_one(self):
        assert LorawanAlohaMac().choose_window(context()).utility == 1.0

    def test_rejects_empty_window_set(self):
        with pytest.raises(ConfigurationError):
            LorawanAlohaMac().choose_window(context(windows=0))


class TestThresholdOnlyMac:
    def test_caps_soc_but_transmits_immediately(self):
        mac = ThresholdOnlyMac(soc_cap=0.5)
        assert mac.soc_cap == 0.5
        assert mac.choose_window(context(green=[0.0] * 10)).window_index == 0

    def test_name_has_c_suffix(self):
        assert ThresholdOnlyMac(soc_cap=0.5).name == "H-50C"

    def test_rejects_bad_theta(self):
        with pytest.raises(ConfigurationError):
            ThresholdOnlyMac(soc_cap=0.0)


class TestBatteryLifespanAwareMac:
    def test_name_encodes_theta(self):
        assert blam(0.5).name == "H-50"
        assert blam(0.05).name == "H-5"
        assert blam(1.0).name == "H-100"

    def test_new_battery_has_zero_w(self):
        assert blam().normalized_degradation == 0.0

    def test_fresh_node_prioritizes_utility(self):
        """w_u = 0 → window 0 even when green energy is scarce."""
        mac = blam()
        decision = mac.choose_window(context(green=[0.0] * 9 + [E_TX * 2]))
        assert decision.window_index == 0

    def test_degraded_node_follows_green_energy(self):
        mac = blam()
        mac.set_normalized_degradation(1.0)
        green = [0.0] * 10
        green[4] = E_TX * 2
        decision = mac.choose_window(context(green=green))
        assert decision.window_index == 4

    def test_retx_history_pushes_node_off_crowded_window(self):
        """The collision-compensation mechanism of Section III-B."""
        mac = blam()
        mac.set_normalized_degradation(1.0)
        green = [0.0] * 10  # night: all DIFs equal → window 0 by default
        assert mac.choose_window(context(green=green)).window_index == 0
        # Window 0 turns out to be crowded: heavy retransmissions.
        for _ in range(5):
            mac.observe_result(0, 8, E_TX * 9)
        decision = mac.choose_window(context(green=green))
        assert decision.window_index != 0

    def test_energy_estimate_tracks_observations(self):
        mac = blam()
        before = mac.tx_energy_estimate_j
        mac.observe_result(0, 0, E_TX * 3)
        assert mac.tx_energy_estimate_j > before

    def test_fail_when_battery_and_forecast_empty(self):
        mac = blam()
        decision = mac.choose_window(context(battery=0.0, green=[0.0] * 10))
        assert not decision.success

    def test_capacity_cap_limits_banking(self):
        """θ·capacity bound forwarded into Algorithm 1's energy scan."""
        capped = blam(theta=0.5, capacity=E_TX)  # cap = 0.03 J
        green = [E_TX * 0.4] * 5
        decision = capped.choose_window(context(battery=0.0, green=green))
        assert not decision.success
        uncapped = blam(theta=0.5, capacity=None)
        assert uncapped.choose_window(context(battery=0.0, green=green)).success

    def test_set_normalized_degradation_validates(self):
        with pytest.raises(ConfigurationError):
            blam().set_normalized_degradation(1.5)

    def test_nominal_energy_seeds_estimator_lazily(self):
        mac = BatteryLifespanAwareMac(
            soc_cap=0.5, max_tx_energy_j=E_MAX, nominal_tx_energy_j=0.0
        )
        mac.choose_window(context())
        assert mac.tx_energy_estimate_j == pytest.approx(E_TX)


class TestBatchPerRowTimes:
    """``batch_choose_windows_mixed`` with one period start per row."""

    TTL = 100.0
    TIMES = [40.0, 100.0, 130.0, 250.0, 400.0, 700.0]
    COUNTS = [6, 4, 6, 5, 6, 3]

    def twins(self):
        """Two identical MAC sets holding a ``w_u`` received at t = 0."""
        sets = []
        for _ in range(2):
            macs = []
            for _ in self.TIMES:
                mac = BatteryLifespanAwareMac(
                    soc_cap=0.5,
                    max_tx_energy_j=E_MAX,
                    nominal_tx_energy_j=E_TX,
                    w_u_ttl_s=self.TTL,
                )
                mac.set_normalized_degradation(0.9, received_at_s=0.0)
                macs.append(mac)
            sets.append(macs)
        return sets

    def green(self):
        # Window 0 is dark and every later window sunny: a trusted w_u
        # steers away from window 0, a decayed one back toward it.
        green = np.full((len(self.TIMES), max(self.COUNTS)), E_TX * 2)
        green[:, 0] = 0.0
        return green

    def test_rows_match_scalar_decisions_across_the_ttl(self):
        batch_macs, scalar_macs = self.twins()
        green = self.green()
        result = batch_choose_windows_mixed(
            batch_macs,
            np.full(len(self.TIMES), E_TX * 2),
            green,
            [E_TX] * len(self.TIMES),
            self.COUNTS,
            self.TIMES,
        )
        stale = [scalar_macs[0].weight_is_stale(t) for t in self.TIMES]
        assert any(stale) and not all(stale)
        for i, (mac, now_s, count) in enumerate(
            zip(scalar_macs, self.TIMES, self.COUNTS)
        ):
            decision = mac.choose_window(
                PeriodContext(
                    battery_energy_j=E_TX * 2,
                    green_forecast_j=green[i, :count].tolist(),
                    nominal_tx_energy_j=E_TX,
                    period_start_s=now_s,
                )
            )
            assert bool(result.success[i]) == decision.success
            assert int(result.window_index[i]) == decision.window_index
            assert result.scores[i, :count].tolist() == decision.scores
            assert result.difs[i, :count].tolist() == decision.difs
        assert len(set(result.window_index.tolist())) > 1

    def test_scalar_time_equals_repeated_row_time(self):
        first, second = self.twins()
        args = (np.full(len(self.TIMES), E_TX), self.green(), [E_TX] * 6, self.COUNTS)
        one = batch_choose_windows_mixed(first, *args, 250.0)
        rows = batch_choose_windows_mixed(second, *args, [250.0] * 6)
        assert one.scores.tolist() == rows.scores.tolist()
        assert one.window_index.tolist() == rows.window_index.tolist()

    @pytest.mark.parametrize("now_s", [[0.0] * 5, [0.0] * 7, [[0.0] * 6]])
    def test_row_time_count_must_match_rows(self, now_s):
        macs, _ = self.twins()
        with pytest.raises(ConfigurationError):
            batch_choose_windows_mixed(
                macs,
                np.full(6, E_TX),
                self.green(),
                [E_TX] * 6,
                self.COUNTS,
                now_s,
            )


class TestUniformOffset:
    def test_offset_within_window_minus_airtime(self):
        rng = random.Random(1)
        for _ in range(100):
            offset = uniform_offset_in_window(60.0, 0.25, rng)
            assert 0.0 <= offset <= 60.0 - 0.25

    def test_rejects_airtime_exceeding_window(self):
        with pytest.raises(ConfigurationError):
            uniform_offset_in_window(1.0, 2.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            uniform_offset_in_window(0.0, 0.0)
