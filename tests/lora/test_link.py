"""Tests for the log-distance propagation / link-budget model."""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.lora import (
    LogDistanceLink,
    SpreadingFactor,
    TxParams,
    free_space_path_loss_db,
    noise_floor_dbm,
)


class TestFreeSpacePathLoss:
    def test_reference_value_at_1m_915mhz(self):
        # FSPL(1 m, 915 MHz) ≈ 31.7 dB
        assert free_space_path_loss_db(1.0, 915e6) == pytest.approx(31.7, abs=0.2)

    def test_plus_20db_per_decade(self):
        assert free_space_path_loss_db(100.0, 915e6) - free_space_path_loss_db(
            10.0, 915e6
        ) == pytest.approx(20.0)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ConfigurationError):
            free_space_path_loss_db(0.0, 915e6)


class TestNoiseFloor:
    def test_125khz_floor(self):
        # -174 + 10log10(125e3) + 6 ≈ -117.0 dBm
        assert noise_floor_dbm(125e3) == pytest.approx(-117.03, abs=0.1)

    def test_wider_band_raises_floor(self):
        assert noise_floor_dbm(500e3) > noise_floor_dbm(125e3)


class TestLogDistanceLink:
    def test_path_loss_increases_with_distance(self):
        link = LogDistanceLink()
        assert link.path_loss_db(2000.0) > link.path_loss_db(1000.0)

    def test_path_loss_slope_matches_exponent(self):
        link = LogDistanceLink(path_loss_exponent=3.0)
        delta = link.path_loss_db(10_000.0) - link.path_loss_db(1000.0)
        assert delta == pytest.approx(30.0)

    def test_clamps_below_reference_distance(self):
        link = LogDistanceLink(reference_distance_m=1.0)
        assert link.path_loss_db(0.5) == pytest.approx(link.path_loss_db(1.0))

    def test_rssi_is_tx_minus_loss(self):
        link = LogDistanceLink()
        loss = link.path_loss_db(500.0)
        assert link.rssi_dbm(14.0, 500.0) == pytest.approx(14.0 - loss)

    def test_shadowing_changes_samples(self):
        link = LogDistanceLink(shadowing_sigma_db=4.0, rng=random.Random(1))
        samples = {
            round(link.path_loss_db(1000.0, sample_shadowing=True), 6)
            for _ in range(10)
        }
        assert len(samples) > 1

    def test_no_shadowing_is_deterministic(self):
        link = LogDistanceLink()
        a = link.path_loss_db(1000.0, sample_shadowing=True)
        b = link.path_loss_db(1000.0, sample_shadowing=True)
        assert a == b

    def test_rejects_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            LogDistanceLink(path_loss_exponent=0.5)


class TestReceivability:
    def test_close_node_receivable_far_node_not(self):
        link = LogDistanceLink(path_loss_exponent=3.0)
        params = TxParams(spreading_factor=SpreadingFactor.SF7)
        assert link.is_receivable(params, 100.0)
        assert not link.is_receivable(params, 50_000.0)

    def test_higher_sf_reaches_farther(self):
        # SF7's link budget ends near 3.2 km, SF12's near 9.5 km.
        link = LogDistanceLink(path_loss_exponent=3.0)
        base = TxParams()
        assert not link.is_receivable(base.with_spreading_factor(SpreadingFactor.SF7), 5000.0)
        assert link.is_receivable(base.with_spreading_factor(SpreadingFactor.SF12), 5000.0)

    def test_sf12_covers_paper_deployment_radius(self):
        # The paper deploys nodes up to 5 km from the gateway; with the
        # large-scale config's exponent the highest SF must reach that.
        link = LogDistanceLink(path_loss_exponent=3.0)
        params = TxParams(spreading_factor=SpreadingFactor.SF12)
        assert link.is_receivable(params, 5000.0, antenna_gain_db=3.0)

    def test_antenna_gain_extends_range(self):
        # At SF10 the budget ends near 6.5 km, or 10.3 km with 6 dB gain.
        link = LogDistanceLink(path_loss_exponent=3.0)
        params = TxParams()
        assert not link.is_receivable(params, 8000.0)
        assert link.is_receivable(params, 8000.0, antenna_gain_db=6.0)
