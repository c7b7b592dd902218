"""Tests for the per-node harvester."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import CloudProcess, Harvester, SolarModel
from repro.exceptions import ConfigurationError

NOON = 12 * 3600.0


def make_harvester(seed=1, shading=0.2, efficiency=0.85):
    model = SolarModel(peak_watts=1.0e-3, clouds=CloudProcess(seed=0))
    return Harvester(
        solar=model, node_seed=seed, shading_sigma=shading, efficiency=efficiency
    )


class TestHarvester:
    def test_night_yields_nothing(self):
        assert make_harvester().power_watts(0.0) == 0.0

    def test_daytime_yields_positive(self):
        assert make_harvester().power_watts(NOON) > 0.0

    def test_efficiency_scales_output(self):
        full = make_harvester(shading=0.0, efficiency=1.0)
        lossy = make_harvester(shading=0.0, efficiency=0.5)
        assert lossy.power_watts(NOON) == pytest.approx(
            full.power_watts(NOON) * 0.5
        )

    def test_nodes_with_different_seeds_vary(self):
        a = make_harvester(seed=1)
        b = make_harvester(seed=2)
        samples_a = [a.power_watts(NOON + i * 1800.0) for i in range(8)]
        samples_b = [b.power_watts(NOON + i * 1800.0) for i in range(8)]
        assert samples_a != samples_b

    def test_zero_shading_removes_variation(self):
        a = make_harvester(seed=1, shading=0.0)
        b = make_harvester(seed=2, shading=0.0)
        assert a.power_watts(NOON) == pytest.approx(b.power_watts(NOON))

    def test_shading_deterministic_per_node(self):
        a = make_harvester(seed=7)
        b = make_harvester(seed=7)
        assert a.power_watts(NOON) == pytest.approx(b.power_watts(NOON))

    def test_window_energy_consistent(self):
        h = make_harvester()
        assert h.window_energy_j(NOON, 60.0) == pytest.approx(
            h.power_watts(NOON + 30.0) * 60.0
        )

    def test_window_energies_length(self):
        assert len(make_harvester().window_energies(NOON, 60.0, 10)) == 10

    def test_shading_mean_near_one(self):
        h = make_harvester(seed=3, shading=0.2, efficiency=1.0)
        base = h.solar.power_watts(NOON)
        # Average shading over many independent grid cells ≈ 1.
        total = 0.0
        count = 200
        for i in range(count):
            total += h._shading_factor(i * h.shading_step_s)
        assert 0.85 < total / count < 1.15

    def test_rejects_bad_efficiency(self):
        model = SolarModel(peak_watts=1.0)
        with pytest.raises(ConfigurationError):
            Harvester(solar=model, efficiency=0.0)

    def test_rejects_negative_shading(self):
        model = SolarModel(peak_watts=1.0)
        with pytest.raises(ConfigurationError):
            Harvester(solar=model, shading_sigma=-0.1)


def reference_shading(node_seed, index, sigma, diet):
    """The shading factor through ``random.Random(seed).gauss``."""
    rng = random.Random((node_seed << 24) ^ index)
    value = min(1.5, math.exp(rng.gauss(-sigma**2 / 2.0, sigma)))
    return float(np.float32(value)) if diet else value


class TestShadingDraw:
    """``_shading_at`` inlines ``gauss``; it must keep its exact bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        node_seed=st.integers(min_value=0, max_value=10**9),
        index=st.integers(min_value=0, max_value=2**40),
        sigma=st.floats(min_value=1e-6, max_value=2.0),
        diet=st.booleans(),
    )
    def test_matches_random_gauss_expression(self, node_seed, index, sigma, diet):
        model = SolarModel(peak_watts=1.0)
        harvester = Harvester(
            solar=model, node_seed=node_seed, shading_sigma=sigma, diet=diet
        )
        expected = reference_shading(node_seed, index, sigma, diet)
        # Twice: the reused scratch generator must reseed fully.
        assert harvester._shading_at(index) == expected
        assert harvester._shading_at(index) == expected

    def test_interleaved_indices_match(self):
        harvester = make_harvester(seed=77, shading=0.4)
        for index in (5, 3, 5, 1 << 30, 0, 3):
            assert harvester._shading_at(index) == reference_shading(
                77, index, 0.4, False
            )
