"""Tests for an optional engine feature: the forecaster choice."""

import pytest

from repro.energy import NoisyForecaster, OracleForecaster, PersistenceForecaster
from repro.sim import SimulationConfig, Simulator, build_forecaster, run_simulation
from repro.exceptions import ConfigurationError


def small_config(**overrides):
    defaults = dict(
        node_count=4,
        duration_s=6 * 3600.0,
        period_range_s=(600.0, 600.0),
        radius_m=100.0,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestForecasterSelection:
    def build(self, **overrides):
        config = small_config(**overrides)
        simulator = Simulator(config.as_h(0.5))
        return next(iter(simulator.nodes.values())).forecaster

    def test_default_is_oracle(self):
        assert isinstance(self.build(), OracleForecaster)

    def test_sigma_implies_noisy(self):
        assert isinstance(self.build(forecast_sigma=0.2), NoisyForecaster)

    def test_explicit_noisy(self):
        forecaster = self.build(forecaster="noisy")
        assert isinstance(forecaster, NoisyForecaster)
        assert forecaster.sigma > 0

    def test_persistence(self):
        assert isinstance(
            self.build(forecaster="persistence"), PersistenceForecaster
        )

    def test_unknown_forecaster_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(forecaster="crystal-ball")

    def test_persistence_network_functional(self):
        """The no-oracle forecaster still sustains the protocol."""
        config = small_config(
            forecaster="persistence", duration_s=12 * 3600.0
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.metrics.avg_prr > 0.8
