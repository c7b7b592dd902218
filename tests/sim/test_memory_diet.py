"""Tests for the ``memory_profile="diet"`` multi-year memory diet.

Diet mode trades bounded, documented approximations (coarser settle
chunks and shading grid, float32 shading) for flat memory: compact SoC
traces, capped memo/caches, and counter-only packet logs outside
``sample_nodes``.  Within one profile, runs stay deterministic and
tracing changes no result.
"""

import dataclasses

import numpy as np
import pytest

from repro.constants import SECONDS_PER_DAY
from repro.energy import SolarModel
from repro.energy.harvester import Harvester
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.kernels.shading import ShadingTable
from repro.sim import SimulationConfig, Simulator, run_mesoscopic, run_simulation
from repro.sim.mesoscopic_vec import shading_table_width


def diet_config(**overrides):
    defaults = dict(
        node_count=12,
        duration_s=1 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        memory_profile="diet",
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestExactEngineRejectsDiet:
    def test_simulator_raises(self):
        with pytest.raises(ConfigurationError, match="mesoscopic engine"):
            Simulator(diet_config(node_count=3))

    def test_run_simulation_raises_with_a_fault_plan(self):
        config = diet_config(node_count=3, faults=FaultPlan(ack_loss_probability=0.2))
        with pytest.raises(ConfigurationError, match="mesoscopic engine"):
            run_simulation(config)


class TestConfigKnobs:
    def test_default_profile_is_exact(self):
        config = SimulationConfig(node_count=4)
        assert config.memory_profile == "exact"
        assert not config.diet
        assert config.settle_chunk_s() == config.window_s * 5.0

    def test_diet_settle_chunk_floor(self):
        config = diet_config()
        assert config.diet
        assert config.settle_chunk_s() == max(config.window_s * 5.0, 7200.0)

    def test_diet_with_long_windows_keeps_exact_chunking(self):
        config = diet_config(
            window_s=3600.0, period_range_s=(8 * 3600.0, 12 * 3600.0)
        )
        assert config.settle_chunk_s() == 3600.0 * 5.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(node_count=4, memory_profile="slim")

    def test_sample_nodes_validated_against_node_count(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(node_count=4, sample_nodes=(0, 9))

    def test_effective_sample_nodes(self):
        assert SimulationConfig(node_count=4).effective_sample_nodes() is None
        assert diet_config().effective_sample_nodes() == frozenset()
        assert diet_config(sample_nodes=(1, 3)).effective_sample_nodes() == {1, 3}

    def test_diet_implies_compact_trace(self):
        assert diet_config().effective_compact_trace()


class TestHarvesterDiet:
    def test_diet_coarsens_shading_grid(self):
        solar = SolarModel()
        exact = Harvester(solar=solar, node_seed=3)
        diet = Harvester(solar=solar, node_seed=3, diet=True)
        assert exact.shading_step_s == 1800.0
        assert diet.shading_step_s == 7200.0
        # The diet grid needs fewer table slots per node, stored float32.
        periods = dict(period_range_s=(960.0, 3600.0))
        exact_width = shading_table_width(
            diet_config(memory_profile="exact", **periods), exact.shading_step_s
        )
        diet_width = shading_table_width(diet_config(**periods), diet.shading_step_s)
        assert diet_width < exact_width
        assert ShadingTable([diet], 8).values.dtype == np.float32
        assert ShadingTable([exact], 8).values.dtype == np.float64

    def test_scalar_and_batch_paths_agree_bitwise(self):
        harvester = Harvester(solar=SolarModel(), node_seed=5, diet=True)
        times = np.arange(0.0, 5 * SECONDS_PER_DAY, 3600.0)
        batch = harvester.shading_factors_batch(times)
        scalar = np.array([harvester._shading_factor(t) for t in times])
        assert np.array_equal(batch, scalar)


class TestDietRuns:
    def test_packet_log_keeps_counters_only(self):
        result = run_mesoscopic(diet_config(record_packets=True))
        log = result.packet_log
        assert log is not None
        assert len(log) == 0
        assert log.generated > 0
        assert log.unsampled == log.generated
        assert 0 < log.delivered <= log.generated

    def test_sample_nodes_keep_full_rows(self):
        result = run_mesoscopic(
            diet_config(record_packets=True, sample_nodes=(0,))
        )
        log = result.packet_log
        assert len(log) > 0
        assert all(r.node_id == 0 for r in log)
        assert log.generated > len(log)

    def test_diet_tracing_changes_no_result(self):
        def fingerprint(result):
            return {
                nid: dataclasses.astuple(m)
                for nid, m in sorted(result.metrics.nodes.items())
            }

        traced = run_mesoscopic(diet_config(trace=True))
        untraced = run_mesoscopic(diet_config())
        assert fingerprint(traced) == fingerprint(untraced)

    def test_diet_stays_physically_sane(self):
        exact = run_mesoscopic(diet_config(memory_profile="exact"))
        diet = run_mesoscopic(diet_config())
        # Coarser settle/shading grids are a documented approximation:
        # results need not be bit-identical to exact, but the network
        # behaviour must stay in family.
        assert diet.metrics.avg_prr == pytest.approx(
            exact.metrics.avg_prr, abs=0.05
        )
        assert diet.metrics.max_degradation == pytest.approx(
            exact.metrics.max_degradation, rel=0.2
        )
