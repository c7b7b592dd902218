"""End-to-end fault injection: determinism, counters, graceful degradation.

These are the robustness acceptance tests: a run under a fault plan must
complete, be bit-identical across repeats, surface per-fault counters in
its metrics, and degrade delivery gracefully rather than collapse.
"""

import pytest

from repro.faults import BurstLoss, FaultPlan, GatewayOutage, NodeReboot
from repro.sim import SimulationConfig, Simulator, run_simulation


def small_config(**overrides):
    defaults = dict(
        node_count=5,
        duration_s=6 * 3600.0,
        period_range_s=(600.0, 600.0),
        radius_m=100.0,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def canonical_plan(duration_s):
    """20 % ACK loss + a mid-run gateway outage + one node reboot."""
    return FaultPlan(
        ack_loss_probability=0.2,
        gateway_outages=(
            GatewayOutage(start_s=duration_s / 3.0, duration_s=1800.0),
        ),
        node_reboots=(NodeReboot(node_id=0, time_s=duration_s / 2.0),),
    )


class TestDeterminismRegression:
    """Satellite: same seed → identical metrics, with and without faults."""

    def test_fault_free_run_is_reproducible(self):
        config = small_config().as_h(0.5)
        assert (
            run_simulation(config).metrics.summary()
            == run_simulation(config).metrics.summary()
        )

    def test_faulted_run_is_bit_identical(self):
        config = small_config(
            faults=canonical_plan(6 * 3600.0), w_u_ttl_s=3600.0
        ).as_h(0.5)
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.metrics.summary() == b.metrics.summary()
        assert a.fault_counters.as_dict() == b.fault_counters.as_dict()

    def test_empty_plan_identical_to_no_plan(self):
        # The injector must not perturb the simulator's RNG streams.
        without = run_simulation(small_config().as_h(0.5))
        with_empty = run_simulation(small_config(faults=FaultPlan()).as_h(0.5))
        assert without.metrics.summary() == {
            k: v
            for k, v in with_empty.metrics.summary().items()
            if not k.startswith("fault_")
        }
        assert with_empty.fault_counters.total == 0

    def test_fault_seed_decouples_from_simulation_seed(self):
        # Same fault seed, different sim seeds: different outcomes are
        # fine, but both must still complete and count faults.
        plan = FaultPlan(ack_loss_probability=0.3, seed=99)
        for seed in (1, 2):
            result = run_simulation(small_config(seed=seed, faults=plan).as_h(0.5))
            assert result.fault_counters.acks_lost > 0


class TestAcceptanceScenario:
    """The ISSUE's acceptance run: lossy ACKs + outage + reboot."""

    @pytest.fixture(scope="class")
    def faulted(self):
        config = small_config(
            faults=canonical_plan(6 * 3600.0), w_u_ttl_s=3600.0
        ).as_h(0.5)
        return run_simulation(config)

    @pytest.fixture(scope="class")
    def fault_free(self):
        return run_simulation(small_config(w_u_ttl_s=3600.0).as_h(0.5))

    def test_run_completes_and_counts_each_fault_kind(self, faulted):
        counters = faulted.fault_counters
        assert counters.acks_lost > 0
        assert counters.uplinks_lost_outage > 0
        assert counters.node_reboots == 1

    def test_counters_surface_in_metrics_summary(self, faulted):
        summary = faulted.metrics.summary()
        assert summary["fault_acks_lost"] == faulted.fault_counters.acks_lost
        assert (
            summary["fault_node_reboots"] == faulted.fault_counters.node_reboots
        )

    def test_delivery_degrades_gracefully(self, faulted, fault_free):
        # 20 % ACK loss with 8 retries plus a 30-minute outage in a
        # 6-hour run must not cost more than 25 % delivery.
        assert faulted.metrics.avg_prr >= fault_free.metrics.avg_prr - 0.25
        assert faulted.metrics.avg_prr > 0.5

    def test_lost_acks_show_up_as_retransmissions(self, faulted, fault_free):
        assert (
            faulted.metrics.avg_retransmissions
            > fault_free.metrics.avg_retransmissions
        )

    def test_rebooted_node_recovers_a_fresh_weight(self, faulted):
        node0 = faulted.metrics.nodes[0]
        assert node0.reboots == 1
        # The node keeps delivering after its reboot.
        assert node0.prr > 0.5

    def test_fault_free_config_reports_no_counters(self, fault_free):
        assert fault_free.fault_counters is None
        assert not any(
            k.startswith("fault_") for k in fault_free.metrics.summary()
        )


class TestStaleWeightPath:
    def test_total_ack_loss_exhausts_retry_budgets(self):
        config = small_config(
            faults=FaultPlan(ack_loss_probability=1.0),
            w_u_ttl_s=1800.0,
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.retries_exhausted > 0
        assert result.metrics.avg_retransmissions > 0

    def test_stale_periods_fire_once_weights_age_out(self):
        duration = 12 * 3600.0
        config = small_config(
            duration_s=duration,
            faults=FaultPlan(
                gateway_outages=(
                    GatewayOutage(start_s=duration / 4.0, duration_s=duration / 2.0),
                ),
            ),
            w_u_ttl_s=1800.0,
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.stale_weight_periods > 0


class TestRebootSemantics:
    def test_reboot_wipes_node_weight(self):
        duration = 6 * 3600.0
        config = small_config(
            duration_s=duration,
            faults=FaultPlan(node_reboots=(NodeReboot(0, duration - 900.0),)),
        ).as_h(0.5)
        simulator = Simulator(config)
        booted = {node_id: node.mac for node_id, node in simulator.nodes.items()}
        result = simulator.run()
        assert result.fault_counters.node_reboots == 1
        assert result.metrics.nodes[0].reboots == 1
        # Node 0 runs on a fresh MAC since its reboot; the others do not.
        assert simulator.nodes[0].mac is not booted[0]
        assert all(
            simulator.nodes[node_id].mac is mac
            for node_id, mac in booted.items()
            if node_id != 0
        )

    def test_reboot_after_end_never_fires(self):
        config = small_config(
            faults=FaultPlan(node_reboots=(NodeReboot(0, 1e9),))
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.node_reboots == 0


class TestOtherFaultDimensions:
    def test_burst_loss_runs_and_counts(self):
        config = small_config(
            faults=FaultPlan(ack_burst=BurstLoss(0.1, 0.5))
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.acks_lost > 0

    def test_clock_skew_displaces_attempts(self):
        config = small_config(faults=FaultPlan(clock_skew_s=5.0)).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.skewed_attempts > 0

    def test_forecast_corruption_counts(self):
        config = small_config(
            faults=FaultPlan(forecast_corruption_sigma=0.5)
        ).as_h(0.5)
        result = run_simulation(config)
        assert result.fault_counters.forecasts_corrupted > 0

    def test_lorawan_policy_survives_faults_too(self):
        config = small_config(
            faults=canonical_plan(6 * 3600.0)
        ).as_lorawan()
        result = run_simulation(config)
        assert result.fault_counters.node_reboots == 1
        assert result.metrics.avg_prr > 0.0
