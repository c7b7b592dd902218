"""Tests for the mesoscopic multi-year simulator."""

import random

import pytest

from repro.battery import DegradationModel
from repro.constants import SECONDS_PER_DAY
from repro.sim import (
    MesoscopicSimulator,
    SimulationConfig,
    mesoscopic_vec,
    resolve_window,
    run_mesoscopic,
)
from repro.sim.mesoscopic import MesoNode, WindowEntry
from repro.energy import CloudProcess
from repro.lora import LogDistanceLink


def meso_config(**overrides):
    defaults = dict(
        node_count=6,
        duration_s=2 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=500.0,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def make_entries(config, count, immediate=True):
    link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
    clouds = CloudProcess(seed=0)
    from repro.sim.topology import build_topology

    placements = build_topology(config.replace(node_count=count), link)
    entries = []
    for placement in placements:
        node = MesoNode(placement, config, clouds, link)
        entries.append(
            WindowEntry(
                node=node,
                immediate=immediate,
                window_index_in_period=0,
                period_start_s=0.0,
            )
        )
    return entries


class TestResolveWindow:
    def test_empty_entries(self):
        assert resolve_window([], 60.0, 1, 8, 8, random.Random(1)) == {}

    def test_single_entry_succeeds_first_attempt(self):
        config = meso_config()
        entries = make_entries(config, 1)
        outcomes = resolve_window(entries, 60.0, 1, 8, 8, random.Random(1))
        outcome = outcomes[entries[0].node.node_id]
        assert outcome.success
        assert outcome.attempts == 1

    def test_immediate_pair_on_one_channel_collides(self):
        config = meso_config()
        entries = make_entries(config, 2, immediate=True)
        # Equalize RSSI so capture cannot save either first attempt.
        for entry in entries:
            entry.node.rssi_by_gateway = [-90.0]
            entry.node.rssi_dbm = -90.0
        outcomes = resolve_window(entries, 60.0, 1, 8, 8, random.Random(2))
        assert all(o.attempts > 1 for o in outcomes.values())

    def test_randomized_offsets_mostly_avoid_collision(self):
        config = meso_config()
        collision_free = 0
        for seed in range(20):
            entries = make_entries(config, 2, immediate=False)
            outcomes = resolve_window(entries, 60.0, 1, 8, 8, random.Random(seed))
            if all(o.attempts == 1 for o in outcomes.values()):
                collision_free += 1
        assert collision_free >= 17  # airtime 0.24 s in a 60 s window

    def test_retransmissions_capped(self):
        config = meso_config()
        entries = make_entries(config, 4, immediate=True)
        for entry in entries:
            entry.node.rssi_by_gateway = [-90.0]
            entry.node.rssi_dbm = -90.0
        outcomes = resolve_window(entries, 60.0, 1, 8, 2, random.Random(3))
        assert all(o.attempts <= 3 for o in outcomes.values())

    def test_more_channels_fewer_collisions(self):
        config = meso_config()

        def total_attempts(channels, seed):
            entries = make_entries(config, 6, immediate=True)
            for entry in entries:
                entry.node.rssi_by_gateway = [-90.0]
                entry.node.rssi_dbm = -90.0
            outcomes = resolve_window(
                entries, 60.0, channels, 8, 8, random.Random(seed)
            )
            return sum(o.attempts for o in outcomes.values())

        one = sum(total_attempts(1, s) for s in range(5))
        eight = sum(total_attempts(8, s) for s in range(5))
        assert eight < one

    def test_omega_limit_fails_excess_concurrency(self):
        config = meso_config()
        entries = make_entries(config, 5, immediate=True)
        for entry in entries:
            entry.node.rssi_by_gateway = [-90.0]
            entry.node.rssi_dbm = -90.0
        outcomes = resolve_window(entries, 60.0, 8, 1, 0, random.Random(4))
        # ω = 1 and 5 simultaneous arrivals: at most a small minority win.
        assert sum(1 for o in outcomes.values() if o.success) <= 1


class TestMesoscopicRuns:
    def test_deterministic(self):
        config = meso_config().as_h(0.5)
        a = run_mesoscopic(config)
        b = run_mesoscopic(config)
        assert a.metrics.summary() == b.metrics.summary()

    def test_all_nodes_report(self):
        result = run_mesoscopic(meso_config().as_lorawan())
        assert len(result.metrics.nodes) == 6
        for node in result.metrics.nodes.values():
            assert node.packets_generated > 0

    def test_soc_cap_respected(self):
        config = meso_config().as_h(0.5)
        simulator = MesoscopicSimulator(config)
        simulator.run()
        for node in simulator.nodes.values():
            assert max(node.battery.trace.socs) <= 0.5 + 1e-6

    def test_linear_rates_positive(self):
        result = run_mesoscopic(meso_config().as_lorawan())
        assert all(rate > 0 for rate in result.linear_rates.values())

    def test_lifespan_extrapolation_positive_and_finite(self):
        result = run_mesoscopic(meso_config().as_lorawan())
        lifespan = result.network_lifespan_days()
        assert 100 < lifespan < 20000

    def test_network_lifespan_is_worst_node(self):
        result = run_mesoscopic(meso_config().as_lorawan())
        model = DegradationModel()
        per_node = [
            model.lifespan_from_linear_rate(rate) / SECONDS_PER_DAY
            for rate in result.linear_rates.values()
        ]
        assert result.network_lifespan_days() == pytest.approx(min(per_node))

    def test_max_degradation_at_grows_with_time(self):
        result = run_mesoscopic(meso_config().as_lorawan())
        year = 365.0 * SECONDS_PER_DAY
        assert result.max_degradation_at(2 * year) > result.max_degradation_at(year)


class TestPolicyComparisons:
    """The headline relative results, at smoke-test scale."""

    @pytest.fixture(scope="class")
    def results(self):
        config = meso_config(node_count=10, duration_s=3 * SECONDS_PER_DAY)
        return {
            "LoRaWAN": run_mesoscopic(config.as_lorawan()),
            "H-50": run_mesoscopic(config.as_h(0.5)),
        }

    def test_h50_extends_lifespan(self, results):
        assert (
            results["H-50"].network_lifespan_days()
            > results["LoRaWAN"].network_lifespan_days() * 1.2
        )

    def test_h50_reduces_retransmissions(self, results):
        assert (
            results["H-50"].metrics.avg_retransmissions
            < results["LoRaWAN"].metrics.avg_retransmissions
        )

    def test_h50_reduces_tx_energy(self, results):
        assert (
            results["H-50"].metrics.total_tx_energy_j
            < results["LoRaWAN"].metrics.total_tx_energy_j
        )

    def test_prr_not_sacrificed(self, results):
        assert results["H-50"].metrics.avg_prr >= results["LoRaWAN"].metrics.avg_prr


class TestSettleTo:
    """Edge cases of the sweep's chunked energy settle (``_settle_items``)."""

    class Settler:
        """One fresh node and the settle entry point the sweep uses."""

        def __init__(self, **overrides):
            sim = MesoscopicSimulator(meso_config(node_count=1, **overrides))
            self.node = next(iter(sim.nodes.values()))
            self.harvest = mesoscopic_vec._Harvest(sim)

        def settle_to(self, now_s, extra_demand_j=0.0):
            (shortfall,), _ = mesoscopic_vec._settle_items(
                [(self.node, now_s, extra_demand_j)],
                self.harvest,
                self.node.config.settle_chunk_s(),
            )
            return shortfall

    def test_zero_duration_is_noop(self):
        settler = self.Settler()
        node = settler.node
        settler.settle_to(3600.0)
        stored = node.battery.stored_j
        shortfall = settler.settle_to(3600.0)
        assert shortfall == 0.0
        assert node.settled_until_s == 3600.0
        assert node.battery.stored_j == stored

    def test_past_frontier_clamps(self):
        settler = self.Settler()
        node = settler.node
        settler.settle_to(7200.0)
        stored = node.battery.stored_j
        shortfall = settler.settle_to(100.0)
        assert shortfall == 0.0
        assert node.settled_until_s == 7200.0
        assert node.battery.stored_j == stored

    def test_same_instant_extra_demand_applies_directly(self):
        settler = self.Settler()
        node = settler.node
        settler.settle_to(3600.0)
        stored = node.battery.stored_j
        shortfall = settler.settle_to(3600.0, extra_demand_j=0.5)
        assert shortfall == 0.0
        assert node.battery.stored_j == pytest.approx(stored - 0.5)
        assert node.settled_until_s == 3600.0

    def test_same_instant_demand_beyond_charge_reports_shortfall(self):
        settler = self.Settler(initial_soc=0.01)
        node = settler.node
        stored = node.battery.stored_j
        shortfall = settler.settle_to(0.0, extra_demand_j=stored + 2.0)
        assert shortfall == pytest.approx(2.0)
        assert node.battery.stored_j == 0.0

    def test_extra_demand_lands_in_final_chunk_only(self):
        # Two nodes settle over the same span; one pays extra demand.
        # The difference must be exactly the extra joules (the switch
        # sees identical harvests, so green-energy accounting matches).
        plain = self.Settler()
        loaded = self.Settler()
        span = plain.node.config.window_s * 12.0  # several 5-window chunks
        plain.settle_to(span)
        loaded.settle_to(span, extra_demand_j=0.25)
        assert loaded.node.battery.stored_j == pytest.approx(
            plain.node.battery.stored_j - 0.25
        )

    def test_frontier_advances_monotonically(self):
        settler = self.Settler()
        node = settler.node
        for now in (600.0, 1800.0, 1200.0, 5400.0):
            settler.settle_to(now)
            assert node.settled_until_s >= now
        assert node.settled_until_s == 5400.0


class TestFaultPlanRejected:
    def test_non_empty_plan_raises(self):
        from repro.exceptions import ConfigurationError
        from repro.faults import FaultPlan

        config = meso_config(faults=FaultPlan(ack_loss_probability=0.2))
        with pytest.raises(ConfigurationError, match="exact engine"):
            MesoscopicSimulator(config)

    def test_w_u_ttl_raises(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="w_u_ttl_s needs the exact engine"):
            MesoscopicSimulator(meso_config(w_u_ttl_s=3600.0))

    def test_empty_plan_is_allowed(self):
        from repro.faults import FaultPlan

        plain = run_mesoscopic(meso_config(duration_s=0.25 * SECONDS_PER_DAY))
        empty = run_mesoscopic(
            meso_config(duration_s=0.25 * SECONDS_PER_DAY, faults=FaultPlan())
        )
        assert plain.metrics.summary() == empty.metrics.summary()


class TestNodeTemplates:
    def test_nodes_share_per_sf_constants_and_solar(self):
        sim = MesoscopicSimulator(meso_config(node_count=12, radius_m=5000.0))
        nodes = list(sim.nodes.values())
        assert all(node.harvester.solar is sim.solar for node in nodes)
        assert [node.row for node in nodes] == list(range(len(nodes)))
        by_sf = {}
        for node in nodes:
            by_sf.setdefault(node.tx_params.spreading_factor, []).append(node)
        for sf_nodes in by_sf.values():
            assert len({id(node.tx_params) for node in sf_nodes}) == 1

    def test_template_matches_per_node_derivation(self):
        config = meso_config()
        link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
        from repro.sim.mesoscopic import NodeTemplate
        from repro.sim.topology import build_topology

        placement = build_topology(config, link)[0]
        clouds = CloudProcess(seed=config.seed)
        own = MesoNode(placement, config, clouds, link)
        shared = MesoNode(
            placement,
            config,
            clouds,
            link,
            template=NodeTemplate(config, placement.spreading_factor),
        )
        for attr in ("airtime_s", "tx_energy_j", "attempt_energy_j", "sleep_watts"):
            assert getattr(own, attr) == getattr(shared, attr)
        assert own.battery.capacity_j == config.battery_capacity_j(
            placement.spreading_factor
        )
        assert own.battery.capacity_j == shared.battery.capacity_j
        assert (
            own.mac._selector.max_tx_energy_j
            == shared.mac._selector.max_tx_energy_j
            == config.max_tx_energy_j()
        )
