"""Streaming degradation against the batch oracle, on both engines.

Every ``Battery`` refreshes Eq. (1)-(4) from its streaming rainflow
accumulator.  Here each ``refresh_degradation()`` a run makes is
checked against :meth:`DegradationModel.breakdown_from_trace` over the
same battery's full SoC trace — ``==`` on floats, no tolerance — on
the exact engine, every fault-sweep point and the mesoscopic engine.
Compaction must be off for that: the oracle needs every turning point.
A second group checks that compacting the traces (which only the
streaming path allows) leaves every result unchanged, on both engines.
See docs/PERFORMANCE.md for why bit-identity is achievable.
"""

import pytest

from repro.battery import Battery, DegradationModel
from repro.battery.soc_trace import SocTrace
from repro.constants import SECONDS_PER_DAY
from repro.experiments import scenarios
from repro.sim import SimulationConfig, run_mesoscopic, run_simulation


@pytest.fixture
def checked_refreshes(monkeypatch):
    """Wrap ``Battery.refresh_degradation`` so every refresh is compared
    with the batch oracle; returns the list of checked refreshes."""
    refresh = Battery.refresh_degradation
    checked = []

    def checked_refresh(battery, raise_on_eol=False):
        oracle = DegradationModel(battery.constants).breakdown_from_trace(
            battery.trace, age_s=battery.age_s, temperature_c=battery.temperature_c
        )
        degradation = refresh(battery, raise_on_eol)
        assert battery.last_breakdown == oracle
        assert degradation == oracle.nonlinear(battery.constants)
        checked.append(battery.now_s)
        return degradation

    monkeypatch.setattr(Battery, "refresh_degradation", checked_refresh)
    return checked


def _run_checked(config, runner, checked):
    """Run ``config`` with every refresh checked against the oracle."""
    assert not config.effective_compact_trace()
    before = len(checked)
    result = runner(config)
    assert len(checked) > before, "no refresh was checked"
    return result


def _node_state(result):
    """Per-node degradation figures that must match exactly."""
    return {
        node_id: (
            metrics.degradation,
            metrics.cycle_aging,
            metrics.calendar_aging,
        )
        for node_id, metrics in result.metrics.nodes.items()
    }


def _assert_equal_runs(first, second, include_lifespan=False):
    assert _node_state(first) == _node_state(second)
    assert first.metrics.summary() == second.metrics.summary()
    if include_lifespan:
        assert first.linear_rates == second.linear_rates
        assert first.network_lifespan_days() == second.network_lifespan_days()


def _policy(base, policy):
    return {
        "lorawan": base.as_lorawan(),
        "h": base.as_h(0.5),
        "hc": base.as_hc(0.5),
    }[policy]


class TestExactEngineEquality:
    @pytest.mark.parametrize("policy", ["lorawan", "h", "hc"])
    def test_testbed_scenario(self, policy, checked_refreshes):
        base = scenarios.testbed_base().replace(node_count=6, duration_s=6 * 3600.0)
        _run_checked(_policy(base, policy), run_simulation, checked_refreshes)

    def test_fault_sweep_scenario(self, checked_refreshes):
        # Every point of the robustness sweep, canonical stress plan
        # included: faults reshape the SoC traces (retries, outages,
        # reboots), so equality here covers the gnarliest histories.
        base = scenarios.testbed_base().replace(node_count=5, duration_s=6 * 3600.0)
        for config in scenarios.fault_sweep(base).values():
            _run_checked(config, run_simulation, checked_refreshes)


class TestMesoscopicEngineEquality:
    @pytest.mark.parametrize("policy", ["lorawan", "h", "hc"])
    def test_policies(self, policy, checked_refreshes):
        base = SimulationConfig(
            node_count=10, duration_s=3.0 * SECONDS_PER_DAY, seed=11
        )
        _run_checked(_policy(base, policy), run_mesoscopic, checked_refreshes)


class TestCompactionInvariance:
    """Forced trace compaction changes no result on either engine."""

    def _compare(self, monkeypatch, config, runner, include_lifespan):
        # Each refresh's fallback mean SoC, which compaction must keep
        # even where no result reads it (a battery with closed cycles).
        means = []
        refresh = Battery.refresh_degradation

        def logged_refresh(battery, raise_on_eol=False):
            means.append(battery.trace.time_weighted_mean_soc())
            return refresh(battery, raise_on_eol)

        monkeypatch.setattr(Battery, "refresh_degradation", logged_refresh)
        full = runner(config)
        full_means = list(means)
        means.clear()
        compacted = []
        compact_tail = SocTrace.compact_tail

        def counted_compact_tail(trace, keep_last=2):
            compacted.append(len(trace))
            compact_tail(trace, keep_last)

        monkeypatch.setattr(
            SimulationConfig, "effective_compact_trace", lambda self: True
        )
        monkeypatch.setattr(SocTrace, "compact_tail", counted_compact_tail)
        _assert_equal_runs(runner(config), full, include_lifespan)
        assert means == full_means
        # Compaction ran after a mid-run refresh and dropped points.
        assert compacted and max(compacted) > 2

    def test_exact_engine(self, monkeypatch):
        config = scenarios.testbed_base().replace(
            node_count=4, duration_s=2.0 * SECONDS_PER_DAY
        ).as_h(0.5)
        self._compare(monkeypatch, config, run_simulation, include_lifespan=False)

    def test_mesoscopic_engine(self, monkeypatch):
        config = SimulationConfig(
            node_count=8, duration_s=2.0 * SECONDS_PER_DAY, seed=5
        ).as_h(0.5)
        self._compare(monkeypatch, config, run_mesoscopic, include_lifespan=True)


class TestPerformanceConfigValidation:
    def test_defaults(self):
        # Compaction follows the horizon (and the diet profile), sparing
        # the nodes sample_nodes names.
        short = SimulationConfig(node_count=5, duration_s=3600.0)
        assert not short.effective_compact_trace()
        assert not short.compaction_rule()(0)
        long = short.replace(duration_s=180 * SECONDS_PER_DAY)
        assert long.effective_compact_trace()
        assert long.compaction_rule()(0)
        sampled = long.replace(sample_nodes=(1,)).compaction_rule()
        assert sampled(0) and not sampled(1)
