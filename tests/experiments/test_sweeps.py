"""Tests for parameter and policy sweeps as ``repro.sweep`` grids, and
for the record helpers the reducers share (``record_metric``,
``crossover``)."""

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments import (
    THETA_POLICIES,
    crossover,
    policy_grid,
    record_metric,
)
from repro.sim import SimulationConfig
from repro.sweep import RunRecord, build_grid, expand_axes, run_sweep


@pytest.fixture(scope="module")
def tiny_base():
    return SimulationConfig(
        node_count=5,
        duration_s=SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=300.0,
        seed=13,
    )


@pytest.fixture(scope="module")
def w_b_sweep(tiny_base):
    points = build_grid(
        expand_axes(tiny_base.as_h(0.5), [("w_b", [0.0, 1.0])]), [tiny_base.seed]
    )
    return points, run_sweep(points).records


class TestSweepParameter:
    def test_one_point_per_value(self, w_b_sweep):
        points, records = w_b_sweep
        assert [p.config.w_b for p in points] == [0.0, 1.0]
        assert [r.label for r in records] == ["w_b=0.0,seed=13", "w_b=1.0,seed=13"]
        for record in records:
            assert record.ok
            assert record.summary["avg_prr"] >= 0.0

    def test_metric_accessor(self, w_b_sweep):
        record = w_b_sweep[1][1]
        assert record_metric(record, "avg_prr") >= 0.0
        assert record_metric(record, "lifespan_days") > 0.0

    def test_unknown_metric_rejected(self, w_b_sweep):
        with pytest.raises(ConfigurationError):
            record_metric(w_b_sweep[1][1], "nope")

    def test_unknown_field_rejected(self, tiny_base):
        with pytest.raises(ConfigurationError):
            expand_axes(tiny_base, [("warp_factor", [1])])

    def test_empty_values_rejected(self, tiny_base):
        with pytest.raises(ConfigurationError):
            expand_axes(tiny_base, [("w_b", [])])


class TestSweepPolicies:
    def test_default_lineup(self, tiny_base):
        records = run_sweep(policy_grid(tiny_base, THETA_POLICIES)).records
        assert [r.policy for r in records] == ["LoRaWAN", "H-5", "H-50", "H-100"]
        assert records[0].label == "LoRaWAN,seed=13"

    def test_custom_lineup(self, tiny_base):
        points = build_grid([("only", tiny_base.as_h(0.25))], [tiny_base.seed])
        records = run_sweep(points).records
        assert [r.label for r in records] == ["only,seed=13"]
        assert records[0].policy == "H-25"

    def test_empty_lineup_rejected(self, tiny_base):
        with pytest.raises(ConfigurationError):
            build_grid([], [tiny_base.seed])
        with pytest.raises(ConfigurationError):
            policy_grid(tiny_base, ["H-42"])


class TestCrossover:
    def _records(self, values):
        return [
            RunRecord(
                index=i,
                label=f"x={i}",
                seed=1,
                policy="H-50",
                engine="meso",
                status="completed",
                config_hash="",
                lifespan_days=v,
            )
            for i, v in enumerate(values)
        ]

    def test_rising_crossover(self):
        records = self._records([1.0, 2.0, 3.0, 4.0])
        assert crossover(records, "lifespan_days", 2.5).label == "x=2"

    def test_falling_crossover(self):
        records = self._records([4.0, 3.0, 2.0, 1.0])
        assert crossover(records, "lifespan_days", 2.5).label == "x=2"

    def test_never_crosses(self):
        records = self._records([1.0, 1.1, 1.2])
        assert crossover(records, "lifespan_days", 10.0) is None

    def test_exact_hit_at_start(self):
        records = self._records([2.5, 3.0])
        assert crossover(records, "lifespan_days", 2.5).label == "x=0"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            crossover([], "lifespan_days", 1.0)

    def test_failed_record_refused(self):
        records = self._records([1.0, 2.0])
        records[1].status = "timeout"
        with pytest.raises(SimulationError, match="grid point 1 \\(x=1\\) is timeout"):
            crossover(records, "lifespan_days", 1.5)
