"""Tests for multi-seed replication statistics."""

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.exceptions import ConfigurationError
from repro.experiments import (
    compare_lifespans,
    summarize,
    summarize_replicates,
    t_critical_95,
)
from repro.sim import SimulationConfig
from repro.sweep import build_grid, run_sweep


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)

    def test_large_df_normal_limit(self):
        assert t_critical_95(200) == pytest.approx(1.96)

    def test_rejects_zero_df(self):
        with pytest.raises(ConfigurationError):
            t_critical_95(0)


class TestSummarize:
    def test_single_sample_zero_width(self):
        summary = summarize("x", [3.0])
        assert summary.mean == 3.0
        assert summary.half_width_95 == 0.0

    def test_mean_and_bounds(self):
        summary = summarize("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.low < 2.0 < summary.high

    def test_ci_shrinks_with_samples(self):
        narrow = summarize("x", [1.0, 2.0] * 10)
        wide = summarize("x", [1.0, 2.0])
        assert narrow.half_width_95 < wide.half_width_95

    def test_identical_samples_zero_width(self):
        summary = summarize("x", [5.0] * 8)
        assert summary.half_width_95 == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize("x", [])

    def test_str_rendering(self):
        assert "n=3" in str(summarize("x", [1.0, 2.0, 3.0]))


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig(
        node_count=6,
        duration_s=2 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=300.0,
    )


@pytest.fixture(scope="module")
def replicate_records(tiny_config):
    """LoRaWAN and H-50 over seeds 1-3, one grid: ``{policy: records}``."""
    variants = [("LoRaWAN", tiny_config.as_lorawan()), ("H-50", tiny_config.as_h(0.5))]
    records = run_sweep(build_grid(variants, [1, 2, 3])).records
    return {"LoRaWAN": records[:3], "H-50": records[3:]}


class TestRunReplicates:
    def test_one_result_per_seed(self, replicate_records):
        summary = summarize_replicates(replicate_records["LoRaWAN"])
        assert summary.seeds == [1, 2, 3]
        assert len(summary.records) == 3

    def test_lifespan_metric_included(self, replicate_records):
        summary = summarize_replicates(replicate_records["LoRaWAN"][:2])
        lifespan = summary.metric("lifespan_days")
        assert lifespan.mean > 0
        assert lifespan.samples == 2

    def test_seeds_produce_variation(self, replicate_records):
        summary = summarize_replicates(replicate_records["LoRaWAN"])
        lifespan = summary.metric("lifespan_days")
        assert lifespan.minimum < lifespan.maximum

    def test_unknown_metric_rejected(self, replicate_records):
        summary = summarize_replicates(replicate_records["LoRaWAN"][:1])
        with pytest.raises(ConfigurationError):
            summary.metric("nope")

    def test_rejects_empty_seed_list(self, tiny_config):
        with pytest.raises(ConfigurationError):
            summarize_replicates([])
        with pytest.raises(ConfigurationError):
            build_grid([("", tiny_config)], [])

    def test_rejects_mixed_records(self, replicate_records):
        lorawan, h50 = replicate_records["LoRaWAN"], replicate_records["H-50"]
        with pytest.raises(ConfigurationError, match="one record per seed"):
            summarize_replicates(lorawan + lorawan[:1])
        with pytest.raises(ConfigurationError, match="one policy"):
            summarize_replicates(lorawan[:1] + h50[1:2])


class TestCompareLifespans:
    def test_paired_gain_positive_for_h50(self, replicate_records):
        lorawan = summarize_replicates(replicate_records["LoRaWAN"])
        h50 = summarize_replicates(replicate_records["H-50"])
        gain = compare_lifespans(lorawan, h50)
        assert gain.mean > 0.2
        assert gain.samples == 3

    def test_pairs_by_seed_not_position(self, replicate_records):
        lorawan = summarize_replicates(replicate_records["LoRaWAN"])
        h50 = replicate_records["H-50"]
        forward = compare_lifespans(lorawan, summarize_replicates(h50))
        shuffled = compare_lifespans(lorawan, summarize_replicates(h50[::-1]))
        assert shuffled == forward

    def test_rejects_mismatched_seeds(self, replicate_records):
        a = summarize_replicates(replicate_records["LoRaWAN"][:1])
        b = summarize_replicates(replicate_records["H-50"][1:2])
        with pytest.raises(ConfigurationError):
            compare_lifespans(a, b)
