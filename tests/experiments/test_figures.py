"""Tests for the per-figure grids and reducers (tiny configurations).

These tests run each figure's grid once on a deliberately small
scenario, reduce its records with every figure that reads them, and
assert the paper's qualitative shapes — who wins, monotonicity, series
lengths — not absolute values.
"""

import inspect
import json

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.core import BatteryLifespanAwareMac
from repro.core import mac as mac_module
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments import (
    PAPER_POLICIES,
    fig2_degradation_components,
    fig3_degradation_influence,
    fig4_window_selection,
    fig5_energy_and_degradation,
    fig6_network_performance,
    fig7_max_degradation_by_month,
    fig8_network_lifespan,
    fig9_testbed,
    measure_overhead,
    policy_grid,
    policy_records,
    relative_cpu_overhead,
    testbed_base as make_testbed_base,
    testbed_grid as make_testbed_grid,
)
from repro.experiments.overhead import _code_size
from repro.sim import SimulationConfig
from repro.sweep import RunRecord, SweepResult, run_sweep


@pytest.fixture(scope="module")
def tiny_base():
    return SimulationConfig(
        node_count=8,
        duration_s=2 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=500.0,
        seed=11,
    )


@pytest.fixture(scope="module")
def tiny_testbed():
    return make_testbed_base().replace(duration_s=6 * 3600.0)


@pytest.fixture(scope="module")
def paper_records(tiny_base):
    """One run of every large-scale policy, shared by Figs. 2 and 4-8."""
    return run_sweep(policy_grid(tiny_base, PAPER_POLICIES)).records


@pytest.fixture(scope="module")
def testbed_records(tiny_testbed):
    return run_sweep(make_testbed_grid(tiny_testbed), engine="exact").records


class TestFig2:
    def test_calendar_dominates_cycle(self, paper_records):
        series = fig2_degradation_components(paper_records, years=5)
        assert series["calendar"][-1] > series["cycle"][-1]

    def test_series_lengths(self, paper_records):
        series = fig2_degradation_components(paper_records, years=5)
        assert len(series["months"]) == 60
        assert len(series["total"]) == 60

    def test_all_series_monotone(self, paper_records):
        series = fig2_degradation_components(paper_records, years=5)
        for name in ("calendar", "cycle", "total"):
            values = series[name]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_total_is_nonlinear_map(self, paper_records):
        series = fig2_degradation_components(paper_records, years=5)
        assert 0 < series["total"][-1] < 1


class TestFig3:
    def test_energy_rich_period_both_pick_first_window(self):
        outcome = fig3_degradation_influence()
        assert outcome["p28"]["highest_degraded"] == 0
        assert outcome["p28"]["lowest_degraded"] == 0

    def test_energy_poor_period_splits_nodes(self):
        outcome = fig3_degradation_influence()
        assert outcome["p29"]["highest_degraded"] == 1
        assert outcome["p29"]["lowest_degraded"] == 0


class TestFig4(object):
    def test_lorawan_all_nodes_in_first_window(self, paper_records):
        histograms = fig4_window_selection(paper_records)
        lorawan = histograms["LoRaWAN"]
        assert set(lorawan) == {0}

    def test_h_variants_spread_or_stay_early(self, paper_records):
        histograms = fig4_window_selection(paper_records)
        for name in ("H-5", "H-50", "H-100"):
            total = sum(histograms[name].values())
            early = sum(v for w, v in histograms[name].items() if w < 4)
            assert early >= 0.6 * total


class TestFig5:
    def test_h_reduces_retx_and_energy(self, paper_records):
        rows = fig5_energy_and_degradation(paper_records)
        for name in ("H-50", "H-100"):
            assert rows[name]["avg_retx"] <= rows["LoRaWAN"]["avg_retx"]
            assert rows[name]["tx_energy_j"] <= rows["LoRaWAN"]["tx_energy_j"]

    def test_h50_cuts_mean_degradation(self, paper_records):
        rows = fig5_energy_and_degradation(paper_records)
        assert rows["H-50"]["mean_degradation"] < rows["LoRaWAN"]["mean_degradation"]

    def test_h100_mean_close_to_lorawan(self, paper_records):
        rows = fig5_energy_and_degradation(paper_records)
        ratio = rows["H-100"]["mean_degradation"] / rows["LoRaWAN"]["mean_degradation"]
        assert 0.7 < ratio < 1.3

    def test_h5_lowest_degradation(self, paper_records):
        rows = fig5_energy_and_degradation(paper_records)
        assert rows["H-5"]["mean_degradation"] == min(
            row["mean_degradation"] for row in rows.values()
        )


class TestFig6:
    def test_h50_prr_at_least_lorawan(self, paper_records):
        rows = fig6_network_performance(paper_records)
        assert rows["H-50"]["avg_prr"] >= rows["LoRaWAN"]["avg_prr"] - 0.02

    def test_h5_prr_collapses(self, paper_records):
        rows = fig6_network_performance(paper_records)
        assert rows["H-5"]["avg_prr"] < rows["H-50"]["avg_prr"] - 0.1

    def test_delivered_latency_lorawan_lowest(self, paper_records):
        rows = fig6_network_performance(paper_records)
        assert (
            rows["LoRaWAN"]["avg_delivered_latency_s"]
            <= rows["H-50"]["avg_delivered_latency_s"] + 1.0
        )

    def test_metrics_in_bounds(self, paper_records):
        rows = fig6_network_performance(paper_records)
        for row in rows.values():
            assert 0.0 <= row["avg_prr"] <= 1.0
            assert 0.0 <= row["avg_utility"] <= 1.0


class TestFig7And8:
    def test_monthly_series_ordering(self, paper_records):
        series = fig7_max_degradation_by_month(paper_records, months=120)
        # LoRaWAN degrades fastest at every month (after warm-up).
        for m in range(24, 120, 24):
            assert series["LoRaWAN"][m] >= series["H-50"][m]

    def test_lifespan_ordering_matches_paper(self, paper_records):
        lifespans = fig8_network_lifespan(paper_records)
        assert lifespans["H-50"] > lifespans["LoRaWAN"]
        assert lifespans["H-50C"] > lifespans["LoRaWAN"]

    def test_h50_gain_in_paper_ballpark(self, paper_records):
        lifespans = fig8_network_lifespan(paper_records)
        gain = lifespans["H-50"] / lifespans["LoRaWAN"] - 1.0
        # Paper: +69.7 %.  Accept a generous band at smoke-test scale.
        assert 0.3 < gain < 1.5


class TestFig9:
    def test_prr_near_perfect_for_both(self, testbed_records):
        rows = fig9_testbed(testbed_records)
        assert rows["LoRaWAN"]["avg_prr"] > 0.9
        assert rows["H-100"]["avg_prr"] > 0.9

    def test_h100_fewer_retx(self, testbed_records):
        rows = fig9_testbed(testbed_records)
        assert rows["H-100"]["avg_retx"] <= rows["LoRaWAN"]["avg_retx"]

    def test_lorawan_lower_delivered_latency(self, testbed_records):
        rows = fig9_testbed(testbed_records)
        assert (
            rows["LoRaWAN"]["avg_delivered_latency_s"]
            <= rows["H-100"]["avg_delivered_latency_s"]
        )


class TestTableI:
    def test_overhead_small_and_positive(self):
        rows = measure_overhead(periods=300, repeats=1)
        assert rows["H-100"].cpu_us_per_period > rows["LoRaWAN"].cpu_us_per_period
        overhead = relative_cpu_overhead(rows)
        assert 0.0 < overhead < 2.0

    def test_code_size_larger_for_blam(self):
        rows = measure_overhead(periods=100, repeats=1)
        assert rows["H-100"].code_size_bytes > rows["LoRaWAN"].code_size_bytes

    def test_code_size_within_table1_bound(self):
        # The bound of benchmarks/bench_table1_overhead.py: Algorithm 1's
        # MAC stays a small add-on to the LoRaWAN one.
        rows = measure_overhead(periods=100, repeats=1)
        assert rows["H-100"].code_size_bytes < 20 * rows["LoRaWAN"].code_size_bytes

    def test_code_size_independent_of_filename(self):
        # The MAC module compiled under two file names of different
        # lengths: every method's co_filename differs, the count does not.
        source = inspect.getsource(mac_module)
        sizes, filenames = [], []
        for filename in ("mac.py", "/a/much/longer/checkout/path/repro/core/mac.py"):
            namespace = {"__name__": mac_module.__name__, "__package__": "repro.core"}
            exec(compile(source, filename, "exec"), namespace)
            policy = namespace["BatteryLifespanAwareMac"]()
            filenames.append(policy.choose_window.__code__.co_filename)
            sizes.append(_code_size(policy))
        assert filenames[0] != filenames[1]
        assert sizes[0] == sizes[1] == _code_size(BatteryLifespanAwareMac())


def _failed(record):
    failed = RunRecord.from_dict(record.to_dict())
    failed.status = "failed"
    failed.error = "Traceback ...\nRuntimeError: engine exploded"
    return failed


class TestRecords:
    def test_reducers_identical_after_sweep_json_round_trip(
        self, paper_records, testbed_records, tmp_path
    ):
        def reduce_all(paper, testbed):
            return [
                fig2_degradation_components(paper, years=5),
                fig4_window_selection(paper),
                fig5_energy_and_degradation(paper),
                fig6_network_performance(paper),
                fig7_max_degradation_by_month(paper, months=120),
                fig8_network_lifespan(paper),
                fig9_testbed(testbed),
            ]

        def round_trip(records, engine):
            path = tmp_path / f"{engine}.json"
            SweepResult(engine=engine, workers=1, records=records).write(str(path))
            doc = json.loads(path.read_text())
            return [RunRecord.from_dict(run) for run in doc["runs"]]

        in_memory = reduce_all(paper_records, testbed_records)
        reloaded = reduce_all(
            round_trip(paper_records, "meso"), round_trip(testbed_records, "exact")
        )
        assert repr(reloaded) == repr(in_memory)

    def test_reducer_names_a_failed_record(self, paper_records):
        records = list(paper_records)
        records[2] = _failed(records[2])
        with pytest.raises(SimulationError, match="grid point 2 .*H-50.*failed.*exploded"):
            fig8_network_lifespan(records)

    def test_failed_record_refused_even_if_unread(self, paper_records):
        # H-5 is not a Fig. 8 policy, but the grid holds a failed run.
        records = list(paper_records)
        records[1] = _failed(records[1])
        with pytest.raises(SimulationError, match="grid point 1"):
            fig8_network_lifespan(records)

    def test_missing_policy_refused(self, paper_records):
        with pytest.raises(ConfigurationError, match="H-50C"):
            fig8_network_lifespan(paper_records[:4])

    def test_policy_records_follow_the_requested_order(self, paper_records):
        chosen = policy_records(paper_records, ("H-50C", "LoRaWAN"))
        assert list(chosen) == ["H-50C", "LoRaWAN"]
        assert chosen["LoRaWAN"].policy == "LoRaWAN"

    def test_multi_seed_grid_refused(self, paper_records):
        with pytest.raises(ConfigurationError, match="more than one record"):
            fig8_network_lifespan(paper_records + paper_records[:1])
