"""Mesoscopic sweep equivalence battery, pinned by golden digests.

The golden digests of :mod:`tests.sim.golden` pin the sweep's per-node
metrics, packet log, monthly series, linear rates, heap counters and
masked JSONL trace for a matrix of scenarios — seeds, MAC policies,
forecasters, jittered boots, brown-outs, lookahead epochs and
fault-plan configurations.  They were taken while the scalar reference
sweep still existed and was proven byte-identical to this one, traces
included.  Every scenario also runs untraced, and tracing must change
no result.

Float fields are compared with ``math.isclose(rel_tol=1e-9,
abs_tol=1e-12)`` as the documented contract, but the assertions are
expected to pass exact equality; integer counters must be exact.
"""

import math
import random

import pytest

from repro.energy import CloudProcess
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults import FaultPlan
from repro.lora import LogDistanceLink
from repro.sim import mesoscopic_vec, resolve_window, run_mesoscopic
from repro.sim.mesoscopic import MesoNode, WindowEntry
from repro.sim.topology import build_topology

from tests.sim import golden
from tests.sim.golden import vec_config


def assert_values_close(label, a, b):
    if isinstance(a, bool) or isinstance(a, int):
        assert a == b, f"{label}: {a!r} != {b!r}"
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (
            f"{label}: {a!r} != {b!r}"
        )
    else:
        assert a == b, f"{label}: {a!r} != {b!r}"


def assert_equivalent(expected, got):
    assert set(expected.metrics.nodes) == set(got.metrics.nodes)
    for node_id, expected_metrics in expected.metrics.nodes.items():
        got_vars = vars(got.metrics.nodes[node_id])
        for key, value in vars(expected_metrics).items():
            assert_values_close(f"node {node_id} metrics.{key}", value, got_vars[key])
    for key, value in expected.metrics.summary().items():
        assert_values_close(f"summary.{key}", value, got.metrics.summary()[key])

    assert len(expected.monthly) == len(got.monthly)
    for a, b in zip(expected.monthly, got.monthly):
        for key, value in vars(a).items():
            assert_values_close(f"monthly.{key}", value, vars(b)[key])

    assert set(expected.linear_rates) == set(got.linear_rates)
    for node_id, rate in expected.linear_rates.items():
        assert_values_close(
            f"linear_rate[{node_id}]", rate, got.linear_rates[node_id]
        )
    assert_values_close(
        "lifespan", expected.network_lifespan_days(), got.network_lifespan_days()
    )

    # Heap accounting proves the two runs executed the same events.
    assert expected.manifest.events_executed == got.manifest.events_executed
    assert expected.manifest.peak_queue_depth == got.manifest.peak_queue_depth

    assert (expected.packet_log is None) == (got.packet_log is None)
    if expected.packet_log is not None:
        expected_records = expected.packet_log._records
        got_records = got.packet_log._records
        assert len(expected_records) == len(got_records)
        for i, (a, b) in enumerate(zip(expected_records, got_records)):
            assert a == b, f"packet[{i}]: {a} != {b}"


def run_checked(name, tmp_path):
    """Run golden scenario ``name`` traced and untraced; the traced run
    (trace included) must reproduce the golden digests."""
    result, trace_path = golden.run_scenario(name, str(tmp_path))
    golden.assert_golden(name, result, trace_path)
    return result


class TestSeedSweep:
    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_h50_bit_identical_across_seeds(self, seed, tmp_path):
        run_checked(f"h50-seed{seed}", tmp_path)


class TestPolicies:
    def test_lorawan_aloha(self, tmp_path):
        run_checked("lorawan", tmp_path)

    def test_hc_threshold_only(self, tmp_path):
        run_checked("hc", tmp_path)

    def test_h100_uncapped(self, tmp_path):
        run_checked("h100", tmp_path)


class TestVariants:
    def test_jittered_boot(self, tmp_path):
        run_checked("jittered", tmp_path)

    def test_noisy_forecaster(self, tmp_path):
        run_checked("noisy", tmp_path)

    def test_persistence_forecaster(self, tmp_path):
        run_checked("persistence", tmp_path)

    def test_fault_plan_config(self, tmp_path):
        # The mesoscopic engine has no event boundaries to inject faults
        # at: it refuses a non-empty plan and runs an empty one.
        plan = FaultPlan(ack_loss_probability=0.3, seed=7)
        with pytest.raises(ConfigurationError):
            run_mesoscopic(vec_config(faults=plan))
        run_checked("empty-fault-plan", tmp_path)

    def test_dense_contention(self, tmp_path):
        # A tight radius and short periods force multi-entry windows
        # through the vectorized contention resolver every period.
        run_checked("dense", tmp_path)

    def test_brownouts(self, tmp_path):
        # A nearly empty battery: settle brown-outs, infeasible windows
        # and brown-out drops, each with its trace event.
        result = run_checked("brownouts", tmp_path)
        assert result.packet_log.energy_drops > 0

    def test_diet_shaded(self, tmp_path):
        run_checked("diet-shaded", tmp_path)


class TestMisuse:
    """A sweep never books a node twice into one window, and every node
    has one RSSI per gateway of the topology; the resolver refuses
    windows that break either rule instead of resolving them."""

    @staticmethod
    def entries(gateway_counts):
        entries = []
        for node_id, gateways in enumerate(gateway_counts):
            config = vec_config(node_count=node_id + 1, gateway_count=gateways)
            link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
            placement = build_topology(config, link)[node_id]
            node = MesoNode(placement, config, CloudProcess(seed=0), link)
            entries.append(
                WindowEntry(
                    node=node,
                    immediate=False,
                    window_index_in_period=0,
                    period_start_s=0.0,
                )
            )
        return entries

    def test_repeated_node_in_one_window_raises(self):
        first, second = self.entries([1, 1])
        with pytest.raises(SimulationError, match="listed twice"):
            resolve_window([first, second, first], 60.0, 1, 8, 8, random.Random(1))

    def test_mixed_gateway_counts_raise(self):
        entries = self.entries([1, 2])
        with pytest.raises(SimulationError, match="gateway counts"):
            resolve_window(entries, 60.0, 1, 8, 8, random.Random(1))


class TestLookaheadEpochs:
    """Period epochs decide many instants per batch, bit-identically.

    Two days cross a degradation refresh, which bounds an epoch.  Each
    run's decide batches are counted against its popped same-instant
    cohorts: fewer batches than cohorts proves the lookahead fired.
    """

    def run_counted(self, monkeypatch, name, tmp_path):
        """Run scenario ``name``; returns its result and the number of
        straggler batches (decided while an epoch still held events)."""
        runs = {}
        decide = mesoscopic_vec._decide_periods
        book = mesoscopic_vec._book_periods

        def stats(sim):
            return runs.setdefault(
                sim, dict(decides=[], cohorts=set(), outstanding=set(), stragglers=0)
            )

        def counting_decide(sim, batch, times, harvest):
            run = stats(sim)
            run["decides"].append(len(set(times)))
            if run["outstanding"]:
                run["stragglers"] += 1
            run["outstanding"].update(
                (node.node_id, t) for node, t in zip(batch, times)
            )
            return decide(sim, batch, times, harvest)

        def tracking_book(sim, batch, now_s, *args):
            run = stats(sim)
            run["cohorts"].add(now_s)
            run["outstanding"].difference_update(
                (node.node_id, now_s) for node in batch
            )
            return book(sim, batch, now_s, *args)

        monkeypatch.setattr(mesoscopic_vec, "_decide_periods", counting_decide)
        monkeypatch.setattr(mesoscopic_vec, "_book_periods", tracking_book)
        result = run_checked(name, tmp_path)
        assert runs
        for run in runs.values():
            assert 0 < len(run["decides"]) < len(run["cohorts"])
            assert max(run["decides"]) > 1  # some batch spans several instants
            assert not run["outstanding"]
        return result, min(run["stragglers"] for run in runs.values())

    def test_telemetry_shape(self, monkeypatch, tmp_path):
        config = golden.telemetry_config()
        assert config.dissemination_interval_s < config.duration_s
        result, _ = self.run_counted(monkeypatch, "telemetry", tmp_path)
        assert result.metrics.summary()["avg_prr"] > 0.0

    def test_telemetry_shape_jittered_boot(self, monkeypatch, tmp_path):
        self.run_counted(monkeypatch, "telemetry-jittered", tmp_path)

    def test_refreshes_bound_epochs(self, monkeypatch, tmp_path):
        # Refreshes every ~2 h, off the window grid and often by day: an
        # epoch running past one would decide with the stale w_u.
        self.run_counted(monkeypatch, "telemetry-refresh-7000", tmp_path)

    def test_pending_windows_leave_nodes_to_their_own_pop(self, monkeypatch, tmp_path):
        # Three to four 300 s windows per period: a window chosen last
        # period often resolves inside the next epoch, before the node's
        # next period start, so that node must wait for its own pop.
        _, stragglers = self.run_counted(monkeypatch, "short-windows", tmp_path)
        assert stragglers > 0


class TestTracedSweep:
    def test_tracing_runs_the_vectorized_sweep(self, monkeypatch, tmp_path):
        # Tracing changes no result and no code path: the traced run
        # goes through run_sweep too.
        traced_sweeps = []
        run_sweep = mesoscopic_vec.run_sweep

        def recording_sweep(sim):
            traced_sweeps.append(sim._trace is not None)
            return run_sweep(sim)

        monkeypatch.setattr(mesoscopic_vec, "run_sweep", recording_sweep)
        config = vec_config(seed=5).as_h(0.5)
        traced, _ = golden.run_traced(config, str(tmp_path))
        untraced = run_mesoscopic(config)
        assert traced_sweeps == [True, False]
        assert golden.result_digests(traced) == golden.result_digests(untraced)
        assert_equivalent(untraced, traced)
