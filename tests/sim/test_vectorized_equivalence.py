"""Scalar-vs-vectorized mesoscopic equivalence battery.

The vectorized fast path (:mod:`repro.sim.mesoscopic_vec`) claims
*bit-identical* results to the scalar reference sweep — same RNG draws,
same float operation order — not approximate agreement.  These tests
enforce that across seeds, MAC policies, forecasters, jittered boots,
and fault-plan configurations: every per-node metric, packet record,
monthly degradation sample, linear rate, and heap counter must match.

Float fields are compared with ``math.isclose(rel_tol=1e-9,
abs_tol=1e-12)`` as the documented contract, but the assertions are
expected to pass exact equality; integer counters must be exact.
"""

import math

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.sim import (
    MesoscopicSimulator,
    SimulationConfig,
    mesoscopic_vec,
    run_mesoscopic,
)


def vec_config(**overrides):
    defaults = dict(
        node_count=10,
        duration_s=2 * SECONDS_PER_DAY,
        period_range_s=(960.0, 2400.0),
        radius_m=4000.0,
        seed=11,
        record_packets=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run_pair(config):
    scalar = run_mesoscopic(config.replace(vectorized=False))
    vec = run_mesoscopic(config.replace(vectorized=True))
    return scalar, vec


def assert_values_close(label, a, b):
    if isinstance(a, bool) or isinstance(a, int):
        assert a == b, f"{label}: {a!r} != {b!r}"
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (
            f"{label}: {a!r} != {b!r}"
        )
    else:
        assert a == b, f"{label}: {a!r} != {b!r}"


def assert_equivalent(scalar, vec):
    assert set(scalar.metrics.nodes) == set(vec.metrics.nodes)
    for node_id, scalar_metrics in scalar.metrics.nodes.items():
        vec_vars = vars(vec.metrics.nodes[node_id])
        for key, value in vars(scalar_metrics).items():
            assert_values_close(f"node {node_id} metrics.{key}", value, vec_vars[key])
    for key, value in scalar.metrics.summary().items():
        assert_values_close(f"summary.{key}", value, vec.metrics.summary()[key])

    assert len(scalar.monthly) == len(vec.monthly)
    for a, b in zip(scalar.monthly, vec.monthly):
        for key, value in vars(a).items():
            assert_values_close(f"monthly.{key}", value, vars(b)[key])

    assert set(scalar.linear_rates) == set(vec.linear_rates)
    for node_id, rate in scalar.linear_rates.items():
        assert_values_close(
            f"linear_rate[{node_id}]", rate, vec.linear_rates[node_id]
        )
    assert_values_close(
        "lifespan", scalar.network_lifespan_days(), vec.network_lifespan_days()
    )

    # Heap accounting proves the two sweeps executed the same events.
    assert scalar.manifest.events_executed == vec.manifest.events_executed
    assert scalar.manifest.peak_queue_depth == vec.manifest.peak_queue_depth

    assert (scalar.packet_log is None) == (vec.packet_log is None)
    if scalar.packet_log is not None:
        scalar_records = scalar.packet_log._records
        vec_records = vec.packet_log._records
        assert len(scalar_records) == len(vec_records)
        for i, (a, b) in enumerate(zip(scalar_records, vec_records)):
            assert a == b, f"packet[{i}]: {a} != {b}"


class TestSeedSweep:
    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_h50_bit_identical_across_seeds(self, seed):
        scalar, vec = run_pair(vec_config(seed=seed).as_h(0.5))
        assert_equivalent(scalar, vec)


class TestPolicies:
    def test_lorawan_aloha(self):
        scalar, vec = run_pair(vec_config().as_lorawan())
        assert_equivalent(scalar, vec)

    def test_hc_threshold_only(self):
        scalar, vec = run_pair(vec_config().as_hc(0.5))
        assert_equivalent(scalar, vec)

    def test_h100_uncapped(self):
        scalar, vec = run_pair(vec_config().as_h(1.0))
        assert_equivalent(scalar, vec)


class TestVariants:
    def test_jittered_boot(self):
        scalar, vec = run_pair(
            vec_config(synchronized_start=False, seed=7).as_h(0.5)
        )
        assert_equivalent(scalar, vec)

    def test_noisy_forecaster(self):
        scalar, vec = run_pair(vec_config(forecaster="noisy", seed=3).as_h(0.5))
        assert_equivalent(scalar, vec)

    def test_persistence_forecaster(self):
        scalar, vec = run_pair(
            vec_config(forecaster="persistence", seed=9).as_h(0.5)
        )
        assert_equivalent(scalar, vec)

    def test_fault_plan_config(self):
        # The mesoscopic engine has no event boundaries to inject faults
        # at: both sweeps refuse a non-empty plan and agree on an empty one.
        plan = FaultPlan(ack_loss_probability=0.3, seed=7)
        for vectorized in (False, True):
            with pytest.raises(ConfigurationError):
                run_mesoscopic(vec_config(faults=plan, vectorized=vectorized))
        scalar, vec = run_pair(vec_config(faults=FaultPlan(seed=7)).as_h(0.5))
        assert_equivalent(scalar, vec)

    def test_dense_contention(self):
        # A tight radius and short periods force multi-entry windows
        # through the vectorized contention resolver every period.
        scalar, vec = run_pair(
            vec_config(
                node_count=16,
                radius_m=500.0,
                period_range_s=(960.0, 1200.0),
                duration_s=SECONDS_PER_DAY,
            ).as_h(0.5)
        )
        assert_equivalent(scalar, vec)


def telemetry_config(**overrides):
    """The telemetry scale profile: 4-8 h periods, 300 s windows, diet."""
    defaults = dict(
        node_count=40,
        period_range_s=(240 * 60.0, 480 * 60.0),
        window_s=300.0,
        solar_peak_transmissions=10.0,
        channel_count=8,
        omega=8,
        memory_profile="diet",
    )
    defaults.update(overrides)
    return vec_config(**defaults).as_h(0.5)


class TestLookaheadEpochs:
    """Period epochs decide many instants per batch, bit-identically.

    Two days cross a degradation refresh, which bounds an epoch.  The
    decide batches are counted against the scalar sweep's same-instant
    cohorts: fewer batches than cohorts proves the lookahead fired.
    """

    def run_counted(self, monkeypatch, config):
        """Run both sweeps; returns the scalar result and the number of
        straggler batches (decided while an epoch still held events)."""
        decide_calls = []
        outstanding = set()
        stragglers = []
        decide = mesoscopic_vec._decide_periods
        book = mesoscopic_vec._book_periods

        def counting_decide(sim, batch, times, harvest):
            decide_calls.append(len(set(times)))
            if outstanding:
                stragglers.append(len(batch))
            outstanding.update((node.node_id, t) for node, t in zip(batch, times))
            return decide(sim, batch, times, harvest)

        def tracking_book(sim, batch, now_s, *args):
            outstanding.difference_update((node.node_id, now_s) for node in batch)
            return book(sim, batch, now_s, *args)

        cohorts = set()
        start_period = MesoscopicSimulator._start_period

        def recording_start(self, node, now_s, *args):
            cohorts.add(now_s)
            return start_period(self, node, now_s, *args)

        monkeypatch.setattr(mesoscopic_vec, "_decide_periods", counting_decide)
        monkeypatch.setattr(mesoscopic_vec, "_book_periods", tracking_book)
        monkeypatch.setattr(MesoscopicSimulator, "_start_period", recording_start)
        scalar, vec = run_pair(config)
        assert_equivalent(scalar, vec)
        assert 0 < len(decide_calls) < len(cohorts)
        assert max(decide_calls) > 1  # some batch spans several instants
        assert not outstanding
        return scalar, len(stragglers)

    def test_telemetry_shape(self, monkeypatch):
        config = telemetry_config()
        assert config.dissemination_interval_s < config.duration_s
        scalar, _ = self.run_counted(monkeypatch, config)
        assert scalar.metrics.summary()["avg_prr"] > 0.0

    def test_telemetry_shape_jittered_boot(self, monkeypatch):
        self.run_counted(
            monkeypatch, telemetry_config(synchronized_start=False, seed=7)
        )

    def test_refreshes_bound_epochs(self, monkeypatch):
        # Refreshes every ~2 h, off the window grid and often by day: an
        # epoch running past one would decide with the stale w_u.
        self.run_counted(monkeypatch, telemetry_config(dissemination_interval_s=7000.0))

    def test_pending_windows_leave_nodes_to_their_own_pop(self, monkeypatch):
        # Three to four 300 s windows per period: a window chosen last
        # period often resolves inside the next epoch, before the node's
        # next period start, so that node must wait for its own pop.
        config = vec_config(window_s=300.0, period_range_s=(960.0, 1200.0))
        _, stragglers = self.run_counted(monkeypatch, config.as_h(0.5))
        assert stragglers > 0


class TestTracingFallback:
    def test_trace_enabled_runs_scalar_path(self):
        # Tracing pins the run to the scalar sweep even when the config
        # requests vectorized execution; results stay identical.
        config = vec_config(seed=5, record_packets=False).as_h(0.5)
        traced = run_mesoscopic(config.replace(trace=True, vectorized=True))
        scalar = run_mesoscopic(config.replace(vectorized=False))
        for node_id, scalar_metrics in scalar.metrics.nodes.items():
            vec_vars = vars(traced.metrics.nodes[node_id])
            for key, value in vars(scalar_metrics).items():
                assert_values_close(f"{node_id}.{key}", value, vec_vars[key])
