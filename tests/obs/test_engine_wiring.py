"""Integration tests: observability wired through both engines."""

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.obs import iter_jsonl
from repro.obs.profiling import git_revision
from repro.sim import SimulationConfig, run_mesoscopic, run_simulation


def small_config(**overrides):
    defaults = dict(
        node_count=4,
        duration_s=6 * 3600.0,
        period_range_s=(600.0, 600.0),
        radius_m=100.0,
        seed=9,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults).as_h(0.5)


class TestConfigValidation:
    def test_rejects_unknown_trace_category(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                node_count=1, duration_s=60.0, trace_categories=("nope",)
            )

    def test_trace_path_implies_tracing(self, tmp_path):
        config = small_config(trace_path=str(tmp_path / "t.jsonl"))
        assert config.tracing_enabled

    def test_disabled_by_default(self):
        assert not small_config().tracing_enabled


class TestDisabledRuns:
    """Without tracing: no bus, but metrics + manifest still populate."""

    def test_exact_engine(self):
        result = run_simulation(small_config())
        assert result.obs.trace is None
        manifest = result.manifest
        assert manifest.engine == "exact"
        assert manifest.seed == 9
        assert manifest.events_executed > 0
        assert manifest.peak_queue_depth > 0
        assert manifest.git_rev is None  # no subprocess on untraced runs
        assert set(manifest.phase_timings_s) == {"build", "run", "finalize"}
        flat = result.obs.metrics.flat()
        assert flat["repro_avg_prr"] == pytest.approx(
            result.metrics.avg_prr
        )
        assert flat["repro_packets_generated_total"] == sum(
            n.packets_generated for n in result.metrics.nodes.values()
        )

    def test_mesoscopic_engine(self):
        result = run_mesoscopic(small_config())
        assert result.obs.trace is None
        assert result.manifest.engine == "mesoscopic"
        assert result.manifest.events_executed > 0
        assert result.manifest.peak_queue_depth > 0
        assert "repro_avg_prr" in result.obs.metrics.flat()

    def test_tracing_does_not_change_metrics_exact(self):
        baseline = run_simulation(small_config())
        traced = run_simulation(small_config(trace=True))
        assert baseline.metrics.summary() == traced.metrics.summary()

    def test_tracing_does_not_change_metrics_mesoscopic(self):
        baseline = run_mesoscopic(small_config())
        traced = run_mesoscopic(small_config(trace=True))
        assert baseline.metrics.summary() == traced.metrics.summary()


class TestTracedExactRun:
    @pytest.fixture(scope="class")
    def traced(self):
        plan = FaultPlan(ack_loss_probability=0.3, seed=5)
        return run_simulation(small_config(trace=True, faults=plan))

    def test_engine_markers(self, traced):
        bus = traced.obs.trace
        assert [e.name for e in bus.select(name="engine.run_started")] == [
            "engine.run_started"
        ]
        finished = bus.select(name="engine.run_finished")
        assert finished and finished[0].fields["engine"] == "exact"

    def test_packet_lifecycle(self, traced):
        bus = traced.obs.trace
        generated = bus.select(name="packet.generated")
        finished = bus.select(name="packet.finished")
        assert generated and finished
        assert all(e.node_id is not None for e in generated)
        total_generated = sum(
            n.packets_generated for n in traced.metrics.nodes.values()
        )
        assert len(generated) == total_generated

    def test_window_decisions_carry_scores(self, traced):
        decisions = traced.obs.trace.select(name="window.selected")
        assert decisions
        fields = decisions[0].fields
        assert len(fields["scores"]) == len(fields["utilities"])
        assert "w_u" in fields

    def test_wu_dissemination(self, traced):
        assert traced.obs.trace.select(name="wu.disseminated")
        assert traced.obs.trace.select(name="wu.received")

    def test_fault_events(self, traced):
        lost = traced.obs.trace.select(name="fault.ack_lost")
        assert len(lost) == traced.metrics.faults.acks_lost

    def test_manifest_accounting(self, traced):
        bus = traced.obs.trace
        assert traced.manifest.trace_events == bus.emitted
        # None outside a git checkout (e.g. a `git archive` export).
        assert traced.manifest.git_rev == git_revision()

    def test_run_markers_bracket_the_trace(self, traced):
        # Handlers may stamp events with computed (slightly future)
        # times, so global ordering is only approximate — but the run
        # markers must open and close the stream.
        events = traced.obs.trace.events
        assert events[0].name == "engine.run_started"
        assert events[-1].name == "engine.run_finished"


class TestTracedMesoscopicRun:
    @pytest.fixture(scope="class")
    def traced(self):
        # An hourly dissemination interval so the 6-hour horizon sees
        # several w_u refreshes.
        return run_mesoscopic(
            small_config(trace=True, dissemination_interval_s=3600.0)
        )

    def test_engine_markers(self, traced):
        started = traced.obs.trace.select(name="engine.run_started")
        assert started and started[0].fields["engine"] == "mesoscopic"

    def test_packet_and_wu_events(self, traced):
        bus = traced.obs.trace
        assert bus.select(name="packet.generated")
        assert bus.select(name="packet.finished")
        assert bus.select(name="wu.recomputed")
        assert bus.select(name="window.selected")
        assert bus.select(name="battery.degradation")

    def test_wu_received_at_each_refresh_instant(self, traced):
        # Every refresh hands each of the 4 nodes its w_u at that instant.
        bus = traced.obs.trace
        refreshes = [e.time_s for e in bus.select(name="wu.recomputed")]
        received = Counter(e.time_s for e in bus.select(name="wu.received"))
        assert len(refreshes) > 1
        assert received == {time_s: 4 for time_s in refreshes}


class TestSinksAndFilters:
    def test_jsonl_written_via_config(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = run_simulation(small_config(trace_path=path))
        events = list(iter_jsonl(path))
        assert len(events) == result.obs.trace.emitted
        assert result.manifest.trace_path == path
        names = {e.name for e in events}
        assert "engine.run_started" in names
        assert "engine.run_finished" in names

    def test_category_restriction(self):
        result = run_simulation(
            small_config(trace=True, trace_categories=("packet",))
        )
        categories = {e.category for e in result.obs.trace.events}
        assert categories == {"packet"}
