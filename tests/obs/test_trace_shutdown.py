"""Trace sinks must not lose buffered events when a run dies.

Both engines wrap their run loop so that an exception (or an
interrupt) closes the observability bundle before propagating; the
JSONL sink flushes on close and close is idempotent, so the trace file
on disk is complete and parseable up to the moment of death.
"""

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.obs import JsonlSink, TraceBus, iter_jsonl
from repro.sim import MesoscopicSimulator, SimulationConfig, Simulator, mesoscopic_vec


def traced_config(**overrides):
    defaults = dict(
        node_count=4,
        duration_s=0.5 * SECONDS_PER_DAY,
        seed=5,
        trace=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSinkFlushOnEngineDeath:
    def test_exact_engine_flushes_trace_on_exception(self, tmp_path, monkeypatch):
        path = str(tmp_path / "trace.jsonl")
        sim = Simulator(traced_config(trace_path=path))
        calls = {"n": 0}
        original = Simulator._on_period_batch

        def dying(self, *args):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("mid-run explosion")
            return original(self, *args)

        monkeypatch.setattr(Simulator, "_on_period_batch", dying)
        with pytest.raises(RuntimeError, match="mid-run explosion"):
            sim.run()
        events = list(iter_jsonl(path))
        assert events, "trace file is empty despite emitted events"
        assert events[0].name == "engine.run_started"
        # every line parsed — nothing was cut off mid-write
        assert all(event.category for event in events)

    def test_meso_engine_flushes_trace_on_exception(self, tmp_path, monkeypatch):
        path = str(tmp_path / "trace.jsonl")
        sim = MesoscopicSimulator(traced_config(trace_path=path))
        original = mesoscopic_vec._book_periods
        calls = {"n": 0}

        def dying(*args):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("meso explosion")
            return original(*args)

        monkeypatch.setattr(mesoscopic_vec, "_book_periods", dying)
        with pytest.raises(RuntimeError, match="meso explosion"):
            sim.run()
        events = list(iter_jsonl(path))
        assert events
        assert events[0].name == "engine.run_started"

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        bus = TraceBus(sink=sink)
        bus.emit(0.0, "engine", "engine.run_started")
        sink.close()
        sink.close()  # error path + normal teardown
        assert [e.name for e in iter_jsonl(path)] == ["engine.run_started"]
