"""The exact engine's batched PERIOD drain and the queue that feeds it.

Every same-instant run of PERIOD events pops in one go and goes through
one batched handler, traced, packet-recording and untraced runs alike.
Its outputs are pinned by the exact golden scenarios
(``tests/sim/test_exact_golden.py``).
"""

import copy
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import config_hash
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator, run_simulation
from repro.sim.events import EventQueue


BASE = dict(
    node_count=24,
    duration_s=4 * 3600.0,
    seed=11,
    synchronized_start=True,
)


class TestBatchingGuards:
    def test_enabled_by_default(self):
        sim = Simulator(SimulationConfig(**BASE))
        assert sim.queue.batch_kinds == frozenset({"period"})
        assert sim.queue.dispatch_batch is not None

    def test_disabled_by_flag(self):
        """The retired flag cannot switch the drain off any more."""
        with pytest.raises(ConfigurationError, match="exact_batched"):
            SimulationConfig(**BASE, exact_batched=False)

    def test_disabled_under_tracing(self):
        """Tracing no longer disables the batched drain."""
        sim = Simulator(SimulationConfig(**BASE, trace=True))
        assert sim.queue.batch_kinds == frozenset({"period"})

    def test_disabled_under_packet_recording(self):
        """Packet recording no longer disables the batched drain."""
        sim = Simulator(SimulationConfig(**BASE, record_packets=True))
        assert sim.queue.batch_kinds == frozenset({"period"})

    def test_enabled_traced_with_packets(self):
        sim = Simulator(SimulationConfig(**BASE, trace=True, record_packets=True))
        assert sim.queue.batch_kinds == frozenset({"period"})
        assert sim.queue.dispatch_batch is not None

    def test_excluded_from_config_hash(self):
        # Snapshots from before the flag was retired may hold False
        # (unpickling skips validation); they hash like any other.
        config = SimulationConfig(**BASE)
        stale = copy.copy(config)
        object.__setattr__(stale, "exact_batched", False)
        assert config_hash(config) == config_hash(stale)

    def test_queue_pickle_drops_hook_keeps_kinds(self):
        sim = Simulator(SimulationConfig(**BASE))
        restored = pickle.loads(pickle.dumps(sim.queue))
        assert restored.dispatch is None
        assert restored.dispatch_batch is None
        assert restored.batch_kinds == frozenset({"period"})


class TestQueueBatchDrain:
    def test_groups_consecutive_same_key_events(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(("one", kind, args))
        queue.dispatch_batch = lambda kind, batch: seen.append(
            ("batch", kind, list(batch))
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "period", "b")
        queue.schedule_event(1.0, "refresh", "r", priority=-1)
        queue.schedule_event(2.0, "period", "c")
        assert queue.run_until(5.0)
        assert seen == [
            ("one", "refresh", ("r",)),
            ("batch", "period", [("a",), ("b",)]),
            ("one", "period", ("c",)),
        ]

    def test_interposed_event_splits_the_run(self):
        # A differently keyed event between two batchable ones (by
        # sequence) must execute at its exact scalar-drain position.
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append((kind, args[0]))
        queue.dispatch_batch = lambda kind, batch: seen.append(
            (kind, [args[0] for args in batch])
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "attempt", "x")
        queue.schedule_event(1.0, "period", "b")
        queue.schedule_event(1.0, "period", "c")
        assert queue.run_until(5.0)
        assert seen == [
            ("period", "a"),
            ("attempt", "x"),
            ("period", ["b", "c"]),
        ]

    def test_cancelled_events_are_skipped_inside_a_run(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(args[0])
        queue.dispatch_batch = lambda kind, batch: seen.append(
            [args[0] for args in batch]
        )
        queue.batch_kinds = frozenset({"period"})
        queue.schedule_event(1.0, "period", "a")
        handle = queue.schedule_event(1.0, "period", "dead")
        queue.schedule_event(1.0, "period", "b")
        handle.cancel()
        assert queue.run_until(5.0)
        assert seen == [["a", "b"]]

    def test_batch_events_count_toward_stop_check(self):
        queue = EventQueue()
        queue.dispatch = lambda kind, args: None
        queue.dispatch_batch = lambda kind, batch: None
        queue.batch_kinds = frozenset({"period"})
        for _ in range(10):
            queue.schedule_event(1.0, "period", "n")
        calls = []
        assert not queue.run_until(
            5.0, stop_check=lambda: calls.append(1) or True, stop_every=4
        )
        # One batch of 10 crosses the stop_every=4 boundary once.
        assert len(calls) == 1

    def test_unbatched_kind_uses_plain_step(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(args[0])
        queue.batch_kinds = frozenset()
        queue.schedule_event(1.0, "period", "a")
        queue.schedule_event(1.0, "period", "b")
        assert queue.run_until(5.0)
        assert seen == ["a", "b"]


def test_batched_pass_reports_to_hot_profiler():
    from repro.obs import hot_profiler

    prof = hot_profiler()
    prof.reset()
    prof.enable()
    try:
        run_simulation(
            SimulationConfig(
                **{**BASE, "node_count": 8, "duration_s": 3600.0}
            )
        )
    finally:
        prof.disable()
    stats = prof.stats
    assert "engine.period_batch" in stats
    assert stats["engine.period_batch"]["calls"] >= 1
    prof.reset()
