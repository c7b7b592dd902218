"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError
from repro.sim import EventQueue


def recording_queue():
    """A queue whose ``dispatch`` appends each event's first arg to a list."""
    queue = EventQueue()
    seen = []
    queue.dispatch = lambda kind, args: seen.append(args[0])
    return queue, seen


class TestEventQueue:
    def test_starts_at_time_zero(self):
        assert EventQueue().now_s == 0.0

    def test_events_run_in_time_order(self):
        queue, seen = recording_queue()
        queue.schedule_event(2.0, "e", "b")
        queue.schedule_event(1.0, "e", "a")
        queue.schedule_event(3.0, "e", "c")
        assert queue.run_until(10.0)
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.dispatch = lambda kind, args: seen.append(queue.now_s)
        queue.schedule_event(5.0, "e")
        queue.run_until(5.0)
        assert seen == [5.0]
        assert queue.now_s == 5.0

    def test_same_time_priority_order(self):
        queue, seen = recording_queue()
        queue.schedule_event(1.0, "e", "low", priority=1)
        queue.schedule_event(1.0, "e", "high", priority=-1)
        queue.run_until(1.0)
        assert seen == ["high", "low"]

    def test_same_time_same_priority_fifo(self):
        queue, seen = recording_queue()
        for i in range(5):
            queue.schedule_event(1.0, "e", i)
        queue.run_until(1.0)
        assert seen == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_raises(self):
        queue, _ = recording_queue()
        queue.schedule_event(5.0, "e", None)
        queue.run_until(5.0)
        with pytest.raises(SchedulingError):
            queue.schedule_event(1.0, "e", None)

    def test_run_until_stops_at_boundary(self):
        queue, seen = recording_queue()
        queue.schedule_event(1.0, "e", 1)
        queue.schedule_event(10.0, "e", 10)
        queue.run_until(5.0)
        assert seen == [1]
        assert queue.now_s == 5.0
        assert queue.pending == 1

    def test_run_until_inclusive(self):
        queue, seen = recording_queue()
        queue.schedule_event(5.0, "e", 5)
        queue.run_until(5.0)
        assert seen == [5]

    def test_run_until_backwards_raises(self):
        queue, _ = recording_queue()
        queue.schedule_event(5.0, "e", None)
        queue.run_until(5.0)
        with pytest.raises(SchedulingError):
            queue.run_until(1.0)

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        order = []

        def cascade(kind, args):
            depth = args[0]
            order.append(depth)
            if depth < 3:
                queue.schedule_event(queue.now_s + 1.0, "cascade", depth + 1)

        queue.dispatch = cascade
        queue.schedule_event(0.0, "cascade", 0)
        queue.run_until(10.0)
        assert order == [0, 1, 2, 3]

    @pytest.mark.parametrize("batch_kinds", [frozenset(), frozenset({"period"})])
    def test_named_event_without_dispatch_raises(self, batch_kinds):
        # A lone batch-kind event goes to ``dispatch`` too, so binding
        # only ``dispatch_batch`` does not make it safe to drain.
        queue = EventQueue()
        queue.dispatch_batch = lambda kind, batch: None
        queue.batch_kinds = batch_kinds
        queue.schedule_event(1.0, "period", 42)
        with pytest.raises(SchedulingError, match="no dispatch hook"):
            queue.run_until(5.0)


BATCHED = ("p", "q")
KINDS = BATCHED + ("x",)

_event = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.integers(-2, 1),
    st.sampled_from(KINDS),
)
_follow_up = st.one_of(
    st.none(),
    st.tuples(st.sampled_from([0.0, 1.0]), st.integers(-2, 1), st.sampled_from(KINDS)),
)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(_event, min_size=1, max_size=25),
    follow_ups=st.lists(_follow_up, max_size=20),
)
def test_drain_matches_sorted_keys_and_maximal_runs(initial, follow_ups):
    """Draining pops in ``(time, priority, sequence)`` order and hands each
    maximal consecutive same-``(time, priority, kind)`` run of a batch
    kind to one dispatch call.

    Dispatched events consume ``follow_ups`` in order and schedule them.
    A follow-up always sorts after the event that scheduled it and never
    shares its ``(time, priority)``, so it cannot extend a run already
    popped and the sorted order of everything scheduled stays the
    expected pop order.
    """
    queue = EventQueue()
    queue.batch_kinds = frozenset(BATCHED)
    scheduled = {}  # sequence -> (time_s, priority, kind)
    calls = []
    pending_follow_ups = iter(follow_ups)

    def schedule(time_s, priority, kind):
        sequence = len(scheduled)
        scheduled[sequence] = (time_s, priority, kind)
        queue.schedule_event(time_s, kind, sequence, priority=priority)

    def handle(sequence):
        spec = next(pending_follow_ups, None)
        if spec is None:
            return
        delay, priority, kind = spec
        if delay == 0.0 and priority <= scheduled[sequence][1]:
            delay = 1.0
        schedule(queue.now_s + delay, priority, kind)

    def dispatch(kind, args):
        calls.append((kind, [args[0]]))
        handle(args[0])

    def dispatch_batch(kind, batch):
        assert len(batch) > 1
        calls.append((kind, [args[0] for args in batch]))
        for args in batch:
            handle(args[0])

    queue.dispatch = dispatch
    queue.dispatch_batch = dispatch_batch
    for time_s, priority, kind in initial:
        schedule(time_s, priority, kind)
    assert queue.run_until(1000.0)
    assert queue.pending == 0

    order = sorted(scheduled, key=lambda seq: scheduled[seq][:2] + (seq,))
    assert [seq for _, batch in calls for seq in batch] == order

    expected = []
    for seq in order:
        key = scheduled[seq]
        kind = key[2]
        if kind in BATCHED and expected and scheduled[expected[-1][1][-1]] == key:
            expected[-1][1].append(seq)
        else:
            expected.append((kind, [seq]))
    assert calls == expected
