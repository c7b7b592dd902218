"""Minimal discrete-event simulation kernel.

A deliberately small heapq-based engine in the style of NS-3's scheduler:
events are ``(time, priority, sequence, payload)`` tuples; ties break by
priority then insertion order, making runs fully deterministic for a
given seed.  This kernel underpins the exact (testbed-scale) simulator;
the multi-year mesoscopic runner bypasses it for speed.

Events come in two flavours:

* **callback events** (:meth:`EventQueue.schedule`) carry an arbitrary
  Python callable — convenient for tests and ad-hoc experiments but not
  snapshotable (closures don't pickle);
* **named events** (:meth:`EventQueue.schedule_event`) carry a
  ``(kind, args)`` pair dispatched through the queue's ``dispatch``
  hook.  The exact engine schedules exclusively through these, which is
  what makes a mid-run event queue checkpointable: the heap pickles as
  plain data and the dispatch hook is re-bound on resume.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import CheckpointError, SchedulingError

EventCallback = Callable[[], None]

#: Dispatch hook signature for named events.
EventDispatch = Callable[[str, Tuple[object, ...]], None]


@dataclass(order=True)
class _ScheduledEvent:
    time_s: float
    priority: int
    sequence: int
    callback: Optional[EventCallback] = field(compare=False, default=None)
    kind: Optional[str] = field(compare=False, default=None)
    args: Tuple[object, ...] = field(compare=False, default=())
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Opaque handle allowing a scheduled event to be cancelled."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event's callback from running (idempotent)."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    @property
    def time_s(self) -> float:
        """Scheduled absolute time of the event."""
        return self._event.time_s


#: Batch dispatch hook: one call handles a same-instant run of events
#: of one kind, receiving the args tuples in exact heap pop order.
EventBatchDispatch = Callable[[str, List[Tuple[object, ...]]], None]


class EventQueue:
    """The simulation clock and pending-event heap."""

    def __init__(self) -> None:
        self._heap: List[_ScheduledEvent] = []
        self._next_sequence = 0
        self._now_s = 0.0
        self._running = False
        self._peak_pending = 0
        #: Named-event dispatcher; the owning engine assigns this (it is
        #: excluded from pickling and re-bound on resume).
        self.dispatch: Optional[EventDispatch] = None
        #: Batch dispatcher (like :attr:`dispatch`, re-bound on resume).
        self.dispatch_batch: Optional[EventBatchDispatch] = None
        #: Named-event kinds eligible for batched popping in
        #: :meth:`run_until`: a maximal run of consecutive heap events
        #: sharing ``(time_s, priority, kind)`` is popped in one go and
        #: handed to :attr:`dispatch_batch` as a single call.  Because
        #: only *consecutive* events are grouped, execution order is
        #: exactly the heap order a one-at-a-time drain would produce.
        self.batch_kinds: frozenset = frozenset()

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._now_s

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def peak_pending(self) -> int:
        """High-water mark of queued events (memory-pressure profiling)."""
        return self._peak_pending

    def _push(self, event: _ScheduledEvent) -> EventHandle:
        heapq.heappush(self._heap, event)
        if len(self._heap) > self._peak_pending:
            self._peak_pending = len(self._heap)
        return EventHandle(event)

    def _check_time(self, time_s: float) -> None:
        if time_s < self._now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.6f}s; clock is at {self._now_s:.6f}s"
            )

    def schedule(
        self, time_s: float, callback: EventCallback, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time_s``.

        Lower ``priority`` runs first among same-time events.  Scheduling
        in the past is an error — it would silently reorder causality.
        """
        self._check_time(time_s)
        event = _ScheduledEvent(
            time_s=time_s,
            priority=priority,
            sequence=self._take_sequence(),
            callback=callback,
        )
        return self._push(event)

    def schedule_event(
        self, time_s: float, kind: str, *args: object, priority: int = 0
    ) -> EventHandle:
        """Schedule a named event dispatched via :attr:`dispatch`.

        Unlike callback events, named events pickle — the exact engine
        uses them exclusively so a mid-run queue can be checkpointed.
        """
        self._check_time(time_s)
        event = _ScheduledEvent(
            time_s=time_s,
            priority=priority,
            sequence=self._take_sequence(),
            kind=kind,
            args=args,
        )
        return self._push(event)

    def _take_sequence(self) -> int:
        sequence = self._next_sequence
        self._next_sequence += 1
        return sequence

    def schedule_in(
        self, delay_s: float, callback: EventCallback, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` after a relative delay."""
        if delay_s < 0:
            raise SchedulingError("delay cannot be negative")
        return self.schedule(self._now_s + delay_s, callback, priority)

    def step(self) -> bool:
        """Run the next non-cancelled event; returns False when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now_s = event.time_s
            if event.kind is not None:
                if self.dispatch is None:
                    raise SchedulingError(
                        f"named event {event.kind!r} queued but no dispatch "
                        f"hook is bound"
                    )
                self.dispatch(event.kind, event.args)
            else:
                event.callback()
            return True
        return False

    def run_until(
        self,
        end_time_s: float,
        stop_check: Optional[Callable[[], bool]] = None,
        stop_every: int = 64,
    ) -> bool:
        """Run events up to and including ``end_time_s``.

        Returns True when the horizon was reached (the clock then rests
        at ``end_time_s``), False when ``stop_check`` asked for an early
        stop — in that case the clock stays at the last executed event
        so the caller can checkpoint a consistent state.
        """
        if end_time_s < self._now_s:
            raise SchedulingError("cannot run backwards")
        executed = 0
        next_check = stop_every
        batch_kinds = self.batch_kinds
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time_s > end_time_s:
                break
            if (
                head.kind is not None
                and head.kind in batch_kinds
                and self.dispatch_batch is not None
            ):
                executed += self._step_batch(head)
            else:
                self.step()
                executed += 1
            if (
                stop_check is not None
                and executed >= next_check
            ):
                next_check = executed - executed % stop_every + stop_every
                if stop_check():
                    return False
        self._now_s = max(self._now_s, end_time_s)
        return True

    def _step_batch(self, head: _ScheduledEvent) -> int:
        """Pop and dispatch one maximal same-``(time, priority, kind)`` run.

        Only *consecutive* heap events are grouped, so a differently
        keyed event wedged between two batchable ones (by sequence)
        still executes at its exact scalar-drain position.  Returns the
        number of events executed.
        """
        heapq.heappop(self._heap)
        self._now_s = head.time_s
        batch = [head.args]
        while self._heap:
            nxt = self._heap[0]
            if nxt.cancelled:
                heapq.heappop(self._heap)
                continue
            if (
                nxt.time_s != head.time_s
                or nxt.priority != head.priority
                or nxt.kind != head.kind
            ):
                break
            heapq.heappop(self._heap)
            batch.append(nxt.args)
        if len(batch) == 1:
            if self.dispatch is None:
                raise SchedulingError(
                    f"named event {head.kind!r} queued but no dispatch "
                    f"hook is bound"
                )
            self.dispatch(head.kind, head.args)
        else:
            self.dispatch_batch(head.kind, batch)
        return len(batch)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally bounded); returns events executed."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    # ---------------------------------------------------------- checkpointing

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the heap as plain data (named events only).

        Ad-hoc callback events hold arbitrary callables (typically
        closures) and cannot be snapshotted; their presence makes the
        whole queue un-checkpointable, which is surfaced eagerly here.
        """
        for event in self._heap:
            if event.kind is None and not event.cancelled:
                raise CheckpointError(
                    "event queue holds callback-based events and cannot be "
                    "checkpointed; schedule via schedule_event() instead"
                )
        state = dict(self.__dict__)
        state["dispatch"] = None
        state["dispatch_batch"] = None
        # Cancelled callback events carry dead closures; drop them.
        state["_heap"] = [
            event for event in self._heap if not event.cancelled
        ]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        heapq.heapify(self._heap)
