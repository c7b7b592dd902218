"""Minimal discrete-event simulation kernel.

A deliberately small heapq-based engine in the style of NS-3's scheduler.
This kernel underpins the exact (testbed-scale) simulator; the multi-year
mesoscopic runner bypasses it for speed.

There is one kind of event, the named event: a ``kind`` string and an
``args`` tuple, dispatched through the queue's ``dispatch`` hook.  The
heap holds plain ``(time_s, priority, sequence, kind, args)`` tuples, so
every comparison is a C tuple comparison.  Ties break by priority, then
by the unique insertion ``sequence`` (so ``kind`` and ``args`` are never
compared), which makes runs fully deterministic for a given seed.  The
heap pickles as plain data and the dispatch hooks are re-bound on
resume, which is what makes a mid-run queue checkpointable.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import SchedulingError

#: Dispatch hook signature for named events.
EventDispatch = Callable[[str, Tuple[object, ...]], None]

#: Batch dispatch hook: one call handles a same-instant run of events
#: of one kind, receiving the args tuples in exact heap pop order.
EventBatchDispatch = Callable[[str, List[Tuple[object, ...]]], None]


class _ScheduledEvent:
    """Heap entry of snapshots written before the heap held tuples.

    Unpickling such a snapshot fills each instance's ``__dict__`` with
    the old fields; :meth:`EventQueue.__setstate__` turns it into a tuple.
    """


class EventQueue:
    """The simulation clock and pending-event heap."""

    def __init__(self) -> None:
        #: ``(time_s, priority, sequence, kind, args)`` entries.
        self._heap: List[Tuple[float, int, int, str, Tuple[object, ...]]] = []
        self._next_sequence = 0
        self._now_s = 0.0
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
        """Number of events still queued."""
        return len(self._heap)

    @property
    def peak_pending(self) -> int:
        """High-water mark of queued events (memory-pressure profiling)."""
        return self._peak_pending

    def schedule_event(
        self, time_s: float, kind: str, *args: object, priority: int = 0
    ) -> None:
        """Schedule a named event at ``time_s``, dispatched via :attr:`dispatch`.

        Lower ``priority`` runs first among same-time events.  Scheduling
        in the past is an error — it would silently reorder causality.
        """
        if time_s < self._now_s:
            raise SchedulingError(
                f"cannot schedule at {time_s:.6f}s; clock is at {self._now_s:.6f}s"
            )
        heap = self._heap
        heapq.heappush(heap, (time_s, priority, self._next_sequence, kind, args))
        self._next_sequence += 1
        if len(heap) > self._peak_pending:
            self._peak_pending = len(heap)

    def run_until(
        self,
        end_time_s: float,
        stop_check: Optional[Callable[[], bool]] = None,
        stop_every: int = 64,
    ) -> bool:
        """Run events up to and including ``end_time_s``.

        A maximal run of consecutive heap events sharing ``(time_s,
        priority, kind)`` with ``kind`` in :attr:`batch_kinds` goes to
        :attr:`dispatch_batch` in one call; every other event, a lone
        batch-kind one included, goes to :attr:`dispatch`.

        Returns True when the horizon was reached (the clock then rests
        at ``end_time_s``), False when ``stop_check`` asked for an early
        stop — in that case the clock stays at the last executed event
        so the caller can checkpoint a consistent state.
        """
        if end_time_s < self._now_s:
            raise SchedulingError("cannot run backwards")
        heap = self._heap
        pop = heapq.heappop
        batch_kinds = self.batch_kinds
        executed = 0
        next_check = stop_every
        while heap and heap[0][0] <= end_time_s:
            time_s, priority, _, kind, args = pop(heap)
            self._now_s = time_s
            count = 1
            if kind in batch_kinds and self.dispatch_batch is not None:
                batch = [args]
                while heap:
                    head = heap[0]
                    if head[0] != time_s or head[1] != priority or head[3] != kind:
                        break
                    batch.append(pop(heap)[4])
                count = len(batch)
            if count > 1:
                self.dispatch_batch(kind, batch)
            elif self.dispatch is None:
                raise SchedulingError(
                    f"named event {kind!r} queued but no dispatch hook is bound"
                )
            else:
                self.dispatch(kind, args)
            executed += count
            if stop_check is not None and executed >= next_check:
                next_check = executed - executed % stop_every + stop_every
                if stop_check():
                    return False
        self._now_s = max(self._now_s, end_time_s)
        return True

    # ---------------------------------------------------------- checkpointing

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the heap as plain data; the engine re-binds the hooks."""
        state = dict(self.__dict__)
        state["dispatch"] = None
        state["dispatch_batch"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._heap = [
            entry
            if type(entry) is tuple
            else (entry.time_s, entry.priority, entry.sequence, entry.kind, entry.args)
            for entry in self._heap
        ]
        heapq.heapify(self._heap)
