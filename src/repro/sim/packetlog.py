"""Per-packet event logging for simulation debugging and analysis.

Aggregate metrics answer "how did the network do"; a packet log answers
"what happened to packet 1523 of node 7".  Both simulators can record
one :class:`PacketRecord` per generated packet when
``SimulationConfig.record_packets`` is set; the log supports filtering
and CSV export for offline analysis.

At very large node counts retaining every record is the dominant memory
cost, so a log can be built with a ``sample_nodes`` set: records from
unsampled nodes still update the aggregate counters
(:attr:`PacketLog.generated` / :attr:`PacketLog.delivered` /
:attr:`PacketLog.attempts` / :attr:`PacketLog.energy_drops`) but are not
stored — :attr:`PacketLog.unsampled` counts them, while
:attr:`PacketLog.dropped` keeps its original meaning of
capacity evictions only.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Deque, Iterator, List, Optional

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class PacketRecord:
    """The full lifecycle of one sampled packet."""

    node_id: int
    #: Absolute time the packet was generated (sampling-period start).
    generated_at_s: float
    #: Forecast window Algorithm 1 (or ALOHA) chose; -1 if dropped at
    #: decision time (FAIL).
    window_index: int
    #: Transmission attempts used (0 when never transmitted).
    attempts: int
    #: Whether an ACK was eventually received.
    delivered: bool
    #: Generation → ACK latency; the sampling period for failures.
    latency_s: float
    #: Eq. (16) utility credited to the packet.
    utility: float
    #: Whether the failure was an energy drop (brown-out / FAIL branch).
    energy_drop: bool = False

    @property
    def retransmissions(self) -> int:
        """Attempts beyond the first (0 when never transmitted)."""
        return max(0, self.attempts - 1)


class PacketLog:
    """A bounded, append-only collection of :class:`PacketRecord`.

    ``capacity`` bounds memory for long runs: once full, the earliest
    *stored* records are dropped (the tail of a run is usually what is
    being debugged), and :attr:`dropped` counts the evictions.

    ``sample_nodes`` restricts storage to a node-id set (None stores
    everything).  Counters are updated for every appended record,
    sampled or not, so network-wide delivery accounting survives the
    retention policy.
    """

    def __init__(
        self,
        capacity: int = 1_000_000,
        sample_nodes: Optional[frozenset] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self._capacity = capacity
        self._sample_nodes = (
            None if sample_nodes is None else frozenset(sample_nodes)
        )
        # deque(maxlen=...) evicts in O(1); list.pop(0) was O(n) per
        # eviction, quadratic over a long capped run.
        self._records: Deque[PacketRecord] = deque(maxlen=capacity)
        #: Stored records evicted past capacity.
        self.dropped = 0
        #: Records not stored because their node is outside sample_nodes.
        self.unsampled = 0
        #: Aggregate counters, updated for every appended record.
        self.generated = 0
        self.delivered = 0
        self.attempts = 0
        self.energy_drops = 0

    @property
    def sample_nodes(self) -> Optional[frozenset]:
        """The retained node-id set, or None when everything is stored."""
        return self._sample_nodes

    #: Records diverted by :meth:`hold`, or None while appending live.
    _held: Optional[List[PacketRecord]] = None

    def append(self, record: PacketRecord) -> None:
        """Add a record, evicting the oldest stored one past capacity."""
        if self._held is not None:
            self._held.append(record)
            return
        self.generated += 1
        self.attempts += record.attempts
        if record.delivered:
            self.delivered += 1
        if record.energy_drop:
            self.energy_drops += 1
        if (
            self._sample_nodes is not None
            and record.node_id not in self._sample_nodes
        ):
            self.unsampled += 1
            return
        if len(self._records) == self._capacity:
            self.dropped += 1
        self._records.append(record)

    def hold(self) -> None:
        """Divert appended records (uncounted) until :meth:`release`."""
        self._held = []

    def release(self) -> List[PacketRecord]:
        """Stop holding; returns the records held since :meth:`hold`."""
        held, self._held = self._held, None
        return held

    def merge(self, other: "PacketLog") -> None:
        """Fold another log's counters and stored records into this one.

        Used by the shard coordinator: per-cell logs arrive already
        filtered/capped, so stored records append in call order (the
        caller sorts cells deterministically) and counters sum.
        """
        self.generated += other.generated
        self.delivered += other.delivered
        self.attempts += other.attempts
        self.energy_drops += other.energy_drops
        self.unsampled += other.unsampled
        self.dropped += other.dropped
        for record in other._records:
            if len(self._records) == self._capacity:
                self.dropped += 1
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self._records)

    def for_node(self, node_id: int) -> List[PacketRecord]:
        """All records of one node, in generation order."""
        return [r for r in self._records if r.node_id == node_id]

    def failures(self) -> List[PacketRecord]:
        """Records of packets that were never ACKed."""
        return [r for r in self._records if not r.delivered]

    def where(self, predicate: Callable[[PacketRecord], bool]) -> List[PacketRecord]:
        """Records matching an arbitrary predicate."""
        return [r for r in self._records if predicate(r)]

    def to_csv(self) -> str:
        """Export the log as CSV text (one row per packet)."""
        buffer = io.StringIO()
        names = [f.name for f in fields(PacketRecord)]
        writer = csv.writer(buffer)
        writer.writerow(names)
        for record in self._records:
            writer.writerow([getattr(record, name) for name in names])
        return buffer.getvalue()
