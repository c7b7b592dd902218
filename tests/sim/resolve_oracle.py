"""The scalar window resolver, the reference for the sweep's resolver.

:func:`resolve_window` resolves a window pairwise, one attempt at a
time.  It makes the same RNG draws in the same order as
:func:`repro.sim.mesoscopic.resolve_window`, whose per-round scan runs
as array operations, so for any window the two must return equal
outcomes and leave the generator in the same state;
``tests/sim/test_resolve_oracle.py`` checks that on random windows.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

from repro.sim.mesoscopic import StaticAttempt, WindowEntry, WindowOutcome


class Attempt:
    """One scheduled transmission attempt inside a window resolution.

    Module-level ``__slots__`` class rather than a dataclass defined
    inside :func:`resolve_window`: the function runs once per contended
    window for the whole horizon, and rebuilding the dataclass machinery
    per call dominated its profile.
    """

    __slots__ = ("start_s", "entry", "attempt_no", "channel")

    def __init__(
        self, start_s: float, entry: WindowEntry, attempt_no: int, channel: int
    ) -> None:
        self.start_s = start_s
        self.entry = entry
        self.attempt_no = attempt_no
        self.channel = channel


def resolve_window(
    entries: List[WindowEntry],
    window_s: float,
    channel_count: int,
    omega: int,
    max_retransmissions: int,
    rng: random.Random,
    capture_threshold_db: float = 6.0,
    static_attempts: Sequence[StaticAttempt] = (),
) -> Dict[int, WindowOutcome]:
    """Exactly resolve contention among transmissions sharing a window.

    Immediate (ALOHA) entries start at offset 0; window-selected entries
    start at a uniform random offset.  Failed attempts retry after the
    class-A receive windows plus a 1-3 s jitter, up to the LoRa limit.
    Attempt overlap is resolved pairwise on channel (+SF) with capture;
    more than ω concurrent transmissions saturate the demodulators.

    ``static_attempts`` (border exchange) add one-shot foreign
    interference: they count toward ω concurrency and co-channel
    same-SF power but never retry and get no outcomes.  They consume no
    RNG draws, and they are accumulated *before* the live universe so
    the vectorized resolver can reproduce the float sums exactly.
    """
    if not entries:
        return {}

    def overlaps(a_start: float, a_end: float, b_start: float, b_end: float) -> bool:
        return a_start < b_end and b_start < a_end

    outcomes: Dict[int, WindowOutcome] = {}
    pending: List[Tuple[Attempt, float]] = []  # (attempt, end_s)
    for entry in entries:
        if entry.immediate:
            offset = entry.offset_in_window_s
        else:
            offset = rng.uniform(0.0, max(1e-6, window_s - entry.node.airtime_s))
        attempt = Attempt(
            start_s=offset,
            entry=entry,
            attempt_no=0,
            channel=rng.randrange(channel_count),
        )
        pending.append((attempt, offset + entry.node.airtime_s))

    # Iteratively resolve rounds: collisions among currently scheduled
    # attempts may spawn retries, which can collide again.
    resolved: List[Tuple[Attempt, float, bool]] = []
    while pending:
        # Pairwise collision resolution for this batch plus everything
        # already resolved (earlier attempts can overlap later ones).
        batch = sorted(pending, key=lambda item: item[0].start_s)
        universe = [(a, e) for a, e, _ in resolved] + batch
        survived: List[Tuple[Attempt, float, bool]] = []
        for attempt, end_s in batch:
            node = attempt.entry.node
            gateways = len(node.rssi_by_gateway)
            interferers_mw = [0.0] * gateways
            concurrent = 0
            for static in static_attempts:
                if not overlaps(
                    attempt.start_s, end_s, static.start_s, static.end_s
                ):
                    continue
                concurrent += 1
                if (
                    static.channel == attempt.channel
                    and static.spreading_factor
                    == node.tx_params.spreading_factor
                ):
                    for g in range(gateways):
                        interferers_mw[g] += static.lin_mw[g]
            for other, other_end in universe:
                if other is attempt:
                    continue
                if not overlaps(attempt.start_s, end_s, other.start_s, other_end):
                    continue
                concurrent += 1
                other_node = other.entry.node
                if (
                    other.channel == attempt.channel
                    and other_node.tx_params.spreading_factor
                    == node.tx_params.spreading_factor
                ):
                    for g in range(gateways):
                        interferers_mw[g] += 10.0 ** (
                            other_node.rssi_by_gateway[g] / 10.0
                        )
            # Delivered if any gateway hears it above sensitivity, with
            # a free demodulator, and clear of co-channel interference.
            ok = False
            if concurrent + 1 <= omega:
                for g in range(gateways):
                    rssi = node.rssi_by_gateway[g]
                    if rssi < node.sensitivity_dbm:
                        continue
                    if interferers_mw[g] == 0.0:
                        ok = True
                        break
                    sir_db = rssi - 10.0 * math.log10(interferers_mw[g])
                    if sir_db >= capture_threshold_db:
                        ok = True
                        break
            survived.append((attempt, end_s, ok))
        resolved.extend(survived)
        # Spawn retries for failures.
        pending = []
        for attempt, end_s, ok in survived:
            if ok:
                continue
            if attempt.attempt_no >= max_retransmissions:
                continue
            node = attempt.entry.node
            backoff = 2.0 + rng.uniform(1.0, 3.0)
            retry = Attempt(
                start_s=end_s + backoff,
                entry=attempt.entry,
                attempt_no=attempt.attempt_no + 1,
                channel=rng.randrange(channel_count),
            )
            pending.append((retry, retry.start_s + node.airtime_s))

    # Aggregate per node: first successful attempt wins.
    per_node: Dict[int, List[Tuple[Attempt, float, bool]]] = {}
    for attempt, end_s, ok in resolved:
        per_node.setdefault(attempt.entry.node.node_id, []).append(
            (attempt, end_s, ok)
        )
    for node_id, items in per_node.items():
        items.sort(key=lambda item: item[0].attempt_no)
        attempts_used = 0
        success = False
        finish = items[-1][1]
        for attempt, end_s, ok in items:
            attempts_used = attempt.attempt_no + 1
            if ok:
                success = True
                finish = end_s
                break
        outcomes[node_id] = WindowOutcome(
            attempts=attempts_used, success=success, finish_offset_s=finish
        )
    return outcomes
