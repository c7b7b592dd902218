"""Staleness of a node's disseminated ``w_u``: its TTL and half-life decay.

A MAC keeps the last ``w_u`` an ACK carried and its arrival time
(``weight_received_at_s``); lost ACKs and gateway outages leave it to
age.  With ``SimulationConfig.w_u_ttl_s`` set, the exact engine scores
each node with :func:`effective_degradation`: the held value within the
TTL; past it, a decay toward the new-battery default of 0 with a
half-life of one TTL, rather than trusting stale data forever or
dropping it at a cliff edge.  Without a TTL, or for an unstamped
weight, the held value is used forever.  Periods that start with a
stale weight count in ``FaultCounters.stale_weight_periods``.
"""

from __future__ import annotations

from typing import Optional


def weight_is_stale(mac, ttl_s: Optional[float], now_s: float) -> bool:
    """Whether the ``w_u`` that ``mac`` holds is past ``ttl_s`` at ``now_s``."""
    received = mac.weight_received_at_s
    if ttl_s is None or received is None:
        return False
    return now_s - received > ttl_s


def effective_degradation(
    mac, ttl_s: Optional[float], now_s: float, trace=None, node_id=None
) -> float:
    """The ``w_u`` steering ``mac``'s DIF at ``now_s``; a decayed one
    emits ``wu.stale_decay`` for ``node_id`` on ``trace``, if given."""
    held = mac.normalized_degradation
    if not weight_is_stale(mac, ttl_s, now_s):
        return held
    age = now_s - mac.weight_received_at_s
    decayed = held * 0.5 ** ((age - ttl_s) / ttl_s)
    if trace is not None:
        trace.emit(
            now_s,
            "wu",
            "wu.stale_decay",
            severity="debug",
            node_id=node_id,
            held_w_u=held,
            effective_w_u=decayed,
            age_s=age,
            ttl_s=ttl_s,
        )
    return decayed
