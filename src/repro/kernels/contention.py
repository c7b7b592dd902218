"""Window-contention round-scan kernel (overlap, concurrency, capture).

One *round* of the vectorized window resolver tests every pending
attempt against the universe of already-placed attempts plus the static
border interferers: overlap → concurrency vs ω, co-channel/co-SF
overlap → interference, and for interfered attempts the order-sensitive
per-gateway mW accumulation plus the capture-threshold test.  The
comparisons are exact and the mW accumulation follows the scalar
resolver's operand order (statics first, then the universe in index
order), so the ``ok`` vectors are bit-identical to the scalar
resolver's: a boolean-matrix scan with a scalar per-row fallback for the
(rare) interfered attempts, lifted verbatim from the resolver.

All RNG draws (offsets, channels, backoffs) stay with the caller — the
kernel only consumes already-drawn placements.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from ..obs.profiling import hot_profiler

_PROF = hot_profiler()


class ResolveContext:
    """Per-resolver-call immutable inputs, marshalled once per window.

    Holds the per-entry static data (spreading factors, range flags,
    linear received powers, sensitivities) and the static-interferer
    rows.
    """

    __slots__ = (
        "nodes",
        "gateways",
        "omega",
        "capture_db",
        "sfs_arr",
        "in_range",
        "lin_list",
        "static_attempts",
        "ns",
        "s_starts",
        "s_ends",
        "s_chans",
        "s_sfs",
    )

    def __init__(self, nodes, static_attempts, omega, capture_db):
        self.nodes = nodes
        self.gateways = len(nodes[0].rssi_by_gateway)
        self.omega = omega
        self.capture_db = capture_db
        self.sfs_arr = np.array(
            [node.tx_params.spreading_factor for node in nodes]
        )
        self.in_range = np.array(
            [node.rssi_dbm >= node.sensitivity_dbm for node in nodes]
        )
        self.lin_list = [node_rssi_lin_mw(node) for node in nodes]
        self.static_attempts = static_attempts
        ns = len(static_attempts)
        self.ns = ns
        if ns:
            self.s_starts = np.array([s.start_s for s in static_attempts])
            self.s_ends = np.array([s.end_s for s in static_attempts])
            self.s_chans = np.array(
                [s.channel for s in static_attempts], dtype=np.int64
            )
            self.s_sfs = np.array(
                [s.spreading_factor for s in static_attempts]
            )
        else:
            self.s_starts = self.s_ends = self.s_chans = self.s_sfs = None


def node_rssi_lin_mw(node) -> List[float]:
    """Per-gateway received power in mW, cached on the node.

    ``10 ** (rssi / 10)`` is a pure function of the static per-gateway
    RSSI, so precomputing it yields bit-identical interference sums.
    """
    lin = getattr(node, "_rssi_lin_mw", None)
    if lin is None:
        lin = [10.0 ** (r / 10.0) for r in node.rssi_by_gateway]
        node._rssi_lin_mw = lin
    return lin


def round_ok(
    ctx: ResolveContext,
    b_starts,
    b_ends,
    b_chans,
    b_entry,
    u_starts,
    u_ends,
    u_chans,
    u_entry_arr,
    nres: int,
):
    """Scan one resolver round.

    Returns the per-attempt ``ok`` boolean vector: admitted by ω,
    in range, and either interference-free or winning capture.
    """
    started = time.perf_counter() if _PROF.enabled else None
    try:
        kb = b_starts.size
        sfs_arr = ctx.sfs_arr
        u_sfs = sfs_arr[u_entry_arr]
        b_sfs = sfs_arr[b_entry]
        overlap = (b_starts[:, None] < u_ends[None, :]) & (
            u_starts[None, :] < b_ends[:, None]
        )
        overlap[np.arange(kb), nres + np.arange(kb)] = False
        concurrent = overlap.sum(axis=1)
        same = (
            overlap
            & (u_chans[None, :] == b_chans[:, None])
            & (u_sfs[None, :] == b_sfs[:, None])
        )
        icount = same.sum(axis=1)
        ns = ctx.ns
        if ns:
            s_overlap = (b_starts[:, None] < ctx.s_ends[None, :]) & (
                ctx.s_starts[None, :] < b_ends[:, None]
            )
            concurrent = concurrent + s_overlap.sum(axis=1)
            s_same = (
                s_overlap
                & (ctx.s_chans[None, :] == b_chans[:, None])
                & (ctx.s_sfs[None, :] == b_sfs[:, None])
            )
            icount = icount + s_same.sum(axis=1)
        free = concurrent + 1 <= ctx.omega
        ok = free & ctx.in_range[b_entry] & (icount == 0)
        # Interfered attempts drop to the exact scalar accumulation — the
        # interference sum and capture test are order-sensitive float math
        # (statics first, like the scalar resolver's accumulation).
        gateways = ctx.gateways
        lin_list = ctx.lin_list
        nodes = ctx.nodes
        capture_db = ctx.capture_db
        for i in np.nonzero(free & (icount > 0))[0]:
            node = nodes[b_entry[i]]
            mw = [0.0] * gateways
            if ns:
                for si in np.nonzero(s_same[i])[0]:
                    s_lin = ctx.static_attempts[si].lin_mw
                    for g in range(gateways):
                        mw[g] += s_lin[g]
            for u in np.nonzero(same[i])[0]:
                other_lin = lin_list[u_entry_arr[u]]
                for g in range(gateways):
                    mw[g] += other_lin[g]
            hit = False
            sens = node.sensitivity_dbm
            rssi_list = node.rssi_by_gateway
            for g in range(gateways):
                rssi = rssi_list[g]
                if rssi < sens:
                    continue
                if mw[g] == 0.0:
                    hit = True
                    break
                if rssi - 10.0 * math.log10(mw[g]) >= capture_db:
                    hit = True
                    break
            ok[i] = hit
        return ok
    finally:
        if started is not None:
            _PROF.add("contention.round_ok", time.perf_counter() - started)
