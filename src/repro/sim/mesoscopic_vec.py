"""The mesoscopic simulator's event sweep, in batched kernels.

:class:`~repro.sim.mesoscopic.MesoscopicSimulator` runs its horizon
through :func:`run_sweep`: a chronological heap of period starts and
window resolutions, executed with three batched kernels:

* **Period epochs** — all PERIOD events at one instant pop together (a
  PERIOD event never enqueues another at its own timestamp).  When
  nothing decided is held, popping such a cohort at ``t1`` opens an
  epoch ending at ``E = min(t1 + min(shortest period,
  _LOOKAHEAD_WINDOWS × window), next refresh, next checkpoint)``, and
  :func:`_decide_periods` settles, forecasts and scores in one batch
  the cohort plus every PERIOD event in ``[t1, E)`` whose node has no
  window resolving first.  Deciding touches only the node's own state
  and pure functions, and the node's own resolve is the only event
  that could change that state before its period start; such nodes
  are left for their own pop.  Each node has one PERIOD event queued,
  so it is decided at most once per epoch, and the next periods pushed
  while booking land at or past ``E``.  No refresh and no snapshot
  falls inside an epoch (the stop-request poll waits for the epoch to
  drain).  :func:`_book_periods` then applies every shared effect —
  metrics, packet records, trace events, window buckets, border
  intents, heap pushes and peak-depth accounting — one popped cohort
  at a time, in pop order, so every result is the one a sweep popping
  one event at a time would produce.
* **Cohort-wide harvest** — the settle chunks of a whole batch (and,
  at period starts, its forecast windows too) are evaluated through
  one shared :meth:`SolarModel.power_watts_batch` call and one gather
  from the sweep's :class:`~repro.kernels.shading.ShadingTable`; the
  switch/battery arithmetic is applied with the exact operation order
  of ``SoftwareDefinedSwitch.apply_window`` (see ``_apply_chunks``).
* **Batched Algorithm 1** —
  :func:`repro.core.mac.batch_choose_windows_mixed` scores one padded
  node × window matrix per decide batch, each row at its own period
  start.

Tracing changes no result and no code path.  Events are emitted where
a one-event-at-a-time sweep would emit them: a node decided ahead keeps
its settle brown-outs and its ``window.selected`` event with its
decision until it is booked, and batched settles hand back each item's
brown-outs for the caller to emit before that item's own events.  The
outputs of a matrix of scenarios, traces included, are pinned by golden
digests (``tests/sim/golden.py``).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..checkpoint.interrupt import stop_requested
from ..constants import SECONDS_PER_YEAR
from ..core.mac import batch_choose_windows_mixed
from ..exceptions import ConfigurationError
from ..kernels import rainflow as krainflow
from ..kernels import settle as ksettle
from ..kernels import shading as kshading
from ..obs import TraceEvent
from .mesoscopic import (
    MesoNode,
    MonthlySample,
    WindowEntry,
    WindowOutcome,
    _SweepState,
    resolve_window,
)
from .packetlog import PacketRecord


class _FastDecision:
    """Minimal stand-in for :class:`WindowDecision` in window entries.

    Resolution only reads ``decision.utility``; carrying the single
    float avoids materializing the per-window score lists the batch
    scorer already holds as matrices.
    """

    __slots__ = ("utility",)

    def __init__(self, utility: float) -> None:
        self.utility = utility


# --------------------------------------------------------------- harvest


def shading_table_width(config, step_s: float) -> int:
    """Slots per node of the sweep's shading table (a power of two).

    Between two of its period starts a node touches shading indices
    from its last settle (at most one period back) to the end of its
    forecast horizon, plus one settle chunk of slack; a row this wide
    holds them all, so steady-state gathers draw each index once.
    """
    longest = config.period_range_s[1]
    horizon = config.windows_per_period(longest) * config.window_s
    span = longest + horizon + config.settle_chunk_s()
    return 1 << (max(1, math.ceil(span / step_s)) - 1).bit_length()


class _Harvest:
    """The sweep's cohort-wide harvest: shared solar plus shading table.

    Every node shares the simulator's regional :class:`SolarModel`,
    shading grid and efficiency, so one solar evaluation and one table
    gather serve any set of (node, time) points.  The table holds only
    pure-function values and lives with this sweep, never in snapshots:
    a resumed run starts a fresh one.
    """

    __slots__ = ("solar", "table", "step_s", "efficiency")

    def __init__(self, sim) -> None:
        # Table row i is the i-th node built, which is ``MesoNode.row``.
        harvesters = [node.harvester for node in sim.nodes.values()]
        first = harvesters[0]
        self.solar = first.solar
        self.step_s = first.shading_step_s
        self.efficiency = first.efficiency
        self.table = None
        if first.shading_sigma != 0.0:
            self.table = kshading.ShadingTable(
                harvesters, shading_table_width(sim.config, self.step_s)
            )

    def shading(self, mids: np.ndarray, solar: np.ndarray, rows) -> np.ndarray:
        """Shading factors at ``mids`` for table ``rows``, in one gather.

        Night points (solar == 0) keep 1.0 and are never drawn: zero
        panel output multiplies to an exact 0.0 whatever the factor, and
        the factor is a pure function of its grid index, so the skipped
        draws cannot perturb later values.
        """
        shade = np.ones(mids.shape)
        if self.table is not None:
            day = solar != 0.0
            if day.any():
                grid = np.floor_divide(mids[day], self.step_s).astype(np.int64)
                shade[day] = kshading.gather(self.table, grid, rows[day])
        return shade


# --------------------------------------------------------------- settling


def _plan_settles(
    items: Sequence[Tuple[MesoNode, float, float]], chunk_s: float
) -> Tuple[list, List[float], np.ndarray]:
    """Lay out the settle chunks of ``(node, time, extra_demand)`` items.

    Returns the per-item plans, every chunk midpoint and each midpoint's
    shading-table row.
    """
    plans = []
    mids: List[float] = []
    rows: List[int] = []
    counts: List[int] = []
    for node, now_s, extra in items:
        now_s = max(now_s, node.settled_until_s)
        cursor = node.settled_until_s
        ends: List[float] = []
        durations: List[float] = []
        while cursor < now_s - 1e-9:
            chunk_end = min(now_s, cursor + chunk_s)
            duration = chunk_end - cursor
            ends.append(chunk_end)
            durations.append(duration)
            mids.append(cursor + duration / 2.0)
            cursor = chunk_end
        plans.append((node, now_s, extra, ends, durations))
        rows.append(node.row)
        counts.append(len(ends))
    return plans, mids, np.repeat(np.array(rows, dtype=np.int64), counts)


def _brownout(
    node: MesoNode,
    time_s: float,
    unmet_j: float,
    demand_j: float,
    harvested_j: float,
    soc: float,
) -> TraceEvent:
    """A held ``energy.brownout`` event, as the switch would emit it."""
    return TraceEvent(
        time_s,
        "energy",
        "energy.brownout",
        "warning",
        node.node_id,
        dict(shortfall_j=unmet_j, demand_j=demand_j, harvested_j=harvested_j, soc=soc),
    )


def _apply_settles(plans: list, powers: List[float]) -> Tuple[List[float], List[list]]:
    """Apply planned chunks with their harvest powers.

    Returns each plan's shortfall and, when tracing, the brown-out
    events its chunks produced (held for the caller to emit where a
    one-node settle would have).  Cross-node work is order-independent
    (each node only touches its own battery state), so batching
    preserves one-at-a-time results as long as one node appears at
    most once per batch.
    """
    pos = 0
    shortfalls: List[float] = []
    held: List[list] = []
    for node, now_s, extra, ends, durations in plans:
        count = len(ends)
        brownouts = []
        if count:
            chunk_powers = powers[pos : pos + count]
            shortfall, short, socs = _apply_chunks(
                node, ends, durations, chunk_powers, extra
            )
            pos += count
            if short and node.trace is not None:
                last = count - 1
                for i, unmet in short:
                    demand = node.sleep_watts * durations[i]
                    if i == last:
                        demand += extra
                    brownouts.append(
                        _brownout(
                            node,
                            ends[i],
                            unmet,
                            demand,
                            chunk_powers[i] * durations[i],
                            float(socs[i]),
                        )
                    )
        else:
            shortfall = 0.0
            if extra > 0:
                # Settling to the same instant: apply the demand directly
                # (the switch's deficit branch with zero harvest).
                battery = node.battery
                used = min(extra, battery.stored_j)
                shortfall = extra - used
                battery.stored_j = max(0.0, battery.stored_j - used)
                _advance(battery, node.settled_until_s)
                if shortfall > ksettle.BROWNOUT_J and node.trace is not None:
                    brownouts.append(
                        _brownout(
                            node, node.settled_until_s, shortfall, extra, 0.0, battery.soc
                        )
                    )
        node.settled_until_s = max(node.settled_until_s, now_s)
        shortfalls.append(shortfall)
        held.append(brownouts)
    return shortfalls, held


def _settle_items(
    items: Sequence[Tuple[MesoNode, float, float]],
    harvest: _Harvest,
    chunk_s: float,
) -> Tuple[List[float], List[list]]:
    """Settle ``(node, time, extra_demand)`` items.

    Returns what :func:`_apply_settles` returns.  One solar evaluation
    and one shading gather cover every chunk of every item, then a
    single ``(solar × shading) × η`` expression — elementwise identical
    to ``Harvester.power_watts`` per chunk.
    """
    plans, mids, rows = _plan_settles(items, chunk_s)
    powers: List[float] = []
    if mids:
        mids_arr = np.array(mids)
        solar = harvest.solar.power_watts_batch(mids_arr)
        shade = harvest.shading(mids_arr, solar, rows)
        powers = ((solar * shade) * harvest.efficiency).tolist()
    return _apply_settles(plans, powers)


def _advance(battery, now_s: float) -> None:
    """Inline of ``Battery._advance`` (monotonicity holds by schedule)."""
    battery._now_s = now_s
    soc = battery.stored_j / battery.capacity_j
    battery.trace.append(now_s, soc)
    battery._incremental.push(min(soc, 1.0))


def _apply_chunks(
    node: MesoNode,
    ends: List[float],
    durations: List[float],
    powers: List[float],
    extra: float,
) -> Tuple[float, list, Sequence[float]]:
    """Apply settle chunks with the exact scalar switch/battery ops.

    Reproduces ``SoftwareDefinedSwitch.apply_window`` plus
    ``Battery.charge``/``discharge``/``settle`` per chunk, bit for bit:
    same min/max/accumulation order, the extra (transmission) demand
    added to the final chunk only.  The recurrence itself runs through
    :func:`repro.kernels.settle.recurrence`, which validates, clamps
    and integrates the SoC samples; they then go through the trace's
    one merge rule (``SocTrace.merge_samples``) and the streaming-
    rainflow replay kernel (``StreamingRainflow.extend_batch``), state-
    identical to one append and one push per sample.  The charge
    limit is hoisted — degradation is constant between refreshes, so
    ``min(current_max, θ·capacity)`` is loop-invariant.  Returns the
    shortfall, the kernel's short chunks and the SoC samples.
    """
    battery = node.battery
    trace = battery.trace
    prev_t, prev_c = trace._last_time, trace._last_soc
    if prev_t is not None and ends[0] < prev_t:
        raise ConfigurationError("trace times must be non-decreasing")
    have_prev = prev_t is not None
    socs, stored, shortfall, integral, _, _, short = ksettle.recurrence(
        ends,
        durations,
        powers,
        node.sleep_watts,
        extra,
        battery.stored_j,
        min(
            battery.current_max_capacity_j,
            node.switch.soc_cap * battery.capacity_j,
        ),
        battery.capacity_j,
        have_prev,
        prev_t if have_prev else 0.0,
        prev_c if have_prev else 0.0,
        trace._weighted_integral,
    )
    trace.merge_samples(ends, socs, integral)
    krainflow.replay(battery._incremental._stream, socs)
    battery.stored_j = stored
    battery._now_s = ends[len(ends) - 1]
    return shortfall, short, socs


# ------------------------------------------------------------ period starts


#: Lookahead span of a period epoch, in windows.  An epoch decides every
#: eligible PERIOD event up to this far ahead (capped by the shortest
#: period, the next degradation refresh and the next checkpoint) in one
#: batch.  Six windows lift a telemetry cell's decide batches from ~6.5
#: to ~95 rows; 12 and 48 windows were no faster and raised peak RSS by
#: ~2.5 % and ~17 %.
_LOOKAHEAD_WINDOWS = 6


def _decide_periods(
    sim,
    batch: List[MesoNode],
    times: List[float],
    harvest: _Harvest,
) -> List[tuple]:
    """Settle, forecast and score PERIOD events; returns the decisions.

    Row ``i`` is node ``batch[i]``'s period start at ``times[i]``; each
    node appears at most once.  These stages touch only the node's own
    battery, forecaster and MAC (plus pure-function harvest caches), so
    any set of commuting events may be decided together, ahead of their
    pops.  Everything shared — metrics, packet log, window buckets,
    heap — waits for :func:`_book_periods`.  Each decision is
    ``(success, window index, utility, held)``: ``held`` lists the
    node's trace events (settle brown-outs, then ``window.selected``;
    none when tracing is off), held until the node is booked.
    """
    config = sim.config
    window_s = config.window_s
    plans, mids, rows = _plan_settles(
        [(node, now_s, 0.0) for node, now_s in zip(batch, times)],
        config.settle_chunk_s(),
    )
    settled = len(mids)
    select = config.use_window_selection
    # One solar evaluation for the settle chunks and the forecast
    # windows together (power_watts_batch is elementwise).  Forecast
    # midpoints are laid out once per distinct instant; rows index
    # their instant's row of the (instants × windows) block.
    points = np.array(mids)
    if select:
        counts = [node.windows_per_period for node in batch]
        max_count = max(counts)
        instants, instant_of = np.unique(np.array(times), return_inverse=True)
        forecast_mids = (
            instants[:, None] + np.arange(max_count) * window_s
        ) + window_s / 2.0
        points = np.concatenate([points, forecast_mids.reshape(-1)])
    solar = harvest.solar.power_watts_batch(points) if points.size else points
    settle_solar = solar[:settled]
    if select:
        forecast_solar = solar[settled:].reshape(len(instants), max_count)
    if select and config.forecaster == "oracle":
        # Oracle forecasts are the harvester's true energies, so the
        # daylit forecast windows join the settle chunks in one shading
        # gather, then take the ``((solar × shading) × η) × window``
        # operand order of ``window_energies_batch``.  Night windows
        # stay an exact 0.0; pad columns (past a row's count) stay 0.0
        # and the scorer masks them infeasible.
        pick = (np.arange(max_count) < np.array(counts)[:, None]) & (
            forecast_solar != 0.0
        )[instant_of]
        pick_rows, pick_cols = np.nonzero(pick)
        pick_instants = instant_of[pick_rows]
        pick_solar = forecast_solar[pick_instants, pick_cols]
        node_rows = np.array([node.row for node in batch], dtype=np.int64)
        shade = harvest.shading(
            np.concatenate([points[:settled], forecast_mids[pick_instants, pick_cols]]),
            np.concatenate([settle_solar, pick_solar]),
            np.concatenate([rows, node_rows[pick_rows]]),
        )
        green = np.zeros((len(batch), max_count))
        green[pick_rows, pick_cols] = (
            (pick_solar * shade[settled:]) * harvest.efficiency
        ) * window_s
        shade = shade[:settled]
    else:
        shade = harvest.shading(points[:settled], settle_solar, rows)
        if select:
            # Forecasts never read battery state, so they may precede
            # the settles.
            green = np.zeros((len(batch), max_count))
            for i, (node, count, now_s) in enumerate(zip(batch, counts, times)):
                green[i, :count] = node.forecaster.forecast_batch(
                    now_s,
                    window_s,
                    count,
                    solar_powers=forecast_solar[instant_of[i], :count],
                )
    _, held = _apply_settles(
        plans, ((settle_solar * shade) * harvest.efficiency).tolist()
    )
    trace = sim._trace
    if not select:
        # ALOHA / threshold-only: window 0, always "scheduled"; the
        # linear utility of window 0 is exactly 1.0 for any |T|, and the
        # forecast is not consulted (no estimator/RNG side effects).
        return [(True, 0, 1.0, events) for events in held]
    # One padded scoring call: rows carry their own |T| and period start.
    stored = [node.battery.stored_j for node in batch]
    result = batch_choose_windows_mixed(
        [node.mac for node in batch],
        np.array(stored),
        green,
        [node.attempt_energy_j for node in batch],
        counts,
        times,
    )
    success = result.success.tolist()
    window_index = result.window_index.tolist()
    if trace is not None and trace.wants("window", "debug"):
        # Held with the node's settle brown-outs until it is booked.
        for i, node in enumerate(batch):
            held[i].append(
                TraceEvent(
                    times[i],
                    "window",
                    "window.selected",
                    "debug",
                    node.node_id,
                    result.selected_fields(i, counts[i], stored[i]),
                )
            )
    return list(
        zip(success, window_index, result.chosen_utilities().tolist(), held)
    )


def _book_periods(
    sim,
    batch: List[MesoNode],
    now_s: float,
    decisions: List[tuple],
    pending_windows: Dict[int, List[WindowEntry]],
    heap: List,
    seq: int,
    duration: float,
    resolve_at: Dict[int, float],
) -> int:
    """Book one popped same-instant cohort's decisions; returns new seq.

    Runs in cohort order — the heap pop order — so metrics, packet
    records, trace events, window-bucket appends, border intents, heap
    sequence numbers and peak-depth accounting follow the events one at
    a time.  ``resolve_at`` learns each booked node's resolve time.
    """
    config = sim.config
    window_s = config.window_s
    trace = sim._trace
    remaining = len(batch)
    for node, (success, window_index, utility, held) in zip(batch, decisions):
        if held:
            trace.publish(held)
        node.metrics.record_generated()
        if not success:
            node.metrics.record_failure(0, 0.0, energy_drop=True)
            if trace is not None:
                trace.emit(
                    now_s,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=node.node_id,
                    reason="no_feasible_window",
                    soc=node.battery.soc,
                )
            if sim.packet_log is not None:
                sim.packet_log.append(
                    PacketRecord(
                        node_id=node.node_id,
                        generated_at_s=now_s,
                        window_index=-1,
                        attempts=0,
                        delivered=False,
                        latency_s=node.placement.period_s,
                        utility=0.0,
                        energy_drop=True,
                    )
                )
        else:
            node.metrics.record_window(window_index)
            if trace is not None and trace.wants("packet", "debug"):
                trace.emit(
                    now_s,
                    "packet",
                    "packet.generated",
                    severity="debug",
                    node_id=node.node_id,
                    window_index=window_index,
                    soc=node.battery.soc,
                )
            tx_time = now_s + window_index * window_s
            absolute_window = int(tx_time // window_s)
            entry = WindowEntry(
                node=node,
                immediate=not config.use_window_selection,
                window_index_in_period=window_index,
                period_start_s=now_s,
                decision=_FastDecision(utility),
                offset_in_window_s=tx_time - absolute_window * window_s,
            )
            bucket = pending_windows.setdefault(absolute_window, [])
            bucket.append(entry)
            sim._export_intent(entry, absolute_window)
            resolve_time = (absolute_window + 1) * window_s
            resolve_at[node.node_id] = resolve_time
            if len(bucket) == 1:
                heapq.heappush(heap, (resolve_time, 1, seq, absolute_window))
        seq += 1
        next_start = now_s + node.placement.period_s
        if next_start <= duration:
            heapq.heappush(heap, (next_start, 0, seq, node.node_id))
            seq += 1
        # The peak counts as if checked after each event: the cohort's
        # still-unbooked events would then still sit in the heap.
        remaining -= 1
        virtual_depth = len(heap) + remaining
        if virtual_depth > sim._peak_heap:
            sim._peak_heap = virtual_depth
    return seq


# --------------------------------------------------------------- resolution


def _resolve_single(entry: WindowEntry, window_s: float, config, rng) -> WindowOutcome:
    """Resolve an uncontended window without the pairwise machinery.

    Draw-for-draw identical to :func:`resolve_window` with one entry: a
    lone attempt succeeds iff any gateway hears the node above
    sensitivity (no interferers, and ω ≥ 1 always admits one signal);
    an out-of-range node burns its full retry budget, consuming the
    same backoff/channel draws.  ``tests/sim/test_resolve_oracle.py``
    checks both against the scalar reference resolver in
    ``tests/sim/resolve_oracle.py``.
    """
    node = entry.node
    airtime = node.airtime_s
    if entry.immediate:
        offset = entry.offset_in_window_s
    else:
        offset = rng.uniform(0.0, max(1e-6, window_s - airtime))
    rng.randrange(config.channel_count)
    end = offset + airtime
    if node.rssi_dbm >= node.sensitivity_dbm:
        return WindowOutcome(attempts=1, success=True, finish_offset_s=end)
    for _ in range(config.max_retransmissions):
        backoff = 2.0 + rng.uniform(1.0, 3.0)
        rng.randrange(config.channel_count)
        end = (end + backoff) + airtime
    return WindowOutcome(
        attempts=config.max_retransmissions + 1,
        success=False,
        finish_offset_s=end,
    )


def _resolve_batch(
    sim,
    entries: List[WindowEntry],
    window_index: int,
    window_s: float,
    harvest: _Harvest,
) -> None:
    """Resolve one absolute window's entries and book their outcomes.

    A lone entry with no static interferers takes the single-entry fast
    path; every other window goes through :func:`resolve_window`.  Both
    make the same RNG draws.  Settles run as one batch; per-entry
    bookkeeping and trace events follow entry order.
    """
    config = sim.config
    trace = sim._trace
    statics = sim._statics_for(window_index)
    if len(entries) == 1 and not statics:
        outcomes = {
            entries[0].node.node_id: _resolve_single(
                entries[0], window_s, config, sim.rng
            )
        }
    else:
        outcomes = resolve_window(
            entries,
            window_s=window_s,
            channel_count=config.channel_count,
            omega=config.omega,
            max_retransmissions=config.max_retransmissions,
            rng=sim.rng,
            static_attempts=statics,
        )
    window_start = window_index * window_s
    chunk_s = config.settle_chunk_s()
    observe = config.forecaster == "persistence"

    items = []
    for entry in entries:
        node = entry.node
        outcome = outcomes[node.node_id]
        settle_time = max(
            window_start + outcome.finish_offset_s, node.settled_until_s
        )
        demand = outcome.attempts * node.attempt_energy_j
        items.append((node, settle_time, demand))
    shortfalls, held = _settle_items(items, harvest, chunk_s)
    for entry, (node, settle_time, demand), shortfall, brownouts in zip(
        entries, items, shortfalls, held
    ):
        if brownouts:
            trace.publish(brownouts)
        outcome = outcomes[node.node_id]
        decision = entry.decision
        if shortfall > demand * 0.5:
            # The battery could not fund the attempts: brown-out.
            node.metrics.record_failure(
                retransmissions=outcome.attempts - 1,
                tx_energy_j=0.0,
                energy_drop=True,
            )
            if trace is not None:
                trace.emit(
                    settle_time,
                    "packet",
                    "packet.dropped",
                    severity="warning",
                    node_id=node.node_id,
                    reason="brownout",
                    soc=node.battery.soc,
                )
            if sim.packet_log is not None:
                sim.packet_log.append(
                    PacketRecord(
                        node_id=node.node_id,
                        generated_at_s=entry.period_start_s,
                        window_index=entry.window_index_in_period,
                        attempts=0,
                        delivered=False,
                        latency_s=node.placement.period_s,
                        utility=0.0,
                        energy_drop=True,
                    )
                )
            node.mac.observe_result(
                entry.window_index_in_period,
                min(outcome.attempts - 1, config.max_retransmissions),
                demand,
            )
            continue
        tx_metric = outcome.attempts * node.tx_energy_j
        retx = outcome.attempts - 1
        if outcome.success:
            # Jittered period starts are bucketed onto the global window
            # grid, so the grid window can begin slightly before the
            # period; clamp to the physical minimum.
            latency = max(
                node.airtime_s + sim.ACK_DELAY_S,
                (window_start - entry.period_start_s)
                + outcome.finish_offset_s
                + sim.ACK_DELAY_S,
            )
            node.metrics.record_delivery(
                retransmissions=retx,
                tx_energy_j=tx_metric,
                utility=decision.utility,
                latency_s=latency,
            )
        else:
            node.metrics.record_failure(
                retransmissions=retx, tx_energy_j=tx_metric
            )
        node.mac.observe_result(entry.window_index_in_period, retx, demand)
        if trace is not None:
            trace.emit(
                window_start + outcome.finish_offset_s,
                "packet",
                "packet.finished",
                severity="info" if outcome.success else "warning",
                node_id=node.node_id,
                delivered=outcome.success,
                window_index=entry.window_index_in_period,
                retransmissions=retx,
                battery_energy_j=node.battery.stored_j,
            )
        if sim.packet_log is not None:
            sim.packet_log.append(
                PacketRecord(
                    node_id=node.node_id,
                    generated_at_s=entry.period_start_s,
                    window_index=entry.window_index_in_period,
                    attempts=outcome.attempts,
                    delivered=outcome.success,
                    latency_s=latency
                    if outcome.success
                    else node.placement.period_s,
                    utility=decision.utility if outcome.success else 0.0,
                    energy_drop=False,
                )
            )
        if observe:
            # Only the persistence forecaster learns from observe();
            # oracle and noisy no-op, and ``window_energy_j`` is a pure
            # function (its caches are value-deterministic), so skipping
            # the feedback entirely is observationally equivalent.
            node.forecaster.observe(
                window_start,
                window_s,
                node.harvester.window_energy_j(window_start, window_s),
            )


# ------------------------------------------------------------------- sweep


def _refresh_batch(sim, now_s: float, harvest: _Harvest) -> None:
    """Degradation refresh: settle every node, recompute Eq. (1)-(4),
    disseminate the normalized ``w_u``."""
    started = time.perf_counter()
    trace = sim._trace
    compacts = sim.config.compaction_rule()
    nodes = list(sim.nodes.values())
    _, held = _settle_items(
        [(node, now_s, 0.0) for node in nodes],
        harvest,
        sim.config.settle_chunk_s(),
    )
    for node, brownouts in zip(nodes, held):
        if brownouts:
            trace.publish(brownouts)
        degradation = node.battery.refresh_degradation()
        if compacts(node.node_id):
            node.battery.trace.compact_tail()
        node.metrics.degradation = degradation
        breakdown = node.battery.last_breakdown
        if breakdown is not None:
            node.metrics.cycle_aging = breakdown.cycle
            node.metrics.calendar_aging = breakdown.calendar
        sim.service.set_degradation(node.node_id, degradation)
    for node in nodes:
        node.mac.set_normalized_degradation(
            sim.service.normalized_degradation(node.node_id)
        )
    sim._record_refresh_wall(now_s, time.perf_counter() - started)
    if trace is not None:
        trace.emit(
            now_s, "wu", "wu.recomputed", severity="debug", nodes=len(nodes)
        )


def run_sweep(sim) -> List[MonthlySample]:
    """Execute the simulator's full event sweep; returns the monthly series.

    Loop state lives in the simulator's (checkpointable)
    :class:`_SweepState`: a fresh simulator starts one, a resumed one
    continues it.
    """
    config = sim.config
    window_s = config.window_s
    duration = config.duration_s
    nodes = sim.nodes
    harvest = _Harvest(sim)

    PERIOD = 0
    state = sim._sweep_state
    if state is None:
        state = sim._sweep_state = _SweepState.initial(sim)
    heap = state.heap
    pending_windows = state.pending_windows
    monthly = state.monthly
    seq = state.seq
    next_refresh = state.next_refresh
    month_s = SECONDS_PER_YEAR / 12.0
    next_month = state.next_month
    month_index = state.month_index
    iterations = 0

    # Period epochs (see the module docstring).  Decisions wait in
    # ``decided`` (node id -> decision) until their events pop.
    # ``resolve_at`` holds each node's latest booked resolve time; at an
    # epoch start only that one can still be pending.
    span = min(
        min(node.placement.period_s for node in nodes.values()),
        _LOOKAHEAD_WINDOWS * window_s,
    )
    decided: Dict[int, tuple] = {}
    resolve_at: Dict[int, float] = {}
    for absolute_window, entries in pending_windows.items():
        resolve_time = (absolute_window + 1) * window_s
        for entry in entries:
            node_id = entry.node.node_id
            resolve_at[node_id] = max(resolve_at.get(node_id, 0.0), resolve_time)
    next_poll = 256

    while heap and heap[0][0] <= duration:
        if heap[0][0] >= state.next_checkpoint:
            # Epochs end at or before the checkpoint, so ``decided`` is
            # empty here and the snapshot holds no pre-decided state.
            state.seq = seq
            state.next_refresh = next_refresh
            state.next_month = next_month
            state.month_index = month_index
            sim._checkpoint_before(heap[0][0], state)
        iterations += 1
        if iterations >= next_poll and not decided:
            # Only between epochs: a rescue snapshot must not carry
            # settled-ahead nodes whose period events are still queued.
            next_poll = iterations + 256
            if stop_requested():
                state.seq = seq
                state.next_refresh = next_refresh
                state.next_month = next_month
                state.month_index = month_index
                sim._interrupted(heap[0][0])
        time_s, kind, _, payload = heapq.heappop(heap)
        sim._events_executed += 1

        while next_refresh <= time_s:
            _refresh_batch(sim, next_refresh, harvest)
            next_refresh += config.dissemination_interval_s
        while next_month <= time_s:
            month_index += 1
            values = [n.metrics.degradation for n in nodes.values()]
            monthly.append(
                MonthlySample(
                    month=month_index,
                    max_degradation=max(values),
                    mean_degradation=sum(values) / len(values),
                )
            )
            next_month += month_s

        if kind == PERIOD:
            # Pop the whole same-instant cohort: processing a PERIOD
            # event never enqueues another event at its own timestamp,
            # so these are exactly the events a one-at-a-time loop would
            # pop consecutively (time equal, kind equal, seq ascending).
            cohort = [payload]
            while heap and heap[0][0] == time_s and heap[0][1] == PERIOD:
                cohort.append(heapq.heappop(heap)[3])
                sim._events_executed += 1
            fresh = [node_id for node_id in cohort if node_id not in decided]
            times = [time_s] * len(fresh)
            if not decided:
                # Open an epoch: no refresh or checkpoint inside it, and
                # the next periods pushed while booking land past its end.
                end = min(time_s + span, next_refresh, state.next_checkpoint)
                for event_s, event_kind, _, node_id in heap:
                    if event_kind == PERIOD and event_s < end:
                        pending = resolve_at.get(node_id, -math.inf)
                        if not time_s <= pending < event_s:
                            fresh.append(node_id)
                            times.append(event_s)
            # Else stragglers of the open epoch decide at their own pop.
            if fresh:
                decided.update(
                    zip(
                        fresh,
                        _decide_periods(
                            sim, [nodes[node_id] for node_id in fresh], times, harvest
                        ),
                    )
                )
            seq = _book_periods(
                sim,
                [nodes[node_id] for node_id in cohort],
                time_s,
                [decided.pop(node_id) for node_id in cohort],
                pending_windows,
                heap,
                seq,
                duration,
                resolve_at,
            )
        else:  # RESOLVE at the end of absolute window `payload`
            entries = pending_windows.pop(payload, [])
            if entries:
                _resolve_batch(sim, entries, payload, window_s, harvest)
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)

    state.seq = seq
    state.next_refresh = next_refresh
    state.next_month = next_month
    state.month_index = month_index
    # Flush any windows scheduled past the horizon.
    for window_index, entries in sorted(pending_windows.items()):
        _resolve_batch(sim, entries, window_index, window_s, harvest)
    pending_windows.clear()
    return monthly
