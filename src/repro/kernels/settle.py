"""Settle-chunk recurrence kernel (switch + battery, exact scalar order).

One settle applies a sequence of chunk energy balances to a battery:
per chunk, harvested green energy covers demand first, surplus charges
up to the θ-capped limit, deficit discharges, and the resulting SoC
feeds the trace integral.  The float operations and their order
reproduce ``SoftwareDefinedSwitch.apply_chunks`` (the exact engine's
settle pass, whose one-chunk case is ``apply_window``) and therefore
``Battery.charge``/``discharge``/``settle`` bit for bit — which is why
the recurrence is a kernel with a fixed operation order rather than a
vectorized expression (each chunk's ops depend on the previous chunk's
stored energy).

``recurrence`` returns the per-chunk clamped SoC samples, the final
battery/trace-integral state and the chunks that fell short; the caller
(``mesoscopic_vec``) feeds the samples through the trace-merge and
rainflow kernels and reports the short chunks as brown-outs.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.profiling import hot_profiler
from . import BACKEND

_PROF = hot_profiler()

#: A chunk whose unmet demand exceeds this is a brown-out (the
#: switch's ``repro.energy.switch.BROWNOUT_J``).
BROWNOUT_J = 1e-12


def _recurrence_python(
    ends: Sequence[float],
    durations: Sequence[float],
    powers: Sequence[float],
    sleep_w: float,
    extra_j: float,
    stored: float,
    limit_j: float,
    capacity_j: float,
    have_prev: bool,
    prev_t: float,
    prev_c: float,
    integral: float,
) -> Tuple[
    List[float], float, float, float, float, float, List[Tuple[int, float]]
]:
    """Reference implementation: the exact scalar chunk loop."""
    shortfall = 0.0
    short: List[Tuple[int, float]] = []
    socs: List[float] = []
    append = socs.append
    last = len(ends) - 1
    for i in range(last + 1):
        duration = durations[i]
        harvested = powers[i] * duration
        demand = sleep_w * duration
        if i == last:
            demand += extra_j
        # min/max spelled as conditionals (same values, fewer calls).
        green_used = demand if demand < harvested else harvested
        surplus = harvested - green_used
        deficit = demand - green_used
        if surplus > 0.0:
            room = limit_j - stored
            accepted = room if room < surplus else surplus
            if accepted > 0.0:
                stored += accepted
        elif deficit > 0.0:
            used = stored if stored < deficit else deficit
            unmet = deficit - used
            shortfall += unmet
            if unmet > BROWNOUT_J:
                short.append((i, unmet))
            stored -= used
            if stored < 0.0:
                stored = 0.0
        soc = stored / capacity_j
        if not 0.0 <= soc <= 1.0 + 1e-9:
            raise ConfigurationError(f"SoC {soc} outside [0, 1]")
        clamped = soc if soc <= 1.0 else 1.0
        t = ends[i]
        if have_prev:
            integral += (t - prev_t) * (clamped + prev_c) / 2.0
        else:
            have_prev = True
        prev_t = t
        prev_c = clamped
        append(clamped)
    return socs, stored, shortfall, integral, prev_t, prev_c, short


if BACKEND == "numba":
    from numba import njit

    @njit(cache=True)
    def _recurrence_jit(
        ends, durations, powers, sleep_w, extra_j, stored, limit_j,
        capacity_j, have_prev, prev_t, prev_c, integral,
    ):  # pragma: no cover - exercised only with Numba installed
        n = ends.shape[0]
        socs = np.empty(n)
        short_idx = np.empty(n, dtype=np.int64)
        short_j = np.empty(n)
        n_short = 0
        shortfall = 0.0
        bad = -1
        last = n - 1
        for i in range(n):
            duration = durations[i]
            harvested = powers[i] * duration
            demand = sleep_w * duration
            if i == last:
                demand += extra_j
            green_used = demand if demand < harvested else harvested
            surplus = harvested - green_used
            deficit = demand - green_used
            if surplus > 0.0:
                room = limit_j - stored
                accepted = room if room < surplus else surplus
                if accepted > 0.0:
                    stored += accepted
            elif deficit > 0.0:
                used = stored if stored < deficit else deficit
                unmet = deficit - used
                shortfall += unmet
                if unmet > BROWNOUT_J:
                    short_idx[n_short] = i
                    short_j[n_short] = unmet
                    n_short += 1
                stored -= used
                if stored < 0.0:
                    stored = 0.0
            soc = stored / capacity_j
            if not (0.0 <= soc <= 1.0 + 1e-9):
                bad = i
                return (
                    socs, stored, shortfall, integral, prev_t, prev_c,
                    short_idx[:n_short], short_j[:n_short], bad,
                )
            clamped = soc if soc <= 1.0 else 1.0
            t = ends[i]
            if have_prev:
                integral += (t - prev_t) * (clamped + prev_c) / 2.0
            else:
                have_prev = True
            prev_t = t
            prev_c = clamped
            socs[i] = clamped
        return (
            socs, stored, shortfall, integral, prev_t, prev_c,
            short_idx[:n_short], short_j[:n_short], bad,
        )

    def _recurrence_numba(
        ends, durations, powers, sleep_w, extra_j, stored, limit_j,
        capacity_j, have_prev, prev_t, prev_c, integral,
    ):  # pragma: no cover - exercised only with Numba installed
        (
            socs, stored, shortfall, integral, prev_t, prev_c,
            short_idx, short_j, bad,
        ) = _recurrence_jit(
            np.asarray(ends, dtype=np.float64),
            np.asarray(durations, dtype=np.float64),
            np.asarray(powers, dtype=np.float64),
            sleep_w, extra_j, stored, limit_j, capacity_j,
            have_prev, prev_t, prev_c, integral,
        )
        if bad >= 0:
            raise ConfigurationError("SoC outside [0, 1]")
        short = list(zip(short_idx.tolist(), short_j.tolist()))
        return socs, stored, shortfall, integral, prev_t, prev_c, short

    _recurrence_impl = _recurrence_numba
else:
    _recurrence_impl = _recurrence_python


def recurrence(
    ends, durations, powers, sleep_w, extra_j, stored, limit_j,
    capacity_j, have_prev, prev_t, prev_c, integral,
):
    """Run the settle-chunk recurrence on the active backend.

    Returns ``(socs, stored, shortfall, integral, last_t, last_soc,
    short)`` where ``socs`` holds the per-chunk clamped SoC samples (a
    list on the NumPy backend, an ndarray on the Numba backend — callers
    index and iterate, both support that) and ``short`` lists the
    ``(chunk index, unmet joules)`` of every chunk whose unmet demand
    exceeds :data:`BROWNOUT_J`.
    """
    if not _PROF.enabled:
        return _recurrence_impl(
            ends, durations, powers, sleep_w, extra_j, stored, limit_j,
            capacity_j, have_prev, prev_t, prev_c, integral,
        )
    started = time.perf_counter()
    try:
        return _recurrence_impl(
            ends, durations, powers, sleep_w, extra_j, stored, limit_j,
            capacity_j, have_prev, prev_t, prev_c, integral,
        )
    finally:
        _PROF.add("settle.recurrence", time.perf_counter() - started)
