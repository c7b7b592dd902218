"""Settle-chunk recurrence kernel (switch + battery, exact scalar order).

One settle applies a sequence of chunk energy balances to a battery:
per chunk, harvested green energy covers demand first, surplus charges
up to the θ-capped limit, deficit discharges, and the resulting SoC is
validated, clamped and added to the trace integral.  The float
operations and their order reproduce ``SoftwareDefinedSwitch.
apply_chunks`` (the exact engine's one settle pass, which validates and
clamps in the same loop and also carries each transmission attempt as a
zero-length last chunk) and therefore ``Battery.charge``/``discharge``/
``settle`` bit for bit — which is why the recurrence is a kernel with a
fixed operation order rather than a vectorized expression (each chunk's
ops depend on the previous chunk's stored energy).  A lockstep NumPy
recurrence over a batch of nodes was measured slower on this backend
(about 28 nodes × 2.2 chunks per batch), so the kernel stays one call
per node settle.

``recurrence`` returns the per-chunk clamped SoC samples, the final
battery/trace-integral state and the chunks that fell short; the caller
(``mesoscopic_vec``) commits the samples through the trace's one merge
rule (``SocTrace.merge_samples``, shared with the switch) and the
rainflow replay kernel, and reports the short chunks as brown-outs.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs.profiling import hot_profiler

_PROF = hot_profiler()

#: A chunk whose unmet demand exceeds this is a brown-out (the
#: switch's ``repro.energy.switch.BROWNOUT_J``).
BROWNOUT_J = 1e-12


def recurrence(
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
    """Run the settle-chunk recurrence, the exact scalar chunk loop.

    Returns ``(socs, stored, shortfall, integral, last_t, last_soc,
    short)`` where ``socs`` lists the per-chunk clamped SoC samples and
    ``short`` lists the ``(chunk index, unmet joules)`` of every chunk
    whose unmet demand exceeds :data:`BROWNOUT_J`.
    """
    started = time.perf_counter() if _PROF.enabled else None
    try:
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
    finally:
        if started is not None:
            _PROF.add("settle.recurrence", time.perf_counter() - started)
