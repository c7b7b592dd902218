"""Software-defined battery switch (Eq. 5 / Fig. 1 of the paper).

The switch regulates each node's power source: when instantaneous green
power exceeds demand, the node runs on green energy alone and the excess
charges the battery (subject to the θ SoC cap of Eq. 21); otherwise the
battery and the green source power the node together.  This realizes the
energy balance of Eq. (5):

.. math::

    ψ_u[t] = ψ_u[t-1] + y_u[t] E^g_u[t] - x_u[t] E^{tx}_u
             - (1 - x_u[t]) E^{sleep}_u

with the on-sensor simplification (Eq. 21) fixing ``y_u[t]`` to "charge
up to θ, spill the rest".

A node settles many window-sized chunks at once, so
:meth:`SoftwareDefinedSwitch.apply_chunks` is the one copy of that
arithmetic: a single pass over the chunks that balances, validates and
clamps each one and accumulates the SoC-trace integral, then one commit
of the samples into the trace (:meth:`SocTrace.merge_samples`) and the
rainflow stream.  The exact engine folds a transmission attempt into
the settle before it as a zero-length last chunk (harvest 0, demand the
attempt energy).  :meth:`~SoftwareDefinedSwitch.apply_window` is the
one-chunk case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..battery import Battery
from ..exceptions import ConfigurationError

#: Unmet demand above this is a brown-out (float dust below it is not).
BROWNOUT_J = 1e-12


@dataclass(frozen=True)
class WindowEnergyResult:
    """Accounting of one forecast window's energy flows, in joules."""

    #: Demand covered directly by the green source.
    green_used_j: float
    #: Demand covered by discharging the battery.
    battery_used_j: float
    #: Surplus green energy accepted by the battery.
    charged_j: float
    #: Surplus green energy spilled (battery full or above θ).
    spilled_j: float
    #: Demand that could not be met (battery empty): > 0 means brown-out.
    shortfall_j: float

    @property
    def balanced(self) -> bool:
        """Whether the full demand was met this window."""
        return self.shortfall_j <= BROWNOUT_J


class SettleResult(NamedTuple):
    """What one :meth:`SoftwareDefinedSwitch.apply_chunks` pass did."""

    #: Energy flows summed over the chunks (for one chunk: its own).
    totals: WindowEnergyResult
    #: Index of the last chunk whose surplus the battery accepted, -1
    #: when none did (an accepted charge may be below one ulp of the
    #: stored energy, so this is not read off the stored energy).
    last_charged: int
    #: ``(chunk index, unmet joules)`` of every chunk that browned out.
    shortfalls: List[Tuple[int, float]]


class SoftwareDefinedSwitch:
    """Applies forecast windows' energy flows to a battery.

    The switch is deliberately stateless: all state lives in the
    :class:`~repro.battery.Battery` so the SoC trace (and therefore the
    degradation computation) sees exactly one update per window or
    settle chunk, matching the paper's discrete-time model where "the
    discrete trace is generated after each time slot".
    """

    def __init__(
        self,
        soc_cap: float = 1.0,
        on_brownout: Optional[Callable[[float], None]] = None,
    ) -> None:
        if not 0.0 < soc_cap <= 1.0:
            raise ConfigurationError("soc_cap (θ) must be in (0, 1]")
        self._soc_cap = soc_cap
        #: Hook fired with the shortfall (joules) whenever a window's
        #: demand cannot be met — the fault layer counts brown-outs (and
        #: may escalate them to full node reboots) through it.
        self._on_brownout = on_brownout
        #: Optional :class:`~repro.obs.TraceBus`; None keeps tracing free.
        self._trace = None
        self._trace_node: Optional[int] = None

    def bind_trace(self, bus, node_id: Optional[int] = None) -> None:
        """Attach a trace bus so brown-outs publish ``energy`` events."""
        self._trace = bus
        self._trace_node = node_id

    @property
    def soc_cap(self) -> float:
        """The θ threshold limiting stored energy (Section III-B)."""
        return self._soc_cap

    def apply_window(
        self,
        battery: Battery,
        harvested_j: float,
        demand_j: float,
        window_end_s: float,
    ) -> WindowEnergyResult:
        """Settle one forecast window's energy balance on the battery.

        Green energy covers demand first; surplus charges the battery up
        to θ; deficit is drawn from the battery.  If the battery cannot
        cover the deficit, the remainder is reported as ``shortfall_j``
        (the node browns out — in the MAC this surfaces as a dropped
        packet, the FAIL branch of Algorithm 1).  The one-chunk case of
        :meth:`apply_chunks`.
        """
        return self.apply_chunks(
            battery, (harvested_j,), (demand_j,), (window_end_s,)
        ).totals

    def apply_chunks(
        self,
        battery: Battery,
        harvested_j: Sequence[float],
        demands_j: Sequence[float],
        ends_s: Sequence[float],
    ) -> SettleResult:
        """Settle consecutive chunks' energy balances in one pass.

        Chunk ``i`` ends at ``ends_s[i]`` and is balanced exactly as a
        lone window would be: the float operations and their order are
        those of ``Battery.charge``/``discharge``/``settle``, with the
        charge limit ``min(ψ_max, θ·capacity)`` hoisted (degradation
        does not move within a settle).  The same loop validates each
        chunk (energies not negative, SoC in [0, 1], time not before the
        trace's last sample), clamps its SoC and accumulates the trace
        integral as :meth:`SocTrace.append` would; nothing is stored
        until every chunk has passed.  The samples then reach the trace
        and the rainflow stream through
        :meth:`~repro.battery.Battery.commit_samples`, state-identical
        to one append per chunk.  Brown-outs then publish their
        ``energy.brownout`` events and fire ``on_brownout`` in chunk
        order, with the values a chunk-by-chunk settle reports.
        """
        count = len(ends_s)
        capacity = battery.capacity_j
        limit = min(battery.current_max_capacity_j, self._soc_cap * capacity)
        stored = battery.stored_j
        # The trace's tail state, read here and committed through
        # ``merge_samples``.
        trace = battery.trace
        prev_t = trace._last_time
        prev_soc = trace._last_soc
        integral = trace._weighted_integral
        if prev_t is None and count:
            # An empty trace: the first sample only seeds the tail, its
            # zero-width trapezoid adds exactly 0.0.
            prev_t, prev_soc = ends_s[0], 0.0
        green_sum = used_sum = charged_sum = spilled_sum = short_sum = 0.0
        last_charged = -1
        shortfalls: List[Tuple[int, float]] = []
        socs: List[float] = []
        append = socs.append
        for i in range(count):
            harvested = harvested_j[i]
            demand = demands_j[i]
            if harvested < 0.0 or demand < 0.0:
                raise ConfigurationError("energies cannot be negative")
            # min/max spelled as conditionals (same values, fewer calls).
            green = harvested if harvested <= demand else demand
            green_sum += green
            surplus = harvested - green
            deficit = demand - green
            if surplus > 0.0:
                room = limit - stored
                accepted = surplus if surplus <= room else room
                if accepted > 0.0:
                    stored += accepted
                    last_charged = i
                else:
                    accepted = 0.0
                charged_sum += accepted
                spilled_sum += surplus - accepted
            elif deficit > 0.0:
                used = deficit if deficit <= stored else stored
                unmet = deficit - used
                stored -= used
                if stored < 0.0:
                    stored = 0.0
                used_sum += used
                short_sum += unmet
                if unmet > BROWNOUT_J:
                    shortfalls.append((i, unmet))
            soc = stored / capacity
            if not 0.0 <= soc <= 1.0 + 1e-9:
                raise ConfigurationError(f"SoC {soc} outside [0, 1]")
            if soc > 1.0:
                soc = 1.0
            t = ends_s[i]
            if t < prev_t:
                raise ConfigurationError("trace times must be non-decreasing")
            integral += (t - prev_t) * (soc + prev_soc) / 2.0
            prev_t = t
            prev_soc = soc
            append(soc)
        battery.commit_samples(ends_s, socs, integral, stored)
        for i, unmet in shortfalls:
            if self._trace is not None:
                self._trace.emit(
                    ends_s[i],
                    "energy",
                    "energy.brownout",
                    severity="warning",
                    node_id=self._trace_node,
                    shortfall_j=unmet,
                    demand_j=demands_j[i],
                    harvested_j=harvested_j[i],
                    soc=socs[i],
                )
            if self._on_brownout is not None:
                self._on_brownout(unmet)
        totals = WindowEnergyResult(
            green_used_j=green_sum,
            battery_used_j=used_sum,
            charged_j=charged_sum,
            spilled_j=spilled_sum,
            shortfall_j=short_sum,
        )
        return SettleResult(totals, last_charged, shortfalls)

    def can_sustain(
        self, battery: Battery, harvested_j: float, demand_j: float
    ) -> bool:
        """Feasibility check of Eq. (20): ψ[t−1] + e^g[t] ≥ demand."""
        return battery.stored_j + harvested_j + 1e-12 >= demand_j
