"""Rechargeable-battery state machine.

Tracks stored energy, state of charge, the compressed SoC trace feeding
the degradation model, and the shrinking maximum capacity.  Terminology
follows Section II-C of the paper:

* *original maximum capacity*: energy a new battery can store;
* *degradation*: ``1 − current_max / original_max`` (Eq. 4 output);
* *SoC*: ratio of currently stored energy to the **original** maximum
  capacity (the paper's Section II-B definition);
* *EoL*: degradation ≥ 20 %, after which capacity fade accelerates and
  the battery is flagged for replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..exceptions import (
    BatteryDepletedError,
    BatteryEndOfLifeError,
    ConfigurationError,
)
from .constants import DEFAULT_CONSTANTS, DegradationConstants
from .degradation import DegradationBreakdown, DegradationModel
from .incremental import IncrementalDegradation
from .soc_trace import SocTrace


@dataclass
class Battery:
    """A rechargeable battery with degradation-aware capacity accounting.

    Parameters
    ----------
    capacity_j:
        Original maximum capacity in joules.  The paper sizes it to
        sustain 24 hours of node operation without recharging.
    initial_soc:
        Starting state of charge in [0, 1].
    temperature_c:
        Internal temperature; the paper assumes an insulated battery at a
        fixed 25 °C.
    initial_age_s:
        ζ offset for batteries that were not new at deployment.

    Degradation refreshes read the streaming rainflow accumulator:
    O(new samples) per refresh instead of re-counting the whole trace,
    and bit-identical to the batch
    :meth:`~repro.battery.degradation.DegradationModel.breakdown_from_trace`.
    """

    capacity_j: float
    initial_soc: float = 0.5
    temperature_c: float = 25.0
    initial_age_s: float = 0.0
    constants: DegradationConstants = DEFAULT_CONSTANTS
    #: Optional cap on the incremental accumulator's stress-memo dicts
    #: (None keeps the class default).  Pure-function caches, so any cap
    #: is bit-identical; ``memory_profile="diet"`` shrinks it.
    memo_limit: Optional[int] = None

    stored_j: float = field(init=False)
    trace: SocTrace = field(init=False)
    _degradation: float = field(init=False, default=0.0)
    _model: DegradationModel = field(init=False)
    _now_s: float = field(init=False, default=0.0)
    _last_breakdown: Optional[DegradationBreakdown] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ConfigurationError("battery capacity must be positive")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ConfigurationError("initial SoC must be in [0, 1]")
        if self.initial_age_s < 0:
            raise ConfigurationError("initial age cannot be negative")
        self.stored_j = self.initial_soc * self.capacity_j
        self.trace = SocTrace()
        self.trace.append(0.0, self.initial_soc)
        self._model = DegradationModel(self.constants)
        # Streaming degradation accumulator (plain attribute: never
        # compared, but pickled into every snapshot with the rest of the
        # battery).  Fed the same clamped SoC values SocTrace stores, so
        # its rainflow state always mirrors the trace's turning points.
        self._incremental = IncrementalDegradation(
            self.temperature_c, self.constants, memo_limit=self.memo_limit
        )
        self._incremental.push(self.initial_soc)
        # Observability hook (not a dataclass field: never compared or
        # serialized); None keeps degradation refreshes trace-free.
        self._trace_bus = None
        self._trace_node: Optional[int] = None

    def bind_trace(self, bus, node_id: Optional[int] = None) -> None:
        """Attach a trace bus so degradation refreshes publish events."""
        self._trace_bus = bus
        self._trace_node = node_id

    # ------------------------------------------------------------------ state

    @property
    def soc(self) -> float:
        """State of charge relative to the original maximum capacity."""
        return self.stored_j / self.capacity_j

    @property
    def degradation(self) -> float:
        """Most recently computed nonlinear degradation ``D`` (Eq. 4)."""
        return self._degradation

    @property
    def current_max_capacity_j(self) -> float:
        """Capacity still usable: ``(1 − D) × original`` (ψ_max of Eq. 12)."""
        return (1.0 - self._degradation) * self.capacity_j

    @property
    def is_end_of_life(self) -> bool:
        """Whether degradation crossed the EoL threshold (default 20 %)."""
        return self._model.is_end_of_life(self._degradation)

    @property
    def age_s(self) -> float:
        """ζ: seconds since manufacturing (initial age + simulated time)."""
        return self.initial_age_s + self._now_s

    @property
    def now_s(self) -> float:
        """Simulation time of the last battery operation."""
        return self._now_s

    @property
    def last_breakdown(self) -> Optional[DegradationBreakdown]:
        """Calendar/cycle decomposition from the last degradation refresh."""
        return self._last_breakdown

    # ------------------------------------------------------------ energy flow

    def charge(self, energy_j: float, now_s: float, soc_cap: float = 1.0) -> float:
        """Add up to ``energy_j`` joules; returns the energy accepted.

        Charging is clipped both by the battery's *current* maximum
        capacity (a degraded battery stores less, Eq. 12's ψ_max) and by
        the caller-supplied ``soc_cap`` — the protocol's θ threshold that
        limits calendar aging (Section III-B, Eq. 21).
        """
        if energy_j < 0:
            raise ConfigurationError("charge energy cannot be negative")
        if not 0.0 <= soc_cap <= 1.0:
            raise ConfigurationError("soc_cap must be in [0, 1]")
        limit_j = min(self.current_max_capacity_j, soc_cap * self.capacity_j)
        accepted = max(0.0, min(energy_j, limit_j - self.stored_j))
        self.stored_j += accepted
        self._advance(now_s)
        return accepted

    def discharge(self, energy_j: float, now_s: float) -> None:
        """Draw ``energy_j`` joules; raises if the battery cannot supply it."""
        if energy_j < 0:
            raise ConfigurationError("discharge energy cannot be negative")
        if energy_j > self.stored_j + 1e-12:
            raise BatteryDepletedError(
                f"requested {energy_j:.4g} J but only {self.stored_j:.4g} J stored"
            )
        self.stored_j = max(0.0, self.stored_j - energy_j)
        self._advance(now_s)

    def settle(self, now_s: float) -> None:
        """Advance time with no energy flow (records trace duration)."""
        self._advance(now_s)

    def commit_samples(
        self, times_s, socs, integral: float, stored_j: float
    ) -> None:
        """Record a run of operations computed outside the battery.

        ``socs[i]`` is ``stored / capacity`` after the operation ending
        at ``times_s[i]``, already validated and clamped to [0, 1] the
        way :meth:`SocTrace.append` would, and ``integral`` is the
        trace's time-weighted integral after the run (see
        :meth:`SocTrace.merge_samples`, which stores the run).  The
        rainflow stream takes the same samples, so both are
        state-identical to one :meth:`_advance` per sample; then the
        stored energy becomes ``stored_j`` and the clock moves to the
        run's end.  An empty run changes nothing.
        """
        if not len(times_s):
            return
        self.trace.merge_samples(times_s, socs, integral)
        self._incremental.push_batch(socs)
        self.stored_j = stored_j
        self._now_s = times_s[-1]

    def _advance(self, now_s: float) -> None:
        if now_s < self._now_s:
            raise ConfigurationError("battery time cannot move backwards")
        self._now_s = now_s
        soc = self.soc
        self.trace.append(now_s, soc)
        # Same clamp SocTrace.append applies before storing.
        self._incremental.push(min(soc, 1.0))

    # ---------------------------------------------------------- degradation

    def refresh_degradation(self, raise_on_eol: bool = False) -> float:
        """Recompute Eq. (4) degradation from the accumulated trace.

        In the real system this runs at the gateway from piggybacked
        transition reports; the simulator calls it periodically (e.g.
        monthly).  Returns the new degradation and optionally raises
        :class:`BatteryEndOfLifeError` past the threshold.
        """
        breakdown = self._incremental.breakdown(
            age_s=self.age_s,
            fallback_mean_soc=self.trace.time_weighted_mean_soc(),
        )
        self._last_breakdown = breakdown
        self._degradation = breakdown.nonlinear(self.constants)
        # A degraded battery may now hold more energy than it can store.
        self.stored_j = min(self.stored_j, self.current_max_capacity_j)
        if self._trace_bus is not None:
            self._trace_bus.emit(
                self._now_s,
                "battery",
                "battery.degradation",
                severity="debug",
                node_id=self._trace_node,
                degradation=self._degradation,
                cycle=breakdown.cycle,
                calendar=breakdown.calendar,
                soc=self.soc,
            )
        if raise_on_eol and self.is_end_of_life:
            raise BatteryEndOfLifeError(
                f"battery reached {self._degradation:.1%} degradation"
            )
        return self._degradation
