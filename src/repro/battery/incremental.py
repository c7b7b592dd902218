"""Incremental Eq. (1)-(4) degradation: O(new points) per refresh.

The batch pipeline (:meth:`~repro.battery.degradation.DegradationModel.
breakdown_from_trace`) re-runs rainflow counting over the *entire* SoC
history at every refresh, which makes multi-year simulations quadratic
in simulated days.  :class:`IncrementalDegradation` keeps the rainflow
state machine alive between refreshes instead: closed cycles are folded
into running aggregates (``Σ η``, ``Σ η·δ``, ``Σ η·φ`` and the Eq. (2)
damage sum) the moment they close, and a refresh only has to walk the
open residue stack.

Bit-identity contract
---------------------
Every accumulation here mirrors the batch code's *operation order*
exactly — same left-to-right multiplication chains, same
closed-then-residue summation order, same ``0.0`` starting values — so
the resulting :class:`DegradationBreakdown` is equal to the batch
recomputation down to the last float bit, not merely approximately.
Every :class:`~repro.battery.battery.Battery` refreshes through this
class; the batch pipeline stays as the oracle it is checked against.
``tests/battery/test_incremental.py`` checks it on random SoC walks and
battery histories, and ``tests/sim/test_incremental_equality.py``
checks every refresh of both engines and the fault-sweep scenario.

Memoization
-----------
The Arrhenius temperature stress is computed once per (temperature,
constants) pair, and the per-cycle depth / mean-SoC stress factors are
cached by their exact float keys: protocol-driven SoC traces revisit
the same cap and rest levels constantly, so repeated (δ, φ) pairs are
the common case.  Cached values are bit-identical to recomputation
(pure functions of their inputs), so memoization cannot perturb
results.

The accumulator assumes a fixed battery temperature (the paper's
insulated 25 °C battery): Eq. (2) terms are summed with the temperature
stress already multiplied in, so a temperature that changed mid-stream
would need a batch recomputation instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from ..exceptions import ConfigurationError
from .constants import DEFAULT_CONSTANTS, DegradationConstants
from .degradation import (
    DegradationBreakdown,
    calendar_aging,
    depth_of_discharge_stress,
    soc_stress,
    temperature_stress,
)
from .rainflow import Cycle, StreamingRainflow


@lru_cache(maxsize=128)
def cached_temperature_stress(
    temperature_c: float, constants: DegradationConstants = DEFAULT_CONSTANTS
) -> float:
    """Memoized Arrhenius temperature stress shared by Eq. (1) and (2).

    Pure function of its inputs, so the cached value is bit-identical to
    :func:`~repro.battery.degradation.temperature_stress`.
    """
    return temperature_stress(temperature_c, constants)


class IncrementalDegradation:
    """Streaming replacement for ``breakdown_from_soc_series``.

    Feed every SoC sample through :meth:`push`; ask for the current
    :class:`DegradationBreakdown` with :meth:`breakdown`.  The cost of a
    refresh is O(open residue stack), independent of trace length.
    """

    __slots__ = (
        "_constants",
        "_temperature_c",
        "_stress_t",
        "_linear_model",
        "_k6",
        "_stream",
        "_closed_count",
        "_weight_sum",
        "_depth_sum",
        "_soc_sum",
        "_aging_sum",
        "_depth_stress_memo",
        "_soc_stress_memo",
        "_memo_limit",
    )

    #: Stress memo dictionaries are cleared past this size so decade-long
    #: traces with non-repeating depths cannot grow memory unboundedly.
    MEMO_LIMIT = 65_536

    def __init__(
        self,
        temperature_c: float,
        constants: DegradationConstants = DEFAULT_CONSTANTS,
        memo_limit: Optional[int] = None,
    ) -> None:
        # Per-instance cap so large topologies (memory_profile="diet")
        # can shrink the caches: memoization is a pure-function cache,
        # so any cap — including 0 — leaves results bit-identical.
        self._memo_limit = self.MEMO_LIMIT if memo_limit is None else memo_limit
        self._constants = constants
        self._temperature_c = temperature_c
        self._stress_t = cached_temperature_stress(temperature_c, constants)
        self._linear_model = constants.cycle_stress_model == "linear"
        self._k6 = constants.k6
        self._stream = StreamingRainflow(on_cycle=self._on_cycle)
        self._closed_count = 0
        # Same 0.0 starting values the batch aggregations use.
        self._weight_sum = 0.0
        self._depth_sum = 0.0
        self._soc_sum = 0.0
        self._aging_sum = 0.0
        self._depth_stress_memo: Dict[float, float] = {}
        self._soc_stress_memo: Dict[float, float] = {}

    @property
    def temperature_c(self) -> float:
        """Battery temperature the Eq. (2) terms were accumulated at."""
        return self._temperature_c

    @property
    def closed_cycle_count(self) -> int:
        """Cycles folded into the aggregates so far (diagnostic)."""
        return self._closed_count

    def push(self, soc: float) -> None:
        """Consume the next SoC sample of the battery's history."""
        self._stream.push(soc)

    def push_batch(self, socs) -> None:
        """Consume an array of SoC samples (see ``StreamingRainflow.extend_batch``)."""
        self._stream.extend_batch(socs)

    # ------------------------------------------------------------- internals

    def _depth_stress(self, depth: float) -> float:
        cached = self._depth_stress_memo.get(depth)
        if cached is None:
            cached = depth_of_discharge_stress(depth, self._constants)
            if len(self._depth_stress_memo) >= self._memo_limit:
                self._depth_stress_memo.clear()
            self._depth_stress_memo[depth] = cached
        return cached

    def _soc_stress(self, mean_soc: float) -> float:
        cached = self._soc_stress_memo.get(mean_soc)
        if cached is None:
            cached = soc_stress(mean_soc, self._constants)
            if len(self._soc_stress_memo) >= self._memo_limit:
                self._soc_stress_memo.clear()
            self._soc_stress_memo[mean_soc] = cached
        return cached

    def _aging_term(self, cycle: Cycle) -> float:
        # Multiplication chains mirror cycle_aging() exactly: the batch
        # code multiplies the temperature stress into every term, so the
        # accumulator must too (factoring it out would change the bits).
        if self._linear_model:
            return (
                cycle.weight * cycle.depth * cycle.mean_soc * self._k6 * self._stress_t
            )
        return (
            cycle.weight
            * self._depth_stress(cycle.depth)
            * self._soc_stress(cycle.mean_soc)
            * self._stress_t
        )

    def _on_cycle(self, cycle: Cycle) -> None:
        self._closed_count += 1
        self._weight_sum += cycle.weight
        self._depth_sum += cycle.weight * cycle.depth
        self._soc_sum += cycle.weight * cycle.mean_soc
        self._aging_sum += self._aging_term(cycle)

    # ----------------------------------------------------------------- query

    def breakdown(
        self,
        age_s: float,
        temperature_c: Optional[float] = None,
        fallback_mean_soc: Optional[float] = None,
    ) -> DegradationBreakdown:
        """Current degradation breakdown, bit-identical to the batch path.

        ``temperature_c`` defaults to (and must equal) the construction
        temperature: Eq. (2) terms already carry its stress factor.
        """
        if temperature_c is not None and temperature_c != self._temperature_c:
            raise ConfigurationError(
                "incremental degradation accumulated at "
                f"{self._temperature_c} °C cannot be queried at "
                f"{temperature_c} °C; recompute from the trace instead"
            )
        pending = self._stream.pending_cycles()
        total_weight = self._weight_sum
        depth_sum = self._depth_sum
        soc_sum = self._soc_sum
        aging = self._aging_sum
        for cycle in pending:
            total_weight += cycle.weight
            depth_sum += cycle.weight * cycle.depth
            soc_sum += cycle.weight * cycle.mean_soc
            aging += self._aging_term(cycle)
        if total_weight == 0.0:
            efc, mean_depth, mean_soc = 0.0, 0.0, 0.0
        else:
            efc = total_weight
            mean_depth = depth_sum / total_weight
            mean_soc = soc_sum / total_weight
        if self._closed_count == 0 and not pending:
            if fallback_mean_soc is None:
                raise ConfigurationError("cannot degrade an empty SoC history")
            mean_soc = fallback_mean_soc
        calendar = calendar_aging(
            age_s, self._temperature_c, mean_soc, self._constants
        )
        return DegradationBreakdown(
            calendar=calendar,
            cycle=aging,
            equivalent_full_cycles=efc,
            mean_cycle_depth=mean_depth,
            mean_soc=mean_soc,
        )
