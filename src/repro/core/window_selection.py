"""Algorithm 1: on-sensor forecast-window selection.

Each sampling period, the node scores every forecast window ``t`` with
the objective of Eq. (17),

.. math::  γ_t = (1 - μ_u[t]) + w_u · DIF_u[t] · w_b

sorts windows by non-decreasing ``γ_t``, and picks the best-scoring
window whose cumulative energy satisfies the feasibility constraint of
Eq. (20) (battery + harvested-so-far energy covers the estimated
transmission cost).  If no window is feasible the packet is dropped
(FAIL) — e.g. θ too low to bridge the night, or an extended period
without generation.

Complexity is ``O(|T| log |T|)`` from the sort, as the paper states.

Note: the paper's pseudocode writes ``γ_t ← μ_u[t] + …`` but its
objective (Eq. 17/18) minimizes ``(1 − μ) + w_u · DIF · w_b``; sorting by
raw ``μ`` ascending would *prefer late windows*, contradicting the
objective and the evaluation (LoRaWAN-like early windows win when energy
is plentiful).  We implement the objective, treating the pseudocode line
as a typo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .dif import degradation_impact_factor, dif_batch
from .utility import LinearUtility, UtilityFunction, utilities_vector

#: Cache of per-(utility function, |T|) utility vectors.  Utility
#: functions are frozen dataclasses (hashable by value) and the vector
#: is a pure function of (fn, |T|), so entries never go stale.
_UTILITY_CACHE: Dict[Tuple[UtilityFunction, int], np.ndarray] = {}
_UTILITY_CACHE_LIMIT = 4096


def cached_utilities_vector(
    utility_fn: UtilityFunction, windows_per_period: int
) -> np.ndarray:
    """Memoized :func:`repro.core.utility.utilities_vector`.

    Returns a read-only array shared across calls — callers must not
    mutate it.
    """
    key = (utility_fn, windows_per_period)
    try:
        vec = _UTILITY_CACHE.get(key)
    except TypeError:
        # Unhashable custom utility function: skip memoization.
        return utilities_vector(utility_fn, windows_per_period)
    if vec is None:
        vec = utilities_vector(utility_fn, windows_per_period)
        vec.setflags(write=False)
        if len(_UTILITY_CACHE) >= _UTILITY_CACHE_LIMIT:
            _UTILITY_CACHE.clear()
        _UTILITY_CACHE[key] = vec
    return vec


@dataclass(frozen=True)
class WindowDecision:
    """Outcome of one run of Algorithm 1.

    ``success`` mirrors the SUCCESS/FAIL return; ``window_index`` is the
    chosen forecast window (None on FAIL).  Scores are retained for
    diagnostics and the Fig. 3-style analyses.
    """

    success: bool
    window_index: Optional[int]
    scores: List[float]
    utilities: List[float]
    difs: List[float]

    @property
    def utility(self) -> float:
        """Utility of the chosen window (0 on FAIL, per the avg-utility metric)."""
        if not self.success or self.window_index is None:
            return 0.0
        return self.utilities[self.window_index]


@dataclass
class WindowSelector:
    """Configured instance of Algorithm 1 for one node.

    Parameters
    ----------
    w_b:
        Network-manager weight for degradation importance vs utility
        (the paper's evaluation uses ``w_b = 1``).
    utility_fn:
        The packet-utility function; Eq. (16)'s linear decay by default.
    max_tx_energy_j:
        ``E^tx_max`` normalizing the DIF (energy of a worst-case, i.e.
        highest-SF, transmission).
    soc_cap_j:
        Optional θ·capacity bound in joules: energy accumulated across
        windows cannot exceed it (harvest within the candidate window is
        still directly usable).  ``inf`` reproduces the paper's
        pseudocode literally.
    """

    w_b: float = 1.0
    utility_fn: UtilityFunction = LinearUtility()
    max_tx_energy_j: float = 1.0
    soc_cap_j: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.w_b <= 1.0:
            raise ConfigurationError("w_b must be in [0, 1]")
        if self.max_tx_energy_j <= 0:
            raise ConfigurationError("max_tx_energy_j must be positive")
        if self.soc_cap_j <= 0:
            raise ConfigurationError("soc_cap_j must be positive")

    def select(
        self,
        battery_energy_j: float,
        normalized_degradation: float,
        green_energies_j: Sequence[float],
        estimated_tx_energies_j: Sequence[float],
    ) -> WindowDecision:
        """Run Algorithm 1 for the current sampling period.

        Parameters
        ----------
        battery_energy_j:
            ψ — current energy stored in the battery.
        normalized_degradation:
            ``w_u = D_u / D_max`` disseminated by the gateway.
        green_energies_j:
            Forecast harvest per window, ``{E^g_u[t] | t ∈ T}``.
        estimated_tx_energies_j:
            Estimated transmission energy per window (the Eq. 13 EWMA
            scaled by the Eq. 14 retransmission multiplier),
            ``{e^tx_u[t] | t ∈ T}``.
        """
        windows = len(green_energies_j)
        if windows == 0:
            raise ConfigurationError("at least one forecast window is required")
        if len(estimated_tx_energies_j) != windows:
            raise ConfigurationError(
                "green and tx-energy forecasts must have equal length"
            )
        if battery_energy_j < 0:
            raise ConfigurationError("battery energy cannot be negative")
        if not 0.0 <= normalized_degradation <= 1.0:
            raise ConfigurationError("normalized degradation must be in [0, 1]")

        # Lines 2-6: evaluate the objective for each window.
        utilities = [self.utility_fn(t, windows) for t in range(windows)]
        difs = [
            degradation_impact_factor(
                estimated_tx_energies_j[t],
                green_energies_j[t],
                self.max_tx_energy_j,
            )
            for t in range(windows)
        ]
        scores = [
            (1.0 - utilities[t]) + normalized_degradation * difs[t] * self.w_b
            for t in range(windows)
        ]

        # Line 7: sort windows by non-decreasing γ (stable → earlier
        # window wins ties, favouring utility).
        order = sorted(range(windows), key=scores.__getitem__)

        # Lines 8-11: cumulative energy available at each window, with
        # the optional θ storage cap applied between windows.
        available: List[float] = []
        stored = min(battery_energy_j, self.soc_cap_j)
        for t in range(windows):
            usable = stored + green_energies_j[t]
            available.append(usable)
            stored = min(self.soc_cap_j, usable)

        # Lines 12-17: best feasible window by Eq. (20).
        for t in order:
            if available[t] - estimated_tx_energies_j[t] > 0.0:
                return WindowDecision(
                    success=True,
                    window_index=t,
                    scores=scores,
                    utilities=utilities,
                    difs=difs,
                )

        # Line 18: no feasible window — the packet is dropped.
        return WindowDecision(
            success=False,
            window_index=None,
            scores=scores,
            utilities=utilities,
            difs=difs,
        )


@dataclass(frozen=True)
class MixedBatchWindowDecision:
    """Algorithm 1 outcomes for rows with *per-row* window counts.

    Rows are padded to the widest ``|T|``; ``utilities`` is the full
    ``(N, T_max)`` matrix (row ``i`` holds ``fn(t, counts[i])`` for
    ``t < counts[i]`` and 0 beyond), and columns at or past a row's
    count were masked infeasible before selection.  ``weights`` holds
    the ``w_u`` each row was scored with.
    """

    success: np.ndarray
    window_index: np.ndarray
    utilities: np.ndarray
    scores: np.ndarray
    difs: np.ndarray
    weights: np.ndarray

    def chosen_utilities(self) -> np.ndarray:
        """Utility of each node's chosen window (0.0 on FAIL)."""
        idx = np.where(self.success, self.window_index, 0)
        rows = np.arange(idx.size)
        return np.where(self.success, self.utilities[rows, idx], 0.0)

    def selected_fields(
        self, row: int, count: int, battery_energy_j: float
    ) -> Dict[str, object]:
        """Row ``row``'s ``window.selected`` trace payload over its
        ``count`` real windows, scored with ``battery_energy_j``."""
        success = bool(self.success[row])
        return dict(
            success=success,
            window_index=int(self.window_index[row]) if success else None,
            w_u=float(self.weights[row]),
            battery_energy_j=battery_energy_j,
            scores=[round(v, 6) for v in self.scores[row, :count].tolist()],
            difs=[round(v, 6) for v in self.difs[row, :count].tolist()],
            utilities=[round(v, 6) for v in self.utilities[row, :count].tolist()],
        )


def score_windows_mixed(
    battery_energies_j: np.ndarray,
    normalized_degradations: np.ndarray,
    green_matrix: np.ndarray,
    estimated_tx_matrix: np.ndarray,
    counts: Sequence[int],
    *,
    max_tx_energy_j: float,
    soc_cap_j,
    w_b: float = 1.0,
    utility_fn: Optional[UtilityFunction] = None,
) -> MixedBatchWindowDecision:
    """Algorithm 1 for a batch whose rows have different ``|T|``.

    Row ``i`` reproduces :meth:`WindowSelector.select` with
    ``counts[i]`` windows bit for bit.  Rows are padded to
    ``T_max = green_matrix.shape[1]``; pad columns never influence a
    row's real columns:

    * utilities/scores/DIFs are elementwise, so pad values never touch
      real columns;
    * the cumulative-availability ``cumsum`` is a row *prefix* scan, so
      column ``t`` only reads ``green[:, :t]`` — all real for
      ``t < counts[i]``;
    * feasibility is forced ``False`` at and past each row's count, so
      the argmin can never select a pad column.

    Pad values of ``green_matrix`` are otherwise arbitrary (they must
    only pass the DIF non-negativity validation); callers may pass an
    over-computed matrix without zeroing the tail.
    """
    green = np.asarray(green_matrix, dtype=np.float64)
    est = np.asarray(estimated_tx_matrix, dtype=np.float64)
    if green.ndim != 2 or est.shape != green.shape:
        raise ConfigurationError(
            "green and tx-energy matrices must share an (N, T) shape"
        )
    n, windows = green.shape
    if windows == 0:
        raise ConfigurationError("at least one forecast window is required")
    counts_arr = np.asarray(counts, dtype=np.int64)
    if counts_arr.shape != (n,):
        raise ConfigurationError("counts must be one per row")
    if (counts_arr < 1).any() or (counts_arr > windows).any():
        raise ConfigurationError("counts must be in [1, T_max]")
    battery = np.asarray(battery_energies_j, dtype=np.float64)
    if (battery < 0).any():
        raise ConfigurationError("battery energy cannot be negative")
    w = np.asarray(normalized_degradations, dtype=np.float64)
    if ((w < 0.0) | (w > 1.0)).any():
        raise ConfigurationError("normalized degradation must be in [0, 1]")

    # Per-row utilities: rows sharing a count share one cached vector.
    fn = utility_fn or LinearUtility()
    utilities = np.zeros((n, windows))
    groups: Dict[int, List[int]] = {}
    for i, count in enumerate(counts_arr.tolist()):
        groups.setdefault(count, []).append(i)
    for count, rows in groups.items():
        utilities[np.asarray(rows), :count] = cached_utilities_vector(fn, count)

    difs = dif_batch(est, green, max_tx_energy_j)
    scores = (1.0 - utilities) + (w[:, None] * difs) * w_b

    # Lines 8-11: harvest energies are non-negative, so the θ-capped
    # recurrence ``stored ← min(cap, stored + green)`` collapses to
    # ``min(cap, running_sum)``, summed in the scalar path's order
    # (``np.cumsum`` accumulates left to right).
    cap = np.broadcast_to(np.asarray(soc_cap_j, dtype=np.float64), (n,))
    s0 = np.minimum(battery, cap)
    running = np.cumsum(
        np.concatenate([s0[:, None], green[:, :-1]], axis=1), axis=1
    )
    available = np.minimum(running, cap[:, None]) + green

    # Lines 7 + 12-18: the first feasible window in stable
    # non-decreasing-γ order is the feasible window with the smallest
    # score, ties to the lowest index — the masked argmin.
    feasible = (available - est) > 0.0
    feasible &= np.arange(windows)[None, :] < counts_arr[:, None]
    success = feasible.any(axis=1)
    chosen = np.where(feasible, scores, np.inf).argmin(axis=1)
    window_index = np.where(success, chosen, -1)
    return MixedBatchWindowDecision(
        success=success,
        window_index=window_index,
        utilities=utilities,
        scores=scores,
        difs=difs,
        weights=w,
    )
