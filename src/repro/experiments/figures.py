"""Grids and reducers for every figure in the paper's evaluation.

A simulated figure is a grid plus a reducer.  The grid is a list of
``repro.sweep`` grid points (:func:`policy_grid`, :func:`testbed_grid`)
run by :func:`repro.sweep.run_sweep`; the reducer
(``fig*``) is a pure function of the resulting
:class:`repro.sweep.RunRecord`s that returns plain data structures with
exactly the rows/series the paper's figure plots, so the benchmark
harness can print them and tests can assert their shape (who wins, by
roughly what factor, where crossovers fall).

One grid feeds several reducers: Figs. 2 and 4-8 all read the
large-scale policies of :data:`PAPER_POLICIES`, so each configuration is
simulated once however many figures read it.  Records read back from a
``SWEEP.json`` report reduce to the same figures as the records of the
run itself.  A reducer refuses a grid with a record that is not ``ok``.

``repro.sweep`` is imported inside functions only: it pulls in the
distributed scheduler, which importing ``repro.experiments`` must not.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..battery import nonlinear_degradation
from ..constants import SECONDS_PER_YEAR
from ..core import LinearUtility, WindowSelector
from ..exceptions import ConfigurationError, SimulationError
from ..sim import SimulationConfig
from .scenarios import lifespan_policies, theta_sweep

#: The θ sweep of Figs. 4-6.
THETA_POLICIES = ("LoRaWAN", "H-5", "H-50", "H-100")
#: The lifespan comparison of Figs. 7-8.
LIFESPAN_POLICIES = ("LoRaWAN", "H-50", "H-50C")
#: Every large-scale policy a figure reads (Figs. 2 and 4-8).
PAPER_POLICIES = THETA_POLICIES + ("H-50C",)
#: The large-scale policies each simulated figure reads, by figure id.
FIGURE_POLICIES: Dict[str, Sequence[str]] = {
    "2": ("LoRaWAN",),
    "4": THETA_POLICIES,
    "5": THETA_POLICIES,
    "6": THETA_POLICIES,
    "7": LIFESPAN_POLICIES,
    "8": LIFESPAN_POLICIES,
}


# ------------------------------------------------------------------- grids


def policy_grid(base: SimulationConfig, policies: Sequence[str]) -> List:
    """One grid point per named large-scale policy, at ``base.seed``."""
    from ..sweep import build_grid

    configs = {**theta_sweep(base), **lifespan_policies(base)}
    unknown = [name for name in policies if name not in configs]
    if unknown:
        raise ConfigurationError(f"unknown figure policies {unknown}")
    return build_grid([(name, configs[name]) for name in policies], [base.seed])


def testbed_grid(base: SimulationConfig) -> List:
    """Fig. 9's grid, LoRaWAN and H-100 on the testbed (exact engine)."""
    from ..sweep import build_grid

    return build_grid(
        [("LoRaWAN", base.as_lorawan()), ("H-100", base.as_h(1.0))], [base.seed]
    )


# ---------------------------------------------------------------- records


def require_ok(records: Sequence) -> None:
    """Refuse a grid with a record that is not ``ok``, naming it."""
    for record in records:
        if not record.ok:
            lines = (record.error or "").strip().splitlines()
            reason = f": {lines[-1]}" if lines else ""
            raise SimulationError(
                f"grid point {record.index} ({record.label}) is "
                f"{record.status}{reason}"
            )


def policy_records(records: Sequence, policies: Sequence[str]) -> Dict[str, object]:
    """The record of each named policy, in ``policies`` order.

    Refuses a grid with a record that is not ``ok``, a policy without a
    record, and a policy with several (reduce one seed at a time).
    """
    require_ok(records)
    by_policy: Dict[str, object] = {}
    for record in records:
        if record.policy in by_policy:
            raise ConfigurationError(
                f"policy {record.policy} has more than one record"
            )
        by_policy[record.policy] = record
    missing = [name for name in policies if name not in by_policy]
    if missing:
        raise ConfigurationError(f"no record for policies {missing}")
    return {name: by_policy[name] for name in policies}


def record_metric(record, name: str) -> float:
    """A summary metric of one record (``lifespan_days`` included)."""
    if name == "lifespan_days":
        return record.lifespan_days
    try:
        return record.summary[name]
    except KeyError as error:
        raise ConfigurationError(f"unknown metric {name!r}") from error


def crossover(records: Sequence, metric: str, threshold: float):
    """First record, in grid order, whose ``metric`` crosses ``threshold``.

    The direction is the one the first record establishes; returns None
    if the metric never crosses.  The record's label names the swept
    value, for questions like "at what θ does PRR fall below 95 %?".
    """
    if not records:
        raise ConfigurationError("no sweep records given")
    require_ok(records)
    first = record_metric(records[0], metric)
    if first == threshold:
        return records[0]
    rising = first < threshold
    for record in records:
        value = record_metric(record, metric)
        if (rising and value >= threshold) or (not rising and value <= threshold):
            return record
    return None


# --------------------------------------------------------------------- Fig 2


def fig2_degradation_components(
    records: Sequence, years: int = 5
) -> Dict[str, List[float]]:
    """Fig. 2: calendar vs cycle vs total degradation of a LoRaWAN node.

    Returns per-month series over ``years`` years for the network-mean
    node: ``calendar``, ``cycle`` (both linear components, as the figure
    plots them), and ``total`` (the nonlinear Eq. 4 curve).  Shape to
    reproduce: calendar aging significantly higher than cycle aging.
    """
    record = policy_records(records, ("LoRaWAN",))["LoRaWAN"]
    cal_rate = record.mean_calendar_aging / record.simulated_s
    cyc_rate = record.mean_cycle_aging / record.simulated_s
    months = years * 12
    month_s = SECONDS_PER_YEAR / 12.0
    series: Dict[str, List[float]] = {"months": [], "calendar": [], "cycle": [], "total": []}
    for m in range(1, months + 1):
        t = m * month_s
        series["months"].append(float(m))
        series["calendar"].append(cal_rate * t)
        series["cycle"].append(cyc_rate * t)
        series["total"].append(nonlinear_degradation((cal_rate + cyc_rate) * t))
    return series


# --------------------------------------------------------------------- Fig 3


def fig3_degradation_influence(
    window_count: int = 10,
    tx_energy_j: float = 0.06,
    max_tx_energy_j: float = 0.132,
) -> Dict[str, Dict[str, int]]:
    """Fig. 3: window choice of the highest- vs lowest-degraded node.

    Reconstructs the paper's two sampling periods: in ``p28`` harvest
    exceeds the transmission energy in every window (both nodes should
    pick window 0, maximizing utility); in ``p29`` harvest is scarce and
    only a later window is green-rich — the highest-degraded node
    (w_u = 1) moves there while the lowest-degraded node (w_u ≈ 0)
    stays early.  Returns the chosen window per node per period.
    """
    selector = WindowSelector(
        w_b=1.0, utility_fn=LinearUtility(), max_tx_energy_j=max_tx_energy_j
    )
    rich = [tx_energy_j * 1.5] * window_count
    poor = [0.0] * window_count
    poor[1] = tx_energy_j * 1.2  # Energy arrives in forecast window 2 (1-based).
    battery = tx_energy_j * 20.0
    estimates = [tx_energy_j] * window_count

    outcome: Dict[str, Dict[str, int]] = {}
    for period, green in (("p28", rich), ("p29", poor)):
        outcome[period] = {}
        for label, w_u in (("highest_degraded", 1.0), ("lowest_degraded", 0.0)):
            decision = selector.select(
                battery_energy_j=battery,
                normalized_degradation=w_u,
                green_energies_j=green,
                estimated_tx_energies_j=estimates,
            )
            outcome[period][label] = decision.window_index
    return outcome


# ---------------------------------------------------------------- Figs 4-6


def fig4_window_selection(records: Sequence) -> Dict[str, Dict[int, int]]:
    """Fig. 4: nodes binned by majority forecast window, per policy.

    Shape: LoRaWAN puts 100 % of nodes in window 1 (index 0); the H
    variants spread nodes across the first few windows regardless of θ.
    """
    return {
        name: dict(sorted(record.window_histogram.items()))
        for name, record in policy_records(records, THETA_POLICIES).items()
    }


def fig5_energy_and_degradation(
    records: Sequence, horizon_years: float = 5.0
) -> Dict[str, Dict[str, float]]:
    """Fig. 5: (a) avg RETX, (b) TX energy, (c) degradation, per policy.

    Degradation is reported at the 5-year horizon via rate extrapolation
    (the paper's Fig. 5c is a 5-year simulation).  Shape: every H variant
    beats LoRaWAN on RETX and TX energy; H-50 cuts mean degradation by
    ~20 % while H-100's mean matches LoRaWAN.
    """
    rows: Dict[str, Dict[str, float]] = {}
    horizon_s = horizon_years * SECONDS_PER_YEAR
    for name, record in policy_records(records, THETA_POLICIES).items():
        degradations = [
            nonlinear_degradation(rate * horizon_s) for rate in record.linear_rates
        ]
        mean = sum(degradations) / len(degradations)
        variance = (
            sum((d - mean) ** 2 for d in degradations) / (len(degradations) - 1)
            if len(degradations) > 1
            else 0.0
        )
        rows[name] = {
            "avg_retx": record.summary["avg_retx"],
            "tx_energy_j": record.summary["total_tx_energy_j"],
            "mean_degradation": mean,
            "max_degradation": max(degradations),
            "degradation_variance": variance,
        }
    return rows


def fig6_network_performance(records: Sequence) -> Dict[str, Dict[str, float]]:
    """Fig. 6: (a) avg utility, (b) PRR, (c) avg latency, per policy.

    Shape: LoRaWAN's utility/PRR spread wide (ALOHA collisions); H-50
    and H-100 dominate both; H-5's PRR collapses (battery depletion);
    H latency exceeds LoRaWAN's delivered-packet latency.
    """
    keys = ("avg_utility", "avg_prr", "min_prr", "avg_latency_s", "avg_delivered_latency_s")
    return {
        name: {key: record.summary[key] for key in keys}
        for name, record in policy_records(records, THETA_POLICIES).items()
    }


# ---------------------------------------------------------------- Figs 7-8


def fig7_max_degradation_by_month(
    records: Sequence, months: int = 168
) -> Dict[str, List[float]]:
    """Fig. 7: max network degradation at each month, until EoL.

    The worst node's linear rate, extrapolated to each month boundary.
    Shape: LoRaWAN's curve climbs fastest and crosses 20 % years before
    H-50C, which crosses before H-50.
    """
    month_s = SECONDS_PER_YEAR / 12.0
    series: Dict[str, List[float]] = {}
    for name, record in policy_records(records, LIFESPAN_POLICIES).items():
        worst = max(record.linear_rates)
        series[name] = [
            nonlinear_degradation(worst * ((m + 1) * month_s)) for m in range(months)
        ]
    return series


def fig8_network_lifespan(records: Sequence) -> Dict[str, float]:
    """Fig. 8: network battery lifespan in days, per policy.

    Shape targets: LoRaWAN ≈ 8 years, H-50 ≈ 70 % longer, H-50C in
    between (paper: 2980 days vs 13.86 years vs intermediate).
    """
    return {
        name: record.lifespan_days
        for name, record in policy_records(records, LIFESPAN_POLICIES).items()
    }


# ------------------------------------------------------------------- Fig 9


def fig9_testbed(records: Sequence) -> Dict[str, Dict[str, float]]:
    """Fig. 9: the 24-hour, 10-node testbed — H-100 vs LoRaWAN.

    Reduces :func:`testbed_grid`'s exact-engine records.  Shape: PRR ≈
    100 % for both; LoRaWAN's degradation variance and cycle aging far
    exceed H-100's; H-100 has fewer RETX but higher latency.
    """
    keys = (
        "avg_prr",
        "avg_retx",
        "avg_latency_s",
        "avg_delivered_latency_s",
        "degradation_variance",
        "mean_degradation",
    )
    rows: Dict[str, Dict[str, float]] = {}
    for name, record in policy_records(records, ("LoRaWAN", "H-100")).items():
        rows[name] = {key: record.summary[key] for key in keys}
        rows[name]["total_cycle_aging"] = record.total_cycle_aging
    return rows
