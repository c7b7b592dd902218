"""Multi-seed replication and confidence intervals.

Single simulation runs carry seed noise (topology, channels, offsets,
clouds).  This module reduces the records of one configuration run
across seeds (a ``repro.sweep`` grid of one variant) to per-metric means
with Student-t confidence intervals, so claims like "H-50 extends
lifespan by X %" can be made with error bars — something the paper's
single-run plots do not provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..exceptions import ConfigurationError
from .figures import require_ok

#: Two-sided Student-t critical values at 95 % for small sample sizes
#: (df 1..30); avoids a scipy dependency for the common path.
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ConfigurationError("degrees of freedom must be >= 1")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96


@dataclass(frozen=True)
class MetricSummary:
    """Mean and 95 % confidence half-width of one metric across seeds."""

    name: str
    mean: float
    half_width_95: float
    samples: int
    minimum: float
    maximum: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width_95

    @property
    def high(self) -> float:
        return self.mean + self.half_width_95

    def __str__(self) -> str:
        return f"{self.name} = {self.mean:.4g} ± {self.half_width_95:.2g} (n={self.samples})"


def summarize(name: str, values: Sequence[float]) -> MetricSummary:
    """Mean ± 95 % CI of a sample (half-width 0 for a single value)."""
    if not values:
        raise ConfigurationError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(name, mean, 0.0, 1, values[0], values[0])
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_critical_95(n - 1) * math.sqrt(variance / n)
    return MetricSummary(name, mean, half, n, min(values), max(values))


@dataclass
class ReplicateSummary:
    """Aggregated metrics of one configuration across seeds."""

    seeds: List[int]
    metrics: Dict[str, MetricSummary]
    #: The :class:`repro.sweep.RunRecord` of each seed, in ``seeds`` order.
    records: List

    def metric(self, name: str) -> MetricSummary:
        try:
            return self.metrics[name]
        except KeyError as error:
            raise ConfigurationError(f"unknown metric {name!r}") from error


def summarize_replicates(records: Sequence) -> ReplicateSummary:
    """Reduce one configuration's records, one per seed, to mean ± 95 % CI.

    Each replicate resamples topology, periods, channel draws, clouds and
    shading.  Every summary metric is aggregated, plus the extrapolated
    network lifespan under the key ``lifespan_days``.
    """
    if not records:
        raise ConfigurationError("at least one seed is required")
    require_ok(records)
    seeds = [record.seed for record in records]
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError("replicates need one record per seed")
    if len({record.policy for record in records}) != 1:
        raise ConfigurationError("replicates must share one policy")

    samples: Dict[str, List[float]] = {}
    for record in records:
        summary = dict(record.summary)
        summary["lifespan_days"] = record.lifespan_days
        for key, value in summary.items():
            samples.setdefault(key, []).append(value)

    metrics = {name: summarize(name, values) for name, values in samples.items()}
    return ReplicateSummary(seeds=seeds, metrics=metrics, records=list(records))


def compare_lifespans(
    baseline: ReplicateSummary, treatment: ReplicateSummary
) -> MetricSummary:
    """Per-seed paired lifespan gain of ``treatment`` over ``baseline``.

    Pairs records by seed (same seed → same topology), computes the
    relative gain for each pair, and summarizes — a paired design that
    cancels topology noise.
    """
    treated = {record.seed: record for record in treatment.records}
    if sorted(baseline.seeds) != sorted(treated):
        raise ConfigurationError("replicate sets must use identical seeds")
    gains = [
        treated[record.seed].lifespan_days / record.lifespan_days - 1.0
        for record in baseline.records
    ]
    return summarize("lifespan_gain", gains)
