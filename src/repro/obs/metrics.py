"""Run-level metrics: counters, gauges, and time-weighted histograms.

A :class:`MetricsRegistry` is the structured successor to the ad-hoc
``fault_*`` key plumbing: components register named instruments once and
update them in O(1); the registry renders a Prometheus-style text
exposition (``--metrics-out metrics.prom``) or a JSON document
(``--metrics-out metrics.json``) at the end of a run.

Instruments follow Prometheus conventions: ``*_total`` counters only go
up, gauges move freely, and histograms expose cumulative ``le`` buckets.
Histograms are *weighted*: ``observe(value, weight)`` lets callers
weight a sample by the simulated time it was held (a time-weighted SoC
histogram reads "joules-seconds below 0.4 SoC", not "number of
samples"), with ``weight=1`` recovering plain counting.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

#: Registry key: metric name plus its sorted label pairs.
_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping (v0.0.4)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Prometheus text-format ``# HELP`` escaping (v0.0.4)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ConfigurationError(
            f"invalid metric name {name!r}: use [a-zA-Z0-9_:] only"
        )
    return name


class Counter:
    """Monotonically increasing count (Prometheus ``counter``)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _label_key(labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        """(suffix, labels, value) exposition rows."""
        return [("", self.labels, self.value)]


class Gauge:
    """A value that can move both ways (Prometheus ``gauge``)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _label_key(labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking)."""
        if value > self.value:
            self.value = float(value)

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        """(suffix, labels, value) exposition rows."""
        return [("", self.labels, self.value)]


class Histogram:
    """Weighted histogram with Prometheus-style cumulative buckets.

    ``observe(value, weight)`` adds ``weight`` to every bucket whose
    upper bound is >= ``value``.  With duration weights this is a
    *time-weighted* histogram: the exposition reads "total weight spent
    at or below each bound".
    """

    kind = "histogram"

    DEFAULT_BUCKETS: Tuple[float, ...] = (
        0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = _label_key(labels)
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError("histogram buckets must be sorted and non-empty")
        self.bounds: Tuple[float, ...] = bounds
        self._bucket_weights: List[float] = [0.0] * len(bounds)
        self.sum: float = 0.0
        self.count: float = 0.0

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Record ``value`` with the given weight (e.g. a duration)."""
        if weight < 0:
            raise ConfigurationError("histogram weights cannot be negative")
        index = bisect_left(self.bounds, value)
        if index < len(self._bucket_weights):
            self._bucket_weights[index] += weight
        self.sum += value * weight
        self.count += weight

    def bucket_weights(self) -> List[float]:
        """Cumulative weight at or below each bound (plus +Inf implicit)."""
        cumulative, total = [], 0.0
        for weight in self._bucket_weights:
            total += weight
            cumulative.append(total)
        return cumulative

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        """(suffix, labels, value) exposition rows, Prometheus layout."""
        rows: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
        for bound, weight in zip(self.bounds, self.bucket_weights()):
            if math.isinf(bound):
                continue  # the +Inf row below covers it
            rows.append(("_bucket", self.labels + (("le", f"{bound:g}"),), weight))
        rows.append(("_bucket", self.labels + (("le", "+Inf"),), self.count))
        rows.append(("_sum", self.labels, self.sum))
        rows.append(("_count", self.labels, self.count))
        return rows


class MetricsRegistry:
    """Named instrument store with get-or-create semantics.

    Asking twice for the same (name, labels) returns the same instrument;
    asking for an existing name with a different instrument type is an
    error (it would silently fork the metric).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = _check_name(namespace) if namespace else ""
        self._metrics: Dict[_MetricKey, object] = {}
        self._helps: Dict[str, str] = {}
        self._kinds: Dict[str, str] = {}

    # -------------------------------------------------------------- creation

    def _qualify(self, name: str) -> str:
        if self.namespace and not name.startswith(self.namespace + "_"):
            return f"{self.namespace}_{name}"
        return name

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Optional[Mapping[str, str]],
        **kwargs: object,
    ) -> object:
        name = self._qualify(name)
        kind = cls.kind  # type: ignore[attr-defined]
        existing_kind = self._kinds.get(name)
        if existing_kind is not None and existing_kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {existing_kind}"
            )
        key: _MetricKey = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = kind
            if help and name not in self._helps:
                self._helps[name] = help
        return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        """Get or create a (weighted) histogram."""
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[object]:
        return iter(self._metrics.values())

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[object]:
        """Look up an instrument without creating it."""
        return self._metrics.get((self._qualify(name), _label_key(labels)))

    # -------------------------------------------------------------- exports

    def to_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4 format)."""
        by_name: Dict[str, List[object]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines: List[str] = []
        for name, metrics in by_name.items():
            help_text = self._helps.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for metric in metrics:
                for suffix, labels, value in metric.samples():  # type: ignore[attr-defined]
                    rendered = _render_labels(labels)
                    lines.append(f"{name}{suffix}{rendered} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, object]:
        """JSON document: one entry per (name, labels) instrument."""
        entries: List[Dict[str, object]] = []
        for (name, labels), metric in sorted(self._metrics.items()):
            entry: Dict[str, object] = {
                "name": name,
                "kind": self._kinds[name],
                "labels": dict(labels),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = {
                    f"{bound:g}": weight
                    for bound, weight in zip(metric.bounds, metric.bucket_weights())
                }
                entry["sum"] = metric.sum
                entry["count"] = metric.count
            else:
                entry["value"] = metric.value  # type: ignore[attr-defined]
            entries.append(entry)
        return {"namespace": self.namespace, "metrics": entries}

    def to_json_text(self, indent: int = 2) -> str:
        """The JSON export, serialized."""
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    def flat(self) -> Dict[str, float]:
        """``{rendered_name: value}`` for quick assertions and tables."""
        flat: Dict[str, float] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            for suffix, sample_labels, value in metric.samples():  # type: ignore[attr-defined]
                flat[f"{name}{suffix}{_render_labels(sample_labels)}"] = value
        return flat
