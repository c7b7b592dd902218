"""Profiling hooks and the per-run manifest.

Every future performance PR is measured against the numbers collected
here: per-phase wall-clock timings (build / run / finalize), throughput
as simulated-seconds-per-wall-second, executed-event counts, and the
exact engine's peak event-queue depth.  The :class:`RunManifest` pins
the run's identity next to its results — config hash, seed, git
revision, engine, Python version — so a benchmark number can always be
traced back to the exact code and configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from ..exceptions import ConfigurationError
from ..ioutil import atomic_write_text


class HotLoopProfiler:
    """Per-kernel wall/call counters for the hot-loop kernel layer.

    The kernel layer (:mod:`repro.kernels`) reports every kernel
    invocation here when profiling is enabled; when disabled (the
    default) the accounting short-circuits to a single attribute check,
    keeping production runs free of timing overhead.  Counters
    accumulate across engines and sweeps within one process, so the
    ranked table of ``repro simulate --profile-hot`` reflects the whole
    run.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: kernel name → [calls, wall_seconds].
        self._stats: Dict[str, list] = {}

    def enable(self) -> None:
        """Turn on per-kernel timing (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn timing back off; accumulated counters are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated counters."""
        self._stats.clear()

    def add(self, kernel: str, wall_s: float, calls: int = 1) -> None:
        """Fold one (or ``calls``) kernel invocations into the counters."""
        entry = self._stats.get(kernel)
        if entry is None:
            entry = self._stats[kernel] = [0, 0.0]
        entry[0] += calls
        entry[1] += wall_s

    @contextmanager
    def span(self, kernel: str) -> Iterator[None]:
        """Time one block as a kernel invocation (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(kernel, time.perf_counter() - started)

    @property
    def stats(self) -> Dict[str, Dict[str, float]]:
        """``{kernel: {"calls": n, "wall_s": s}}`` snapshot."""
        return {
            name: {"calls": entry[0], "wall_s": entry[1]}
            for name, entry in self._stats.items()
        }

    def ranked(self) -> list:
        """``(kernel, calls, wall_s)`` rows, slowest first."""
        rows = [
            (name, entry[0], entry[1]) for name, entry in self._stats.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows

    def render_table(self) -> str:
        """The ranked per-kernel table ``--profile-hot`` prints."""
        rows = self.ranked()
        lines = ["hot-loop kernels"]
        if not rows:
            lines.append("  (no kernel invocations recorded)")
            return "\n".join(lines)
        total = sum(row[2] for row in rows) or 1.0
        header = f"  {'kernel':<28} {'calls':>12} {'wall_s':>10} {'share':>7}"
        lines.append(header)
        for name, calls, wall in rows:
            lines.append(
                f"  {name:<28} {calls:>12} {wall:>10.3f} {wall / total:>6.1%}"
            )
        return "\n".join(lines)

    def publish(self, registry) -> None:
        """Export the counters through a :class:`MetricsRegistry`.

        Families: ``repro_kernel_calls_total{kernel=...}`` and
        ``repro_kernel_wall_seconds_total{kernel=...}``.
        """
        for name, entry in self._stats.items():
            registry.counter(
                "kernel_calls_total",
                "Hot-loop kernel invocations",
                labels={"kernel": name},
            ).inc(entry[0])
            registry.counter(
                "kernel_wall_seconds_total",
                "Wall-clock seconds spent inside hot-loop kernels",
                labels={"kernel": name},
            ).inc(entry[1])


#: Process-wide hot-loop profiler the kernel layer reports into.
_HOT_PROFILER = HotLoopProfiler()


def hot_profiler() -> HotLoopProfiler:
    """The process-wide :class:`HotLoopProfiler` singleton."""
    return _HOT_PROFILER


class Profiler:
    """Named wall-clock phase timers for one run.

    Phases may be entered repeatedly (their durations accumulate) but
    not nested — the engines' build/run/finalize phases are strictly
    sequential, and overlapping attribution would double-count.
    """

    def __init__(self) -> None:
        self._timings: Dict[str, float] = {}
        self._active: Optional[str] = None
        self._started_at: float = 0.0

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase: ``with profiler.phase("run"): ...``."""
        if self._active is not None:
            raise ConfigurationError(
                f"phase {name!r} started while {self._active!r} is running"
            )
        self._active = name
        self._started_at = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - self._started_at
            self._timings[name] = self._timings.get(name, 0.0) + elapsed
            self._active = None

    @property
    def timings_s(self) -> Dict[str, float]:
        """Accumulated seconds per completed phase."""
        return dict(self._timings)

    @property
    def total_s(self) -> float:
        """Sum of all phase durations."""
        return sum(self._timings.values())

    def __getstate__(self) -> Dict[str, object]:
        """Snapshot with any in-flight phase folded into its timing.

        Checkpoints are written from inside the engines' ``run`` phase;
        folding the elapsed time in (without mutating the live profiler)
        lets a resumed run re-enter the phase and keep accumulating.
        """
        timings = dict(self._timings)
        if self._active is not None:
            elapsed = time.perf_counter() - self._started_at
            timings[self._active] = timings.get(self._active, 0.0) + elapsed
        return {"_timings": timings, "_active": None, "_started_at": 0.0}


#: Fields that never change results: checkpoint settings, tracing, retention
#: and the shard count (only sharded vs. unsharded, a semantic switch, is hashed).
_UNHASHED = (
    "checkpoint_every_s", "checkpoint_dir", "trace", "trace_path", "trace_categories",
    "sample_nodes", "shards",
)


def config_hash(config: object) -> str:
    """Stable short hash identifying a :class:`SimulationConfig`.

    Hashes :data:`~repro.checkpoint.retired.CONFIG_SCHEMA` and the sorted-key JSON
    of the fields that differ from their default (nested dataclasses alike,
    other non-JSON leaves via ``str``), except :data:`_UNHASHED` and the
    retired ones, so adding or deleting a field at its default keeps every hash.
    """
    from ..checkpoint.retired import CONFIG_SCHEMA, FIELDS

    payload = _changed(config)
    for name in (*_UNHASHED, *FIELDS):
        payload.pop(name, None)
    payload["shards"] = config.shards is not None
    text = json.dumps([CONFIG_SCHEMA, payload], sort_keys=True, default=_changed)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _changed(value: object) -> object:
    """JSON form of a config value: a dataclass as its fields that differ
    from their default, any other non-JSON leaf as ``str``."""
    if not dataclasses.is_dataclass(value):
        return str(value)
    return {
        spec.name: getattr(value, spec.name)
        for spec in dataclasses.fields(value)
        if getattr(value, spec.name)
        != (spec.default if spec.default_factory is dataclasses.MISSING else spec.default_factory())
    }


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The repository's HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


@dataclass
class RunManifest:
    """Everything needed to attribute one run's results.

    Written as JSON next to the run's trace/metrics outputs; also
    embedded in the ``repro simulate --json`` machine-readable summary.
    """

    engine: str
    seed: int
    config_hash: str
    node_count: int
    duration_s: float
    policy: str = ""
    git_rev: Optional[str] = None
    python: str = field(default_factory=platform.python_version)
    #: Wall-clock seconds per phase (build / run / finalize).
    phase_timings_s: Dict[str, float] = field(default_factory=dict)
    #: Total wall-clock time across phases.
    wall_s: float = 0.0
    #: Simulated seconds advanced per wall-clock second (throughput).
    sim_s_per_wall_s: float = 0.0
    #: Events executed (heap events for both engines).
    events_executed: int = 0
    #: Peak simultaneous entries in the event queue / sweep heap.
    peak_queue_depth: int = 0
    #: Trace-bus accounting, when tracing was enabled.
    trace_events: int = 0
    trace_dropped: int = 0
    trace_path: Optional[str] = None

    def finalize(self, profiler: Profiler, simulated_s: float) -> None:
        """Fold a profiler's timings and derive throughput."""
        self.phase_timings_s = profiler.timings_s
        self.wall_s = profiler.total_s
        run_s = self.phase_timings_s.get("run", self.wall_s)
        self.sim_s_per_wall_s = simulated_s / run_s if run_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (the JSON schema)."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """Serialized manifest."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the manifest JSON to ``path`` atomically."""
        atomic_write_text(path, self.to_json() + "\n")
