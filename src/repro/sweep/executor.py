"""Self-healing parallel sweep execution with a deterministic merge.

``run_sweep`` runs the grid serially in-process, or leases its points
to forked local ``repro worker`` agents through the one scheduler,
:class:`repro.dist.DistScheduler` — one agent per worker slot, one
subprocess per in-flight run.  Determinism contract (see
docs/PERFORMANCE.md):

* every :class:`~repro.sweep.grid.SweepPoint` carries a complete,
  self-seeded config — workers share no RNG or mutable state;
* results are merged **by grid index**, never by completion order;
* an exception raised *by a run* is captured in that run's record
  (``status="failed"`` plus the traceback) without aborting the sweep.

Robustness contract (see docs/ROBUSTNESS.md):

* a run's subprocess dying (segfault, OOM kill, SIGKILL) is a failed
  attempt its agent reports; the run is retried — resuming from its
  newest checkpoint when per-run checkpointing is on — up to
  ``max_retries`` times before it is recorded as ``status="failed"``;
* a per-run wall-clock ``timeout_s`` revokes a stuck run: its
  subprocess is SIGTERMed (it writes a rescue checkpoint, the next
  attempt resumes from it), then SIGKILLed after a grace; the final
  status is ``"timeout"`` once retries are exhausted;
* a run that completes after one or more retries is recorded as
  ``status="resumed"`` with its total ``attempts`` count;
* SIGINT/SIGTERM on the parent stops scheduling, revokes every run
  (they write rescue checkpoints) and salvages every record already
  merged or finished within the grace; the report carries
  ``interrupted: true`` and omits unfinished cells, so
  ``repro sweep --resume`` re-runs exactly those.

Consequently ``run_sweep(spec, workers=N)`` produces records
bit-identical to ``workers=1`` for every N — only the timing fields
(``wall_s``, manifest phase timings) and retry bookkeeping differ.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..checkpoint.core import latest_checkpoint
from ..checkpoint.interrupt import last_signal, stop_requested
from ..dist.coordinator import (
    DistScheduler,
    LeaseTask,
    LeaseWork,
    LocalAgents,
)
from ..dist.protocol import unpack_blob
from ..exceptions import ConfigurationError, SimulationInterrupted
from ..ioutil import atomic_write_json
from ..obs import MetricsRegistry, config_hash
from .grid import SweepPoint

#: SWEEP.json schema identifier; bump on breaking layout changes.
#: v2: per-run ``attempts``, four-way status
#: (completed|resumed|failed|timeout), sweep-level ``interrupted`` flag
#: and embedded grid ``spec`` for ``repro sweep --resume``.
SCHEMA = "repro.sweep/2"

#: Final statuses a run record can carry.
STATUSES = ("completed", "resumed", "failed", "timeout")

@dataclass
class CrashSpec:
    """Deterministic worker-crash injection (tests / CI smoke only).

    The lease subprocess running grid point (or gateway cell) ``index``
    SIGKILLs itself right after writing its ``after_checkpoints``-th
    checkpoint, on each of its first ``attempts`` attempts — exercising
    crash detection and resume-from-checkpoint retry without OS-level
    fault injection.
    """

    index: int
    after_checkpoints: int = 1
    attempts: int = 1


@dataclass
class RunRecord:
    """Outcome of one grid point, in SWEEP.json layout."""

    index: int
    label: str
    seed: int
    policy: str
    engine: str
    status: str  # "completed" | "resumed" | "failed" | "timeout"
    config_hash: str
    summary: Dict[str, float] = field(default_factory=dict)
    lifespan_days: Optional[float] = None
    manifest: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    #: Times the run was started (1 = clean first try).
    attempts: int = 1
    #: Peak RSS (KiB) of the process that executed the run.  Accurate in
    #: the supervised process-per-run path; in the in-process serial path
    #: it is the parent's cumulative high-water mark (``ru_maxrss`` never
    #: goes down), so treat it as an upper bound there.
    peak_rss_kb: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Whether the run ultimately produced results."""
        return self.status in ("completed", "resumed")

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "seed": self.seed,
            "policy": self.policy,
            "engine": self.engine,
            "status": self.status,
            "config_hash": self.config_hash,
            "summary": self.summary,
            "lifespan_days": self.lifespan_days,
            "manifest": self.manifest,
            "error": self.error,
            "wall_s": self.wall_s,
            "attempts": self.attempts,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        """Rebuild a record from SWEEP.json (``repro sweep --resume``)."""
        return cls(
            index=int(data["index"]),
            label=str(data["label"]),
            seed=int(data["seed"]),
            policy=str(data["policy"]),
            engine=str(data["engine"]),
            status=str(data["status"]),
            config_hash=str(data["config_hash"]),
            summary=dict(data.get("summary") or {}),
            lifespan_days=data.get("lifespan_days"),
            manifest=data.get("manifest"),
            error=data.get("error"),
            wall_s=float(data.get("wall_s", 0.0)),
            attempts=int(data.get("attempts", 1)),
            peak_rss_kb=(
                None
                if data.get("peak_rss_kb") is None
                else int(data["peak_rss_kb"])
            ),
        )


@dataclass
class SweepResult:
    """All records of one sweep, ordered by grid index."""

    engine: str
    workers: int
    records: List[RunRecord]
    wall_s: float = 0.0
    #: Sweep-level counters (``sweep_runs_total{status=…}``).
    metrics: Optional[MetricsRegistry] = None
    #: Per-run wall-clock budget, when the watchdog was armed.
    timeout_s: Optional[float] = None
    #: Retry budget each crashed/stuck run had.
    max_retries: int = 0
    #: CLI grid spec, embedded so ``--resume`` can rebuild the grid.
    spec: Optional[Dict[str, object]] = None
    #: Whether the sweep was stopped by SIGINT/SIGTERM before every
    #: cell finished (records then cover only the finished cells).
    interrupted: bool = False

    @property
    def ok_count(self) -> int:
        """Number of runs that produced results (incl. after retries)."""
        return sum(1 for r in self.records if r.ok)

    @property
    def error_count(self) -> int:
        """Number of runs that ultimately failed or timed out."""
        return sum(1 for r in self.records if not r.ok)

    def to_dict(self) -> Dict[str, object]:
        """SWEEP.json layout (one aggregated manifest for the grid)."""
        return {
            "schema": SCHEMA,
            "engine": self.engine,
            "workers": self.workers,
            "run_count": len(self.records),
            "ok_count": self.ok_count,
            "error_count": self.error_count,
            "wall_s": self.wall_s,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "interrupted": self.interrupted,
            "spec": self.spec,
            "runs": [record.to_dict() for record in self.records],
        }

    def write(self, path: str) -> None:
        """Write the aggregated SWEEP.json (atomically)."""
        atomic_write_json(path, self.to_dict())


def execute_point(
    point: SweepPoint,
    engine: str,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_s: Optional[float] = None,
    resume_from: Optional[str] = None,
    trace_dir: Optional[str] = None,
    transport=None,
) -> RunRecord:
    """Run one grid point to a :class:`RunRecord` (the worker function).

    Top-level (picklable) and self-contained: builds its own
    observability bundle, catches run exceptions into the record, and
    returns plain data only.  ``checkpoint_dir``/``checkpoint_every_s``
    arm per-run checkpointing (the identity hash ignores them);
    ``resume_from`` restores that checkpoint instead of starting fresh
    — its config hash must match the point's.  A SIGINT/SIGTERM stop
    (:class:`SimulationInterrupted`) propagates to the caller; it is a
    scheduling event, not a run outcome.
    """
    # Imported here so a forked worker touches the engines lazily.
    from .. import sim as _sim

    if engine not in ("meso", "exact"):
        raise ConfigurationError(f"unknown sweep engine {engine!r}")
    config = point.config
    if checkpoint_dir is not None and checkpoint_every_s is not None:
        config = config.replace(
            checkpoint_every_s=checkpoint_every_s, checkpoint_dir=checkpoint_dir
        )
    if trace_dir is not None:
        # Per-cell JSONL sinks (``repro serve`` streams these live).
        # Tracing never perturbs simulation results — metrics stay
        # bit-identical for a given seed — but it does fill the
        # manifest's trace_* bookkeeping fields.
        os.makedirs(trace_dir, exist_ok=True)
        config = config.replace(
            trace=True,
            trace_path=os.path.join(
                trace_dir, f"run_{point.index:04d}.jsonl"
            ),
        )
    record = RunRecord(
        index=point.index,
        label=point.label,
        seed=point.seed,
        policy=config.policy_name,
        engine=engine,
        status="completed",
        config_hash=config_hash(config),
    )
    started = time.perf_counter()
    try:
        if resume_from is not None:
            from ..checkpoint.core import resume as _resume

            sim, _header = _resume(
                resume_from, expected_config_hash=record.config_hash
            )
            result = sim.run()
        elif engine == "exact":
            result = _sim.run_simulation(config)
        elif transport is not None:
            result = _sim.run_mesoscopic(config, transport=transport)
        else:
            result = _sim.run_mesoscopic(config)
        if engine == "meso":
            record.lifespan_days = result.network_lifespan_days()
        record.summary = result.metrics.summary()
        if result.manifest is not None:
            record.manifest = result.manifest.to_dict()
    except SimulationInterrupted:
        raise
    except Exception:
        record.status = "failed"
        record.error = traceback.format_exc()
    record.wall_s = time.perf_counter() - started
    try:
        import resource

        record.peak_rss_kb = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except (ImportError, OSError):  # pragma: no cover - non-POSIX hosts
        record.peak_rss_kb = None
    return record


# ----------------------------------------------------------- point leases


def run_point_lease(payload: Dict, spill_path: str) -> RunRecord:
    """Run one leased grid point (in an agent's lease subprocess)."""
    return execute_point(
        payload["point"],
        payload["engine"],
        checkpoint_dir=payload["run_dir"],
        checkpoint_every_s=payload["checkpoint_every_s"],
        resume_from=payload["resume_from"],
        trace_dir=payload["trace_dir"],
    )


def _failure_record(
    point: SweepPoint, engine: str, status: str, attempts: int, error: str
) -> RunRecord:
    """Record for a cell whose every attempt crashed or timed out."""
    return RunRecord(
        index=point.index,
        label=point.label,
        seed=point.seed,
        policy=point.config.policy_name,
        engine=engine,
        status=status,
        config_hash=config_hash(point.config),
        error=error,
        attempts=attempts,
    )


class PointWork(LeaseWork):
    """Sweep points as leases; a finished lease carries its RunRecord.

    Records merge by grid index into :attr:`records`; a point whose
    every attempt failed or timed out merges a ``failed``/``timeout``
    record instead.  Retries resume from the attempt's rescue checkpoint
    or, failing that, the newest one in the point's run directory.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        engine: str,
        registry: MetricsRegistry,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_s: Optional[float] = None,
        trace_dir: Optional[str] = None,
        on_record: Optional[Callable[[RunRecord], None]] = None,
    ) -> None:
        self.points = {point.index: point for point in points}
        self.engine = engine
        self.registry = registry
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every_s = checkpoint_every_s
        self.trace_dir = trace_dir
        self.on_record = on_record
        self.records: Dict[int, RunRecord] = {}

    def _run_dir(self, index: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"run_{index:04d}")

    def _merge(self, record: RunRecord) -> None:
        self.records[record.index] = record
        if self.on_record is not None:
            self.on_record(record)

    def start(self) -> List[LeaseTask]:
        return [LeaseTask(index) for index in self.points]

    def describe(self, key: int) -> Tuple[str, Dict]:
        return f"p{key}", {
            "index": key,
            "config_hash": config_hash(self.points[key].config),
        }

    def payload(self, task: LeaseTask) -> Dict:
        run_dir = self._run_dir(task.key)
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
        return {
            "run": run_point_lease,
            "point": self.points[task.key],
            "engine": self.engine,
            "run_dir": run_dir,
            "checkpoint_every_s": self.checkpoint_every_s,
            "resume_from": task.checkpoint,
            "trace_dir": self.trace_dir,
        }

    def complete(self, lease, frame: Dict) -> bool:
        if "result" not in frame:
            return False
        record = unpack_blob(frame["result"])
        record.attempts = lease.task.attempt
        if record.status == "completed" and record.attempts > 1:
            record.status = "resumed"
        self._merge(record)
        return True

    def retry(self, task: LeaseTask, checkpoint: Optional[str]) -> LeaseTask:
        run_dir = self._run_dir(task.key)
        if checkpoint is None and run_dir is not None:
            checkpoint = latest_checkpoint(run_dir)
        self.registry.counter(
            "sweep_retries_total",
            "Sweep run attempts retried after a crash or timeout",
        ).inc()
        return LeaseTask(task.key, task.attempt + 1, checkpoint)

    def give_up(self, task: LeaseTask, status: str, error: str) -> None:
        self._merge(
            _failure_record(
                self.points[task.key], self.engine, status, task.attempt, error
            )
        )


def run_sweep(
    points: Sequence[SweepPoint],
    engine: str = "meso",
    workers: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_s: Optional[float] = None,
    crash_spec: Optional[CrashSpec] = None,
    existing: Optional[Dict[int, RunRecord]] = None,
    spec: Optional[Dict[str, object]] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    trace_dir: Optional[str] = None,
    transport=None,
) -> SweepResult:
    """Execute every grid point and merge records in grid-index order.

    ``existing`` maps grid indices to records from a previous report
    (``repro sweep --resume``); those cells are not re-run.  When both
    ``checkpoint_dir`` and ``checkpoint_every_s`` are set, each run
    checkpoints into ``<checkpoint_dir>/run_<index>`` and retries
    continue from the newest snapshot instead of starting over.

    ``on_record`` is invoked in the parent process each time a cell's
    final record merges (completion order, not grid order) — the live
    progress hook behind ``repro sweep --progress-out`` and the
    ``repro serve`` aggregator.  ``trace_dir`` turns on per-cell event
    tracing into ``<trace_dir>/run_<index>.jsonl`` (results stay
    bit-identical; only manifest trace bookkeeping is affected).

    ``transport`` (a :class:`repro.dist.DistTransport`) leases every
    point's shard cells to remote workers: points run serially in this
    process — the parallelism lives across the worker fleet — so it is
    incompatible with ``workers > 1``, ``timeout_s`` and ``crash_spec``
    (per-cell retries and timeouts are the dist scheduler's job).
    """
    if engine not in ("meso", "exact"):
        raise ConfigurationError(f"unknown sweep engine {engine!r}")
    if transport is not None and (
        workers > 1 or timeout_s is not None or crash_spec is not None
    ):
        raise ConfigurationError(
            "a dist transport runs points serially in-process; drop "
            "--workers/--timeout (the dist scheduler handles per-cell "
            "timeouts and retries)"
        )
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be positive")
    indices = [point.index for point in points]
    if len(set(indices)) != len(indices):
        raise ConfigurationError("sweep grid indices must be unique")
    registry = metrics if metrics is not None else MetricsRegistry()
    started = time.perf_counter()
    by_index: Dict[int, RunRecord] = dict(existing or {})
    todo = [point for point in points if point.index not in by_index]
    interrupted = False

    supervised = transport is None and bool(todo) and (
        timeout_s is not None
        or crash_spec is not None
        or (workers > 1 and len(todo) > 1)
    )
    if not supervised:
        # In-process serial path: cheapest, and the one library callers
        # (and monkeypatching tests) observe directly.
        for point in todo:
            if stop_requested():
                interrupted = True
                break
            run_dir = None
            if checkpoint_dir is not None:
                run_dir = os.path.join(checkpoint_dir, f"run_{point.index:04d}")
                os.makedirs(run_dir, exist_ok=True)
            try:
                record = execute_point(
                    point,
                    engine,
                    checkpoint_dir=run_dir,
                    checkpoint_every_s=checkpoint_every_s,
                    trace_dir=trace_dir,
                    transport=transport,
                )
            except SimulationInterrupted:
                interrupted = True
                break
            by_index[point.index] = record
            if on_record is not None:
                on_record(record)
    else:
        work = PointWork(
            todo,
            engine,
            registry,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_s=checkpoint_every_s,
            trace_dir=trace_dir,
            on_record=on_record,
        )
        agents = LocalAgents(min(workers, len(todo)))
        try:
            interrupted = DistScheduler(
                agents.server,
                work,
                timeout_s=timeout_s,
                max_retries=max_retries,
                crash_spec=crash_spec,
            ).run()
        finally:
            agents.close()
        by_index.update(work.records)

    records = [
        by_index[index] for index in sorted(by_index) if index in by_index
    ]
    for record in records:
        registry.counter(
            "sweep_runs_total",
            "Sweep runs by final status",
            labels={"status": record.status},
        ).inc()
    return SweepResult(
        engine=engine,
        workers=workers,
        records=records,
        wall_s=time.perf_counter() - started,
        metrics=registry,
        timeout_s=timeout_s,
        max_retries=max_retries,
        spec=spec,
        interrupted=interrupted,
    )


def summarize(result: SweepResult) -> str:
    """Short human-readable sweep report (CLI text output)."""
    lines = [
        f"sweep: {len(result.records)} runs  engine: {result.engine}  "
        f"workers: {result.workers}  ok: {result.ok_count}  "
        f"errors: {result.error_count}  wall: {result.wall_s:.1f}s"
        + ("  [interrupted]" if result.interrupted else "")
    ]
    for record in result.records:
        retry = f"  ({record.attempts} attempts)" if record.attempts > 1 else ""
        if not record.ok:
            first = (record.error or "").strip().splitlines()
            lines.append(
                f"  [{record.index:3d}] {record.label}: {record.status.upper()} "
                f"({first[-1] if first else 'unknown'}){retry}"
            )
            continue
        prr = record.summary.get("avg_prr")
        degradation = record.summary.get("max_degradation")
        extra = (
            f"  lifespan {record.lifespan_days:.0f} d"
            if record.lifespan_days is not None
            else ""
        )
        lines.append(
            f"  [{record.index:3d}] {record.label}: prr {prr:.4f}  "
            f"max_deg {degradation:.3e}{extra}{retry}"
        )
    return "\n".join(lines)


def interrupt_exit_code() -> int:
    """Conventional 128+signum exit code after a graceful stop."""
    signum = last_signal()
    return 128 + signum if signum is not None else 130
