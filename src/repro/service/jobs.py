"""Run lifecycle management for ``repro serve``.

Submitted specs become **subprocesses** running the ordinary CLI
(``python -m repro sweep …`` / ``python -m repro simulate …``) — by
construction their artifacts are byte-identical to what the CLI writes,
the service process is isolated from simulation crashes, and *cancel*
is exactly the CLI's SIGTERM story: the sweep parent salvages a partial
``SWEEP.json`` plus rescue checkpoints, so a later resubmission (or the
manager's own respawn) picks up with ``--resume`` and loses no
completed cells.

Each run owns a directory under ``<data_dir>/runs/<run-id>/``::

    spec.json        the submitted spec, verbatim
    state.json       manager-side lifecycle facts (atomic rewrites)
    SWEEP.json       the sweep report (repro.sweep/3), once available
    progress.ndjson  one record per finished cell, appended live
    traces/          per-cell run_<index>.jsonl event sinks
    checkpoints/     per-cell checkpoint directories
    stdout.log / stderr.log

Exit codes map to final states: ``0`` → completed, ``1`` from a sweep →
completed-with-errors (some cells failed but the report is valid),
``128+signum`` → cancelled when we sent the signal, interrupted when
someone else did; anything else → failed.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ioutil import atomic_write_json
from ..sweep.spec import SPEC_KEYS, grid_size, spec_duration_s
from .http import HttpError

_SIMULATE_KEYS = frozenset(
    {
        "kind",
        "nodes",
        "days",
        "gateways",
        "policy",
        "theta",
        "seed",
        "engine",
        "trace",
        "memory_profile",
        "sample_nodes",
        "shards",
        "dist",
    }
)
_SWEEP_KEYS = frozenset(
    {"kind", "engine", "trace", "workers", "timeout_s", "max_retries", "dist"}
    | set(SPEC_KEYS)
)
_POLICIES = ("lorawan", "h", "hc")
_ENGINES = ("meso", "exact")


def _validate_dist(spec: Dict[str, object], out: Dict[str, object]) -> None:
    """Validate a spec's optional ``dist`` block into ``out``.

    The block mirrors the CLI's distributed flags: ``listen`` becomes
    ``--dist-listen`` and ``min_workers`` becomes ``--min-workers`` on
    the run subprocess, which then waits for that many ``repro worker``
    agents to dial in before simulating.
    """
    dist = spec.get("dist")
    if dist is None:
        return
    if not isinstance(dist, dict):
        raise HttpError(400, "dist must be an object")
    unknown = sorted(set(dist) - {"listen", "min_workers"})
    if unknown:
        raise HttpError(400, f"unknown dist keys: {unknown}")
    listen = dist.get("listen", "127.0.0.1:0")
    host, _, port_text = str(listen).rpartition(":")
    if not isinstance(listen, str) or not host or not port_text.isdigit():
        raise HttpError(400, f"dist.listen must be 'host:port', got {listen!r}")
    try:
        min_workers = int(dist.get("min_workers", 1))  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise HttpError(
            400, f"bad dist.min_workers: {dist.get('min_workers')!r}"
        ) from exc
    if min_workers < 1:
        raise HttpError(400, "dist.min_workers must be >= 1")
    if out.get("shards") is None:
        raise HttpError(400, "dist requires shards")
    if out.get("engine") != "meso":
        raise HttpError(400, "dist requires the meso engine")
    out["dist"] = {"listen": listen, "min_workers": min_workers}


def validate_spec(spec: object) -> Dict[str, object]:
    """Check a submitted spec; returns it normalized or raises 400."""
    if not isinstance(spec, dict):
        raise HttpError(400, "spec must be a JSON object")
    kind = spec.get("kind", "sweep")
    if kind not in ("sweep", "simulate"):
        raise HttpError(400, f"unknown kind {kind!r} (sweep or simulate)")
    allowed = _SWEEP_KEYS if kind == "sweep" else _SIMULATE_KEYS
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise HttpError(400, f"unknown spec keys for {kind}: {unknown}")
    out: Dict[str, object] = {"kind": kind}
    for key, caster, default in (
        ("nodes", int, 30),
        ("days", float, 5.0),
        ("gateways", int, 1),
        ("theta", float, 0.5),
    ):
        try:
            out[key] = caster(spec.get(key, default))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad {key!r}: {spec.get(key)!r}") from exc
    engine = spec.get("engine", "meso")
    if engine not in _ENGINES:
        raise HttpError(400, f"unknown engine {engine!r}")
    out["engine"] = engine
    out["trace"] = bool(spec.get("trace", False))
    profile = spec.get("memory_profile", "exact")
    if profile not in ("exact", "diet"):
        raise HttpError(
            400, f"unknown memory_profile {profile!r} (exact or diet)"
        )
    out["memory_profile"] = profile
    shards = spec.get("shards")
    if shards is not None:
        try:
            out["shards"] = int(shards)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad 'shards': {shards!r}") from exc
        if out["shards"] < 1:  # type: ignore[operator]
            raise HttpError(400, "shards must be >= 1")
    sample_nodes = spec.get("sample_nodes")
    if sample_nodes is not None:
        if isinstance(sample_nodes, str):
            sample_nodes = [s for s in sample_nodes.split(",") if s.strip()]
        if not isinstance(sample_nodes, list):
            raise HttpError(400, "sample_nodes must be a list of node ids")
        try:
            out["sample_nodes"] = [int(s) for s in sample_nodes]
        except (TypeError, ValueError) as exc:
            raise HttpError(
                400, f"bad 'sample_nodes': {spec.get('sample_nodes')!r}"
            ) from exc
    if kind == "simulate":
        policy = spec.get("policy", "h")
        if policy not in _POLICIES:
            raise HttpError(400, f"unknown policy {policy!r}")
        out["policy"] = policy
        try:
            out["seed"] = int(spec.get("seed", 1))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad 'seed': {spec.get('seed')!r}") from exc
        _validate_dist(spec, out)
        return out
    policies = spec.get("policies", ["h"])
    if isinstance(policies, str):
        policies = [p for p in policies.split(",") if p]
    if not isinstance(policies, list) or not policies:
        raise HttpError(400, "policies must be a non-empty list")
    bad = [p for p in policies if p not in _POLICIES]
    if bad:
        raise HttpError(400, f"unknown policies {bad}")
    out["policies"] = list(policies)
    seed_list = spec.get("seed_list")
    if seed_list is not None:
        if isinstance(seed_list, str):
            seed_list = [s for s in seed_list.split(",") if s]
        try:
            out["seed_list"] = [int(s) for s in seed_list]  # type: ignore[union-attr]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad 'seed_list': {spec.get('seed_list')!r}") from exc
        if not out["seed_list"]:
            raise HttpError(400, "seed_list must be non-empty")
    else:
        try:
            out["seeds"] = int(spec.get("seeds", 3))  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad 'seeds': {spec.get('seeds')!r}") from exc
        if out["seeds"] < 1:  # type: ignore[operator]
            raise HttpError(400, "seeds must be >= 1")
    axis = spec.get("axis")
    if axis is not None:
        if isinstance(axis, str):
            axis = [axis]
        if not isinstance(axis, list) or not all(
            isinstance(a, str) and "=" in a for a in axis
        ):
            raise HttpError(400, "axis must be a list of 'FIELD=V1,V2,…' strings")
        out["axis"] = list(axis)
    for key, caster in (
        ("workers", int),
        ("max_retries", int),
        ("timeout_s", float),
    ):
        if spec.get(key) is not None:
            try:
                out[key] = caster(spec[key])  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"bad {key!r}: {spec[key]!r}") from exc
    _validate_dist(spec, out)
    if "dist" in out and (
        int(out.get("workers", 1) or 1) > 1 or out.get("timeout_s") is not None
    ):
        raise HttpError(400, "dist is incompatible with workers > 1 or timeout_s")
    cells = grid_size(out)
    if not cells:
        raise HttpError(400, "spec expands to an empty or invalid grid")
    return out


@dataclass
class Job:
    """One submitted run and everything the service knows about it."""

    run_id: str
    spec: Dict[str, object]
    directory: str
    state: str = "queued"
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    exit_code: Optional[int] = None
    pid: Optional[int] = None
    cancel_requested: bool = False
    #: How many times the manager spawned a subprocess for this run
    #: (>1 after a service restart resumed a salvaged sweep).
    spawn_count: int = 0
    process: Optional[asyncio.subprocess.Process] = None

    @property
    def kind(self) -> str:
        return str(self.spec.get("kind", "sweep"))

    @property
    def total_cells(self) -> int:
        if self.kind == "simulate":
            return 1
        return grid_size(self.spec) or 0

    @property
    def duration_s(self) -> float:
        return spec_duration_s(self.spec)

    def path(self, *parts: str) -> str:
        return os.path.join(self.directory, *parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "state": self.state,
            "spec": self.spec,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "exit_code": self.exit_code,
            "pid": self.pid,
            "cancel_requested": self.cancel_requested,
            "spawn_count": self.spawn_count,
            "total_cells": self.total_cells,
        }


_RUN_ID_RE = re.compile(r"^run-(\d{4,})$")


class JobManager:
    """Queue, spawn, observe, and cancel run subprocesses."""

    def __init__(
        self,
        data_dir: str,
        max_parallel: int = 1,
        checkpoint_every_days: float = 1.0,
        max_queued: Optional[int] = None,
    ) -> None:
        self.data_dir = data_dir
        self.runs_dir = os.path.join(data_dir, "runs")
        self.max_parallel = max(1, int(max_parallel))
        self.max_queued = None if max_queued is None else max(0, int(max_queued))
        self.checkpoint_every_days = float(checkpoint_every_days)
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_index = 1
        self._waiters: List[asyncio.Task] = []
        self._closing = False
        os.makedirs(self.runs_dir, exist_ok=True)
        self._adopt_existing()

    # ------------------------------------------------------------ inventory

    def _adopt_existing(self) -> None:
        """Pick up run directories left by a previous service process.

        Their subprocesses are gone (or orphaned), so anything recorded
        as queued/running is re-queued — a salvaged ``SWEEP.json`` makes
        the respawn a ``--resume``, preserving completed cells.
        """
        import json

        for name in sorted(os.listdir(self.runs_dir)):
            match = _RUN_ID_RE.match(name)
            if match is None:
                continue
            self._next_index = max(self._next_index, int(match.group(1)) + 1)
            directory = os.path.join(self.runs_dir, name)
            spec_path = os.path.join(directory, "spec.json")
            state_path = os.path.join(directory, "state.json")
            try:
                with open(spec_path, "r", encoding="utf-8") as handle:
                    spec = json.load(handle)
            except (OSError, ValueError):
                continue
            job = Job(run_id=name, spec=spec, directory=directory)
            try:
                with open(state_path, "r", encoding="utf-8") as handle:
                    state = json.load(handle)
                job.state = str(state.get("state", "queued"))
                job.created_s = float(state.get("created_s", job.created_s))
                job.started_s = state.get("started_s")
                job.finished_s = state.get("finished_s")
                job.exit_code = state.get("exit_code")
                job.spawn_count = int(state.get("spawn_count", 0))
            except (OSError, ValueError):
                pass
            # queued/running: the old process is gone, start over.
            # interrupted: the shutdown (or an external signal) stopped
            # it mid-flight — a salvaged SWEEP.json makes the respawn a
            # --resume.  Cancelled runs stay cancelled: that was a user
            # decision, not a process fact.
            if job.state in ("queued", "running", "interrupted"):
                job.state = "queued"
                job.pid = None
            self.jobs[name] = job
            self._order.append(name)

    def list(self) -> List[Job]:
        return [self.jobs[run_id] for run_id in self._order]

    def get(self, run_id: str) -> Job:
        job = self.jobs.get(run_id)
        if job is None:
            raise HttpError(404, f"no run {run_id!r}")
        return job

    def running(self) -> List[Job]:
        return [job for job in self.jobs.values() if job.state == "running"]

    def queue_depth(self) -> int:
        return sum(1 for job in self.jobs.values() if job.state == "queued")

    # ----------------------------------------------------------- lifecycle

    def submit(self, spec: object) -> Job:
        """Validate, persist, and enqueue a run; pumps the queue."""
        if self._closing:
            raise HttpError(409, "service is shutting down")
        normalized = validate_spec(spec)
        if (
            self.max_queued is not None
            and self.queue_depth() >= self.max_queued
            and len(self.running()) >= self.max_parallel
        ):
            # The submission would have to wait behind a full queue:
            # backpressure, not acceptance.  A submit that would start
            # immediately (spare run capacity) is never refused.
            raise HttpError(
                429,
                f"submission queue is full ({self.queue_depth()} queued, "
                f"limit {self.max_queued}); retry after a run finishes",
            )
        run_id = f"run-{self._next_index:04d}"
        self._next_index += 1
        directory = os.path.join(self.runs_dir, run_id)
        os.makedirs(directory, exist_ok=True)
        job = Job(run_id=run_id, spec=normalized, directory=directory)
        atomic_write_json(job.path("spec.json"), normalized)
        self.jobs[run_id] = job
        self._order.append(run_id)
        self._persist(job)
        self.pump()
        return job

    def pump(self) -> None:
        """Start queued jobs while capacity allows."""
        if self._closing:
            return
        active = len(self.running())
        for run_id in self._order:
            if active >= self.max_parallel:
                break
            job = self.jobs[run_id]
            if job.state != "queued":
                continue
            self._spawn(job)
            active += 1

    def _spawn(self, job: Job) -> None:
        job.state = "running"
        job.started_s = time.time()
        job.spawn_count += 1
        job.exit_code = None
        self._persist(job)
        self._waiters.append(asyncio.get_event_loop().create_task(self._run(job)))

    def _argv(self, job: Job) -> List[str]:
        spec = job.spec
        argv = [sys.executable, "-m", "repro", job.kind]
        argv += ["--nodes", str(spec["nodes"]), "--days", str(spec["days"])]
        argv += ["--theta", str(spec["theta"]), "--engine", str(spec["engine"])]
        if spec.get("gateways") is not None:
            argv += ["--gateways", str(spec["gateways"])]
        if spec.get("memory_profile", "exact") != "exact":
            argv += ["--memory-profile", str(spec["memory_profile"])]
        if spec.get("shards") is not None:
            argv += ["--shards", str(spec["shards"])]
        dist = spec.get("dist")
        if isinstance(dist, dict):
            argv += ["--dist-listen", str(dist["listen"])]
            argv += ["--min-workers", str(dist["min_workers"])]
        if spec.get("sample_nodes"):
            argv += [
                "--sample-nodes",
                ",".join(str(n) for n in spec["sample_nodes"]),  # type: ignore[union-attr]
            ]
        if job.kind == "simulate":
            argv += ["--policy", str(spec["policy"]), "--seed", str(spec["seed"])]
            argv += ["--json", "--metrics-out", job.path("metrics.json")]
            argv += ["--manifest-out", job.path("manifest.json")]
            if spec.get("trace"):
                argv += ["--trace-out", job.path("trace.jsonl")]
            argv += ["--checkpoint-dir", job.path("checkpoints")]
            argv += ["--checkpoint-every", str(self.checkpoint_every_days)]
            return argv
        argv += ["--policies", ",".join(map(str, spec["policies"]))]  # type: ignore[arg-type]
        if spec.get("seed_list") is not None:
            argv += ["--seed-list", ",".join(map(str, spec["seed_list"]))]  # type: ignore[arg-type]
        else:
            argv += ["--seeds", str(spec["seeds"])]
        for axis in spec.get("axis") or []:  # type: ignore[union-attr]
            argv += ["--axis", str(axis)]
        if spec.get("workers") is not None:
            argv += ["--workers", str(spec["workers"])]
        if spec.get("timeout_s") is not None:
            argv += ["--timeout", str(spec["timeout_s"])]
        if spec.get("max_retries") is not None:
            argv += ["--max-retries", str(spec["max_retries"])]
        report = job.path("SWEEP.json")
        if os.path.exists(report):
            # A previous attempt salvaged a partial report — resume it
            # so completed cells are never re-run.
            argv += ["--resume", report]
        else:
            argv += ["--out", report]
        argv += ["--json", "--progress-out", job.path("progress.ndjson")]
        if spec.get("trace"):
            os.makedirs(job.path("traces"), exist_ok=True)
            argv += ["--trace-dir", job.path("traces")]
        argv += ["--checkpoint-dir", job.path("checkpoints")]
        argv += ["--checkpoint-every", str(self.checkpoint_every_days)]
        return argv

    @staticmethod
    def _child_env() -> Dict[str, str]:
        """Child env with the live ``repro`` package on PYTHONPATH."""
        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        return env

    async def _run(self, job: Job) -> None:
        argv = self._argv(job)
        try:
            with open(job.path("stdout.log"), "ab") as out_handle, open(
                job.path("stderr.log"), "ab"
            ) as err_handle:
                process = await asyncio.create_subprocess_exec(
                    *argv,
                    stdout=out_handle,
                    stderr=err_handle,
                    env=self._child_env(),
                )
                job.process = process
                job.pid = process.pid
                self._persist(job)
                exit_code = await process.wait()
        except Exception:
            job.state = "failed"
            job.finished_s = time.time()
            job.process = None
            self._persist(job)
            self.pump()
            return
        job.exit_code = exit_code
        job.finished_s = time.time()
        job.process = None
        job.state = self._final_state(job, exit_code)
        self._persist(job)
        self.pump()

    def _final_state(self, job: Job, exit_code: int) -> str:
        if exit_code == 0:
            return "completed"
        if exit_code == 1 and job.kind == "sweep":
            return "completed-with-errors"
        # 128+signum is the CLI's graceful-stop convention; a negative
        # code means the signal landed before the handler was armed
        # (asyncio reports raw signal deaths as -signum).
        if exit_code >= 128 or exit_code < 0:
            return "cancelled" if job.cancel_requested else "interrupted"
        return "failed"

    def cancel(self, run_id: str) -> Job:
        """Cancel a queued run or SIGTERM a running one.

        The sweep parent's SIGTERM handler writes rescue checkpoints
        and salvages a partial report, so nothing completed is lost.
        """
        job = self.get(run_id)
        if job.state == "queued":
            job.cancel_requested = True
            job.state = "cancelled"
            job.finished_s = time.time()
            self._persist(job)
            return job
        if job.state != "running":
            raise HttpError(409, f"run {run_id} is {job.state}; nothing to cancel")
        job.cancel_requested = True
        self._persist(job)
        if job.pid is not None:
            try:
                os.kill(job.pid, signal.SIGTERM)
            except (ProcessLookupError, PermissionError):
                pass
        return job

    async def delete(
        self, run_id: str, cancel: bool = False, grace_s: float = 10.0
    ) -> Dict[str, object]:
        """Forget a run and remove its directory; returns its last facts.

        Running runs are refused (409) unless ``cancel`` is set, in
        which case they get the ordinary SIGTERM cancel path first and
        a SIGKILL if they outlive ``grace_s``.  Removal is atomic from
        the service's point of view: the directory is renamed to a
        dot-prefixed name (invisible to run adoption) before the
        recursive delete, so a crash mid-delete cannot resurrect a
        half-removed run.
        """
        job = self.get(run_id)
        if job.state == "running":
            if not cancel:
                raise HttpError(
                    409,
                    f"run {run_id} is running; pass ?cancel=1 to stop "
                    f"and delete it",
                )
            self.cancel(run_id)
            deadline = time.monotonic() + grace_s
            while job.state == "running" and time.monotonic() < deadline:
                await asyncio.sleep(0.1)
            if job.state == "running":
                if job.process is not None:
                    try:
                        job.process.kill()
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + grace_s
                while job.state == "running" and time.monotonic() < deadline:
                    await asyncio.sleep(0.1)
        elif job.state == "queued":
            # Never spawned; flip it terminal so a concurrent pump()
            # cannot start it between forget and remove.
            job.state = "cancelled"
            job.finished_s = time.time()
        summary = job.to_dict()
        self.jobs.pop(run_id, None)
        try:
            self._order.remove(run_id)
        except ValueError:
            pass
        doomed = os.path.join(
            self.runs_dir, f".deleting-{job.run_id}-{os.getpid()}"
        )
        try:
            os.replace(job.directory, doomed)
        except FileNotFoundError:
            doomed = None
        except OSError:
            doomed = job.directory
        if doomed is not None:
            shutil.rmtree(doomed, ignore_errors=True)
        self.pump()
        return summary

    async def shutdown(self, grace_s: float = 20.0) -> None:
        """SIGTERM every running child and wait for waiters to settle."""
        self._closing = True
        for job in self.running():
            if job.pid is not None:
                try:
                    os.kill(job.pid, signal.SIGTERM)
                except (ProcessLookupError, PermissionError):
                    pass
        if self._waiters:
            done, pending = await asyncio.wait(
                self._waiters, timeout=grace_s
            )
            for task in pending:
                task.cancel()
            for job in self.running():
                if job.process is not None:
                    try:
                        job.process.kill()
                    except ProcessLookupError:
                        pass

    # ---------------------------------------------------------- persistence

    def _persist(self, job: Job) -> None:
        payload = job.to_dict()
        payload.pop("pid", None)
        try:
            atomic_write_json(job.path("state.json"), payload)
        except OSError:  # pragma: no cover - disk-full etc.
            pass
