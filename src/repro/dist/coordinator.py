"""Coordinator side of the dist plane: the socket server and scheduler.

:class:`DistServer` owns the listening socket and the connected worker
registry; it is a synchronous, ``selectors``-driven loop so the (also
synchronous) coordinators — :func:`repro.sim.sharded.run_sharded` and
:func:`repro.sweep.run_sweep` — can drive it inline.
:class:`DistScheduler` is the one scheduler for every parallel job:
it ships each unit of work (a gateway cell, or a sweep point) to a
``repro worker`` agent as a *lease* — a pickled payload naming the
function to run — tracks it with heartbeats and an optional per-lease
deadline, and re-dispatches it, from its newest checkpoint, when the
attempt fails or the worker dies, disconnects, or goes silent.  The
agents are remote processes, or :class:`LocalAgents` forked from this
process and connected over loopback.

Failure semantics (the short version; docs/DISTRIBUTED.md has the
matrix):

* **Worker EOF / socket error** → worker is *lost*; its in-flight
  leases re-queue immediately (attempt + 1).
* **Heartbeat overdue** → worker is *stale*; its leases re-queue and
  are revoked, so the abandoned subprocesses stop.  The socket stays
  open: if the worker was merely stalled, its late ``done`` names a
  lease the coordinator no longer tracks and is **discarded** —
  per-lease spill files mean the late attempt never touches the
  re-dispatched cell's artifact.
* **Per-lease deadline exceeded** → the lease is revoked; it keeps its
  slot until the agent answers (after its subprocess wrote a rescue
  checkpoint), then retries as a timeout from that checkpoint.
* **Lease subprocess died or failed** → the agent reports a failed
  attempt in ``done``; the lease re-queues and the agent keeps serving.
* **Attempts exhausted** (``max_retries`` + 1) → a cell raises
  :class:`~repro.exceptions.SimulationError`; a sweep point merges a
  ``failed``/``timeout`` record.

Artifact frames (``chunk``) are spilled straight to
``<spill_path>.part-<lease_id>`` on disk — the coordinator never holds
a cell's rows in memory — and the part file is atomically renamed over
the real spill path once its ``done`` arrives and the artifact
verifies complete.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import socket
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..checkpoint.interrupt import last_signal, stop_requested
from ..exceptions import (
    DistError,
    DistProtocolError,
    SimulationError,
    SimulationInterrupted,
)
from ..obs import MetricsRegistry, config_hash
from ..sim.sharded import (
    CellOutcome,
    RoundRequest,
    outcome_from_artifact,
    run_cell_lease,
)
from .artifact import artifact_complete, load_cell_artifact
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    pack_blob,
)
from .worker import _GRACE_S, run_worker

#: A worker is stale once its last frame is older than this (seconds).
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0

#: With cells unfinished and zero connected workers, the scheduler
#: fails loudly after this long rather than waiting forever for a
#: reconnect that may never come.
NO_WORKERS_TIMEOUT_S = 120.0


@dataclass
class _RemoteWorker:
    """One connected ``repro worker`` agent."""

    sock: socket.socket
    address: str
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    name: str = ""
    slots: int = 1
    pid: Optional[int] = None
    state: str = "handshaking"  # handshaking | idle | stale | lost
    last_seen: float = 0.0
    #: lease_id -> lease, for leases this worker currently holds.
    leases: Dict[str, "_Lease"] = field(default_factory=dict)
    #: Leases reclaimed from this worker while stale and revoked; each
    #: holds a slot until the worker answers it.
    revoking: set = field(default_factory=set)

    @property
    def welcomed(self) -> bool:
        return self.state in ("idle", "stale")

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.leases) - len(self.revoking)


class DistServer:
    """Listens for workers and shuttles frames, synchronously.

    The server outlives individual rounds and runs: workers stay
    connected between the border-exchange rounds of one simulation and
    between the points of a sweep.  Callers drive it by invoking
    :meth:`poll` from their scheduling loop and get back a list of
    ``("joined" | "frame" | "lost", worker[, frame])`` events.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server(
            (host, port), reuse_port=False
        )
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._workers: List[_RemoteWorker] = []
        self._config_hash: Optional[str] = None
        self._closed = False

    @property
    def bound_host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def bound_port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def workers(self) -> List[_RemoteWorker]:
        """Workers that completed the handshake and are still reachable."""
        return [w for w in self._workers if w.welcomed]

    def set_config_hash(self, value: Optional[str]) -> None:
        """The active run's config hash (handshake refusal + leases)."""
        self._config_hash = value

    # ------------------------------------------------------------- polling

    def poll(self, timeout: float) -> List[Tuple]:
        """Process socket readiness for up to ``timeout`` seconds.

        Returns ``("joined", worker)``, ``("frame", worker, frame)`` and
        ``("lost", worker)`` events in arrival order.
        """
        events: List[Tuple] = []
        for key, _mask in self._selector.select(timeout):
            if key.data is None:
                self._accept()
                continue
            worker: _RemoteWorker = key.data
            try:
                data = worker.sock.recv(1 << 16)
            except (OSError, ValueError):
                data = b""
            if not data:
                self._drop(worker)
                events.append(("lost", worker))
                continue
            worker.last_seen = time.monotonic()
            try:
                frames = worker.decoder.feed(data)
            except DistProtocolError:
                self._drop(worker)
                events.append(("lost", worker))
                continue
            for frame in frames:
                if worker.state == "handshaking":
                    if self._handshake(worker, frame):
                        events.append(("joined", worker))
                    else:
                        events.append(("lost", worker))
                elif worker.state != "lost":
                    events.append(("frame", worker, frame))
        return events

    def _accept(self) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker = _RemoteWorker(
            sock=sock,
            address=f"{addr[0]}:{addr[1]}",
            last_seen=time.monotonic(),
        )
        worker.name = worker.address
        self._workers.append(worker)
        self._selector.register(sock, selectors.EVENT_READ, worker)

    def _handshake(self, worker: _RemoteWorker, frame: Dict) -> bool:
        if frame.get("type") != "hello":
            self.send(worker, {"type": "reject", "reason": "expected hello"})
            self._drop(worker)
            return False
        version = frame.get("version")
        if version != PROTOCOL_VERSION:
            self.send(
                worker,
                {
                    "type": "reject",
                    "reason": (
                        f"protocol version mismatch: coordinator speaks "
                        f"{PROTOCOL_VERSION}, worker speaks {version}"
                    ),
                },
            )
            self._drop(worker)
            return False
        expected = frame.get("config_hash")
        if (
            expected is not None
            and self._config_hash is not None
            and expected != self._config_hash
        ):
            self.send(
                worker,
                {
                    "type": "reject",
                    "reason": (
                        f"config hash mismatch: run is {self._config_hash}, "
                        f"worker expects {expected}"
                    ),
                },
            )
            self._drop(worker)
            return False
        worker.name = str(frame.get("name") or worker.address)
        worker.slots = max(1, int(frame.get("slots", 1)))
        worker.pid = frame.get("pid")
        worker.state = "idle"
        return self.send(
            worker,
            {
                "type": "welcome",
                "version": PROTOCOL_VERSION,
                "config_hash": self._config_hash,
            },
        )

    # ------------------------------------------------------------- sending

    def send(self, worker: _RemoteWorker, payload: Dict) -> bool:
        """Send one frame; marks the worker lost on a dead socket."""
        if worker.state == "lost":
            return False
        try:
            worker.sock.sendall(encode_frame(payload))
            return True
        except OSError:
            self._drop(worker)
            return False

    def _drop(self, worker: _RemoteWorker) -> None:
        if worker.state == "lost":
            return
        worker.state = "lost"
        try:
            self._selector.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------ lifecycle

    def wait_for_workers(
        self, min_workers: int, timeout_s: Optional[float] = None
    ) -> None:
        """Block until ``min_workers`` agents have completed handshakes."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while len(self.workers) < min_workers:
            if deadline is not None and time.monotonic() > deadline:
                raise DistError(
                    f"only {len(self.workers)} of {min_workers} workers "
                    f"connected within {timeout_s:.0f}s"
                )
            self.poll(0.2)

    def shutdown(self) -> None:
        """Tell every worker the run is over, then close everything."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            if worker.welcomed:
                self.send(worker, {"type": "shutdown"})
            self._drop(worker)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self) -> "DistServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


@dataclass
class LeaseTask:
    """One attempt of one unit of work, waiting for a worker slot."""

    #: Cell index or grid index: what the crash hook and lease ids name.
    key: int
    attempt: int = 1
    #: Checkpoint the attempt resumes from (sweep points; cells resume
    #: from their own checkpoint directory).
    checkpoint: Optional[str] = None


class LeaseWork:
    """One kind of leased work: what a lease runs and how it merges.

    :class:`DistScheduler` is generic over this seam; :class:`CellWork`
    (gateway cells) and :class:`repro.sweep.executor.PointWork` (sweep
    points) are its two kinds.  A lease payload names a top-level
    function, ``payload["run"](payload, spill_path)``, that the agent's
    lease subprocess calls; a cell writes its artifact to ``spill_path``
    (streamed back as ``chunk`` frames), a point returns its record
    (shipped back in the ``done`` frame).
    """

    #: Config hash workers must match at handshake (None: mixed configs).
    config_hash: Optional[str] = None
    registry: MetricsRegistry

    def start(self) -> List[LeaseTask]:
        """Tasks to lease, in lease order (work already done is merged)."""
        raise NotImplementedError

    def describe(self, key: int) -> Tuple[str, Dict]:
        """Lease-id prefix and the extra ``lease`` frame fields."""
        raise NotImplementedError

    def payload(self, task: LeaseTask) -> Dict:
        """The pickled lease payload (must carry ``"run"``)."""
        raise NotImplementedError

    def complete(self, lease: "_Lease", frame: Dict) -> bool:
        """Merge an ``ok`` lease; False when its result is unusable."""
        raise NotImplementedError

    def retry(self, task: LeaseTask, checkpoint: Optional[str]) -> LeaseTask:
        """The next attempt of a task whose attempt ended without a result."""
        return LeaseTask(task.key, task.attempt + 1)

    def give_up(self, task: LeaseTask, status: str, error: str) -> None:
        """Handle a task whose every attempt failed or timed out."""
        raise NotImplementedError

    def chunk(self, lease: "_Lease", lines: List[str]) -> None:
        """Spill one ``chunk`` frame of the lease's artifact."""
        raise DistProtocolError("chunk frame for a lease without an artifact")

    def discard(self, lease: "_Lease") -> None:
        """Drop whatever an attempt left behind (it will not merge)."""

    def count(self, status: str, worker_name: str) -> None:
        """Account one lease event (completed, failed, discarded, …)."""


@dataclass
class _Lease:
    """One task leased to one worker."""

    lease_id: str
    task: LeaseTask
    worker: _RemoteWorker
    deadline: Optional[float] = None
    #: Why the coordinator revoked it ("timeout" | "stop"), if it did.
    revoked: Optional[str] = None
    #: When an unanswered revoke counts as a silent worker.
    revoke_deadline: float = 0.0


class CellWork(LeaseWork):
    """One border-exchange round's cells; a finished cell is its artifact.

    Cells are leased largest first (by node count, ties by cell index),
    so the longest cell starts earliest and the round's makespan
    shortens; the order never changes results.  Attempts exhausted
    raise :class:`~repro.exceptions.SimulationError`.
    """

    def __init__(self, request: RoundRequest) -> None:
        self.request = request
        self.registry = request.registry
        self.config_hash = config_hash(request.config)
        self.outcomes: Dict[int, CellOutcome] = {}

    def start(self) -> List[LeaseTask]:
        request = self.request
        tasks = []
        for cell in request.cell_ids:
            spill = request.spill_by_cell[cell]
            if artifact_complete(spill):
                # A previous attempt (or a resumed run reusing the spill
                # directory) already finished this cell.
                self.outcomes[cell] = outcome_from_artifact(
                    load_cell_artifact(spill, skim=True)
                )
                self.count("cached", "coordinator")
            else:
                tasks.append(LeaseTask(cell))
        tasks.sort(
            key=lambda task: (
                -len(request.placements_by_cell[task.key]),
                task.key,
            )
        )
        return tasks

    def describe(self, key: int) -> Tuple[str, Dict]:
        round_no = self.request.round_no
        return f"r{round_no}c{key}", {
            "cell": key,
            "round": round_no,
            "config_hash": self.config_hash,
        }

    def payload(self, task: LeaseTask) -> Dict:
        request = self.request
        cell = task.key
        return {
            "run": run_cell_lease,
            "cell": cell,
            "round": request.round_no,
            "config": request.config,
            "placements": request.placements_by_cell[cell],
            "export": request.export_by_cell.get(cell),
            "foreign": request.foreign_by_cell.get(cell),
            "ckpt_dir": request.ckpt_by_cell.get(cell),
        }

    def _part_path(self, lease: _Lease) -> str:
        spill = self.request.spill_by_cell[lease.task.key]
        return f"{spill}.part-{lease.lease_id}"

    def chunk(self, lease: _Lease, lines: List[str]) -> None:
        part_path = self._part_path(lease)
        os.makedirs(os.path.dirname(part_path), exist_ok=True)
        with open(part_path, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")

    def complete(self, lease: _Lease, frame: Dict) -> bool:
        part_path = self._part_path(lease)
        if not artifact_complete(part_path):
            return False
        spill = self.request.spill_by_cell[lease.task.key]
        os.replace(part_path, spill)
        self.outcomes[lease.task.key] = outcome_from_artifact(
            load_cell_artifact(spill, skim=True)
        )
        return True

    def give_up(self, task: LeaseTask, status: str, error: str) -> None:
        raise SimulationError(
            f"cell {task.key} failed after {task.attempt} attempt(s): {error}"
        )

    def discard(self, lease: _Lease) -> None:
        try:
            os.remove(self._part_path(lease))
        except OSError:
            pass

    def count(self, status: str, worker_name: str) -> None:
        self.registry.counter(
            "dist_cells_total",
            "Cell leases by terminal status and worker",
            labels={"status": status, "worker": worker_name},
        ).inc()


class DistScheduler:
    """Leases one batch of work to connected workers until all of it merged.

    The only scheduler: local sweeps and shard rounds run on forked
    :class:`LocalAgents`, distributed runs on remote ``repro worker``
    agents; :class:`LeaseWork` supplies what differs between cells and
    sweep points.
    """

    def __init__(
        self,
        server: DistServer,
        work: LeaseWork,
        *,
        min_workers: int = 1,
        timeout_s: Optional[float] = None,
        max_retries: int = 1,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        crash_spec=None,
    ) -> None:
        self.server = server
        self.work = work
        self.min_workers = min_workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: Deterministic crash injection (tests / CI smoke): the lease of
        #: ``crash_spec.index`` dies after that many checkpoints on each
        #: of its first ``crash_spec.attempts`` attempts.
        self.crash_spec = crash_spec
        self.pending: Deque[LeaseTask] = deque()
        self.active: Dict[str, _Lease] = {}
        #: Tasks neither merged nor given up.
        self.unfinished = 0
        self._lease_seq = 0

    # --------------------------------------------------------------- metrics

    def _update_gauges(self) -> None:
        registry = self.work.registry
        states = {"connected": 0, "stale": 0}
        now = time.monotonic()
        for worker in self.server.workers:
            states["stale" if worker.state == "stale" else "connected"] += 1
            registry.gauge(
                "dist_worker_heartbeat_age_s",
                "Seconds since the worker's last frame",
                labels={"worker": worker.name},
            ).set(now - worker.last_seen)
        for state, count in states.items():
            registry.gauge(
                "dist_workers",
                "Connected dist workers by state",
                labels={"state": state},
            ).set(count)

    # ------------------------------------------------------------------ run

    def run(self) -> bool:
        """Lease every task to the end; True when a stop signal cut it short.

        On SIGINT/SIGTERM (see :mod:`repro.checkpoint.interrupt`) every
        lease is revoked — its subprocess writes a rescue checkpoint —
        and leases that still finish within the grace are merged.
        """
        self.server.set_config_hash(self.work.config_hash)
        self.server.wait_for_workers(self.min_workers, timeout_s=120.0)
        tasks = self.work.start()
        self.pending.extend(tasks)
        self.unfinished = len(tasks)
        starved_since: Optional[float] = None
        while self.unfinished:
            if stop_requested():
                self._stop()
                return True
            if self.server.workers:
                starved_since = None
            elif starved_since is None:
                starved_since = time.monotonic()
            elif time.monotonic() - starved_since > NO_WORKERS_TIMEOUT_S:
                raise DistError(
                    f"no workers connected for {NO_WORKERS_TIMEOUT_S:.0f}s with "
                    f"{self.unfinished} task(s) unfinished"
                )
            self._dispatch()
            self._pump(0.2)
            self._check_liveness()
            self._update_gauges()
        self._update_gauges()
        return False

    def _pump(self, timeout: float) -> None:
        for event in self.server.poll(timeout):
            if event[0] == "frame":
                self._handle_frame(event[1], event[2])
            elif event[0] == "lost":
                self._reclaim(event[1], "lost")

    def _stop(self) -> None:
        """Revoke every lease; merge those that finish within the grace."""
        for lease in list(self.active.values()):
            if lease.revoked is None:
                self._revoke(lease, "stop")
            lease.revoked = "stop"
        end = time.monotonic() + _GRACE_S + 1.0
        while self.active and time.monotonic() < end:
            self._pump(0.2)

    # ------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        if not self.pending:
            return
        for worker in self.server.workers:
            if worker.state != "idle":
                continue
            while self.pending and worker.free_slots > 0:
                task = self.pending.popleft()
                if not self._lease(worker, task):
                    self.pending.appendleft(task)
                    break
            if not self.pending:
                return

    def _lease(self, worker: _RemoteWorker, task: LeaseTask) -> bool:
        self._lease_seq += 1
        prefix, fields = self.work.describe(task.key)
        lease_id = f"{prefix}a{task.attempt}-{self._lease_seq}"
        payload = self.work.payload(task)
        spec = self.crash_spec
        if (
            spec is not None
            and task.key == spec.index
            and task.attempt <= spec.attempts
        ):
            payload["crash_after_saves"] = spec.after_checkpoints
        sent = self.server.send(
            worker,
            {
                "type": "lease",
                "lease_id": lease_id,
                "attempt": task.attempt,
                **fields,
                "blob": pack_blob(payload),
            },
        )
        if not sent:
            self._reclaim(worker, "lost")
            return False
        lease = _Lease(
            lease_id=lease_id,
            task=task,
            worker=worker,
            deadline=(
                time.monotonic() + self.timeout_s
                if self.timeout_s is not None
                else None
            ),
        )
        self.active[lease_id] = lease
        worker.leases[lease_id] = lease
        return True

    # -------------------------------------------------------------- frames

    def _handle_frame(self, worker: _RemoteWorker, frame: Dict) -> None:
        kind = frame.get("type")
        if worker.state == "stale":
            # It was only stalled; welcome it back for fresh leases.
            # Its previous leases were already re-queued and stay
            # revoked (any late frames for them are discarded below).
            worker.state = "idle"
        if kind == "heartbeat":
            return
        if kind not in ("chunk", "done"):
            raise DistProtocolError(
                f"unexpected frame type {kind!r} from worker"
            )
        lease_id = frame.get("lease_id")
        lease = self.active.get(lease_id)
        if lease is None or lease.worker is not worker:
            # Duplicate or revoked frame (e.g. the worker went stale,
            # the task was re-leased, and the original attempt finished
            # anyway).  Idempotent by design: discard.
            if kind == "done":
                worker.revoking.discard(lease_id)
            self.work.count("discarded", worker.name)
            return
        if kind == "chunk":
            lines = frame.get("lines")
            if not isinstance(lines, list):
                raise DistProtocolError("chunk frame without lines")
            self.work.chunk(lease, lines)
            return
        self._release(lease)
        if frame.get("status") == "ok" and self.work.complete(lease, frame):
            self.unfinished -= 1
            self.work.count(
                "resumed" if lease.task.attempt > 1 else "completed",
                worker.name,
            )
            return
        self.work.discard(lease)
        self._requeue(
            lease,
            "redispatched" if lease.revoked else "failed",
            str(frame.get("error") or "lease finished without a complete result"),
            frame.get("checkpoint"),
        )

    # ------------------------------------------------------------- liveness

    def _check_liveness(self) -> None:
        now = time.monotonic()
        for worker in self.server.workers:
            if (
                worker.leases
                and now - worker.last_seen > self.heartbeat_timeout_s
            ):
                self._reclaim(worker, "stale")
        for lease in list(self.active.values()):
            if lease.lease_id not in self.active:
                continue  # reclaimed with an earlier lease of its worker
            if lease.revoked is None:
                if lease.deadline is not None and now > lease.deadline:
                    self._revoke(lease, "timeout")
            elif now > lease.revoke_deadline:
                # A revoke the agent never answered: a silent worker.
                self._reclaim(lease.worker, "stale")

    def _revoke(self, lease: _Lease, reason: str) -> None:
        """Ask the agent to stop a lease; it keeps its slot until answered."""
        lease.revoked = reason
        lease.revoke_deadline = (
            time.monotonic() + _GRACE_S + self.heartbeat_timeout_s
        )
        worker = lease.worker
        if not self.server.send(
            worker, {"type": "revoke", "lease_id": lease.lease_id}
        ):
            self._reclaim(worker, "lost")

    def _reclaim(self, worker: _RemoteWorker, state: str) -> None:
        """Re-queue every lease of a lost or silent worker."""
        if state == "stale" and worker.state != "lost":
            worker.state = "stale"
        for lease in list(worker.leases.values()):
            self._release(lease)
            self.work.discard(lease)
            if state == "stale":
                # Stop the abandoned attempt so it cannot oversubscribe
                # the worker; the slot frees when the agent answers.
                worker.revoking.add(lease.lease_id)
                self.server.send(
                    worker, {"type": "revoke", "lease_id": lease.lease_id}
                )
            self._requeue(
                lease, "redispatched", f"worker {worker.name} {state} mid-lease"
            )

    def _release(self, lease: _Lease) -> None:
        self.active.pop(lease.lease_id, None)
        lease.worker.leases.pop(lease.lease_id, None)

    def _requeue(
        self,
        lease: _Lease,
        count: str,
        error: str,
        checkpoint: Optional[str] = None,
    ) -> None:
        """Retry a lease that ended without a result, or give it up."""
        if lease.revoked == "stop":
            return  # the run is stopping; the task stays unfinished
        self.work.count(count, lease.worker.name)
        status = "failed"
        if lease.revoked == "timeout":
            status = "timeout"
            error = f"lease exceeded its {self.timeout_s:g}s timeout"
        task = lease.task
        if task.attempt > self.max_retries:
            self.unfinished -= 1
            self.work.give_up(task, status, error)
            return
        self.pending.append(self.work.retry(task, checkpoint))


class DistTransport:
    """The sharded transport seam over a :class:`DistServer`.

    ``run_round`` leases the request's cells to whatever workers are
    connected to ``server`` and returns their outcomes — the merged
    result is bitwise identical wherever the cells ran.  ``min_workers``
    gates the first round only: later rounds lease to whoever is still
    connected, so a worker lost in round 1 cannot stall round 2.
    """

    def __init__(
        self,
        server: DistServer,
        *,
        min_workers: int = 1,
        timeout_s: Optional[float] = None,
        max_retries: int = 1,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        crash_spec=None,
    ) -> None:
        self.server = server
        self.min_workers = min_workers
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.crash_spec = crash_spec

    def run_round(self, request: RoundRequest) -> Dict[int, CellOutcome]:
        work = CellWork(request)
        min_workers, self.min_workers = self.min_workers, 0
        scheduler = DistScheduler(
            self.server,
            work,
            min_workers=min_workers,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            crash_spec=self.crash_spec,
        )
        if scheduler.run():
            raise SimulationInterrupted(
                "sharded mesoscopic run stopped by signal",
                signum=last_signal(),
            )
        return work.outcomes


def _local_agent_main(port: int, name: str) -> None:
    # The coordinator owns its local agents: it shuts them down, or they
    # see its socket close.  Terminal signals are the coordinator's to
    # handle (it revokes the leases); lease subprocesses install their
    # own graceful-stop handlers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(run_worker(f"127.0.0.1:{port}", name=name, reconnect_for_s=0.0))


class LocalAgents:
    """``count`` one-slot ``repro worker`` agents forked from this process.

    The agents connect over loopback to :attr:`server`, a private
    :class:`DistServer` bound on ``127.0.0.1:0``, and serve every lease
    of the run until :meth:`close`.  They are forked, not exec'd: agents
    and their lease subprocesses inherit the coordinator's loaded code.
    """

    def __init__(self, count: int) -> None:
        self.server = DistServer("127.0.0.1", 0)
        context = multiprocessing.get_context("fork")
        self.processes = [
            context.Process(
                target=_local_agent_main,
                args=(self.server.bound_port, f"local-{index}"),
            )
            for index in range(count)
        ]
        try:
            for process in self.processes:
                process.start()
            self.server.wait_for_workers(count, timeout_s=NO_WORKERS_TIMEOUT_S)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut the agents down and reap them."""
        self.server.shutdown()
        for process in self.processes:
            if process.pid is None:
                continue  # never started
            process.join(timeout=_GRACE_S)
            if process.exitcode is None:
                process.kill()
                process.join()
