"""One fault matrix for the one scheduler: {cell, point} × fault.

``DistScheduler`` leases gateway cells (``CellWork``) and sweep points
(``PointWork``) through the same lease loop, so every fault is checked
for both kinds of work:

* scripted socket clients — plain blocking sockets speaking the wire
  protocol from test threads, answering leases with fabricated
  artifacts (cells: meta line + end marker, verified exactly like real
  ones) or fabricated ``RunRecord`` blobs (points) — make the failure
  scripts deterministic: go silent, sit past a deadline, finish late,
  complete twice, always fail;
* real runs on forked local agents inject crashes through
  :class:`~repro.sweep.CrashSpec` (the lease subprocess SIGKILLs itself
  right after writing a checkpoint), exercising crash detection and
  resume-from-checkpoint retry without OS-level fault injection. The
  point legs of these real-run faults, with sweep timeouts and
  ``--resume``, are in ``tests/sweep/test_self_healing.py``.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.checkpoint.interrupt import stop_requested
from repro.dist.coordinator import (
    CellWork,
    DistScheduler,
    DistServer,
    DistTransport,
    LeaseTask,
    LeaseWork,
    LocalAgents,
)
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    pack_blob,
    recv_frame,
    send_frame,
    unpack_blob,
)
from repro.exceptions import SimulationError, SimulationInterrupted
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.sim.sharded import RoundRequest, run_sharded
from repro.sweep import CrashSpec, RunRecord, build_grid, run_sweep
from repro.sweep.executor import PointWork

from tests.sim.test_sharded import fingerprint, sharded_config
from tests.sweep.test_self_healing import RETRIES_HELP, _base, _comparable

def _dump(obj):
    return json.dumps(obj, separators=(",", ":"))


# --------------------------------------------------------- the two kinds


class CellKind:
    """Gateway cells: a finished lease is a streamed artifact."""

    @staticmethod
    def work(tmp_path, keys):
        """A round whose lease blobs no scripted worker will open."""
        return CellWork(
            RoundRequest(
                round_no=1,
                config=sharded_config(shards=len(keys)),
                cell_ids=list(keys),
                placements_by_cell={c: [] for c in keys},
                export_by_cell={},
                foreign_by_cell={},
                spill_by_cell={
                    c: str(tmp_path / f"cell_{c}.jsonl") for c in keys
                },
                ckpt_by_cell={},
                registry=MetricsRegistry(),
            )
        )

    @staticmethod
    def key(lease):
        return lease["cell"]

    @staticmethod
    def artifact_lines(cell, events):
        meta = {
            "kind": "meta",
            "cell": cell,
            "round": 1,
            "events": events,
            "peak_heap": 1,
        }
        return [_dump(meta), _dump({"kind": "end", "lines": 1})]

    @classmethod
    def complete(cls, client, lease, marker=None):
        cell = lease["cell"]
        for line in cls.artifact_lines(cell, marker or 1 + cell):
            client.send(
                {"type": "chunk", "lease_id": lease["lease_id"], "lines": [line]}
            )
        client.send(
            {"type": "done", "lease_id": lease["lease_id"], "status": "ok"}
        )

    @staticmethod
    def value(work, key):
        return work.outcomes[key].events_executed

    @staticmethod
    def finished(work):
        return sorted(work.outcomes)


class PointKind:
    """Sweep points: a finished lease carries its ``RunRecord``."""

    @staticmethod
    def work(tmp_path, keys):
        points = build_grid([("", _base())], [k + 1 for k in keys])
        return PointWork(points, "meso", MetricsRegistry())

    @staticmethod
    def key(lease):
        return lease["index"]

    @classmethod
    def complete(cls, client, lease, marker=None):
        index = lease["index"]
        record = RunRecord(
            index=index,
            label="scripted",
            seed=index + 1,
            policy="h",
            engine="meso",
            status="completed",
            config_hash=lease["config_hash"],
            summary={"marker": float(marker or 1 + index)},
        )
        client.send(
            {
                "type": "done",
                "lease_id": lease["lease_id"],
                "status": "ok",
                "result": pack_blob(record),
            }
        )

    @staticmethod
    def value(work, key):
        return work.records[key].summary["marker"]

    @staticmethod
    def finished(work):
        return sorted(work.records)


KINDS = {"cell": CellKind, "point": PointKind}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


# ------------------------------------------------------- scripted workers


class ScriptClient:
    """One scripted worker connection (blocking socket + send lock)."""

    def __init__(self, server, name, slots=1):
        self.sock = socket.create_connection(
            ("127.0.0.1", server.bound_port), timeout=30.0
        )
        self.sock.settimeout(30.0)
        self.name = name
        self.frames = []
        self._send_lock = threading.Lock()
        self.send(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "name": name,
                "slots": slots,
            }
        )
        assert self.recv()["type"] == "welcome"

    def send(self, payload):
        with self._send_lock:
            send_frame(self.sock, payload)

    def recv(self):
        return recv_frame(self.sock)

    def next_lease(self):
        while True:
            frame = self.recv()
            if frame is None or frame["type"] == "shutdown":
                return None
            self.frames.append(frame)
            if frame["type"] == "lease":
                return frame

    def serve(self, on_lease=None, on_revoke=None):
        """Answer frames until the coordinator shuts the run down."""
        while True:
            frame = self.recv()
            if frame is None or frame["type"] == "shutdown":
                return
            self.frames.append(frame)
            if frame["type"] == "lease" and on_lease is not None:
                on_lease(frame)
            elif frame["type"] == "revoke" and on_revoke is not None:
                on_revoke(frame)

    def revoked_ids(self):
        return [f["lease_id"] for f in self.frames if f["type"] == "revoke"]

    def start_heartbeats(self, every_s=0.3):
        def beat():
            while True:
                time.sleep(every_s)
                try:
                    self.send({"type": "heartbeat", "name": self.name})
                except OSError:
                    return

        threading.Thread(target=beat, daemon=True).start()


def drive(work, scripts, **scheduler_kwargs):
    """Run one scheduler against scripted workers (``script(server)``).

    Scheduler exceptions propagate; script exceptions fail the test.
    """
    errors = []

    def guard(script, server):
        try:
            script(server)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    with DistServer() as server:
        threads = [
            threading.Thread(target=guard, args=(script, server), daemon=True)
            for script in scripts
        ]
        for thread in threads:
            thread.start()
        try:
            DistScheduler(server, work, **scheduler_kwargs).run()
        finally:
            server.shutdown()
            for thread in threads:
                thread.join(timeout=30.0)
    assert errors == []


def retries(work):
    return work.registry.counter("sweep_retries_total", RETRIES_HELP).value


# --------------------------------------------------------- silent worker


class TestSilentWorker:
    def test_silent_worker_redispatched_late_frames_discarded(
        self, kind, tmp_path
    ):
        """A worker that stops heartbeating loses its lease, which is
        revoked; the task is re-dispatched and the silent worker's late
        (and any duplicate) completions are discarded without
        corrupting the result."""
        work = kind.work(tmp_path, (0, 1))
        late_sent = threading.Event()
        silent_lease = {}
        clients = {}

        def silent_script(server):
            try:
                client = clients["silent"] = ScriptClient(server, "silent")
                lease = silent_lease["lease"] = client.next_lease()
                # No heartbeats: go silent past the staleness cutoff,
                # then finish anyway — the revoked lease's frames must
                # be discarded.
                time.sleep(2.5)
                kind.complete(client, lease, marker=99)
                late_sent.set()
                client.serve()
            finally:
                late_sent.set()

        def good_script(server):
            time.sleep(0.3)  # connect second: silent gets task 0
            client = ScriptClient(server, "good", slots=2)
            client.start_heartbeats()
            held = [client.next_lease(), client.next_lease()]
            redispatched = [f for f in held if f["attempt"] == 2]
            assert redispatched, "expected a re-dispatched lease"
            late_sent.wait(30.0)
            time.sleep(0.5)  # let the late frames be ingested
            first, second = held
            kind.complete(client, first)
            # Duplicate completion for an already-finished lease: must
            # be idempotent (discarded), not double-counted.
            kind.complete(client, first, marker=77)
            kind.complete(client, second)
            client.serve()

        drive(
            work,
            [silent_script, good_script],
            min_workers=2,
            max_retries=3,
            heartbeat_timeout_s=1.0,
        )
        lease = silent_lease["lease"]
        assert kind.key(lease) == 0
        # The stale worker was told to stop its abandoned attempt.
        assert lease["lease_id"] in clients["silent"].revoked_ids()
        assert kind.finished(work) == [0, 1]
        assert kind.value(work, 0) == 1
        assert kind.value(work, 1) == 2
        if kind is CellKind:
            text = work.registry.to_prometheus()
            assert 'status="redispatched"' in text
            assert 'status="discarded"' in text
            assert 'status="resumed"' in text
        else:
            assert work.records[0].status == "resumed"
            assert work.records[0].attempts == 2
            assert work.records[1].status == "completed"
            assert retries(work) == 1.0


    def test_stale_agent_stops_its_revoked_subprocess(self, tmp_path):
        """A real agent that goes stale (its heartbeat is slower than
        the coordinator's staleness cutoff) is told to revoke the
        reclaimed lease: the abandoned subprocess exits instead of
        running on beside the next lease."""
        work = _SitterWork(tmp_path)
        agents = LocalAgents(1)
        try:
            DistScheduler(
                agents.server, work, heartbeat_timeout_s=0.5, max_retries=1
            ).run()
        finally:
            agents.close()
        assert work.results == {0: "finished"}
        with open(tmp_path / "pid-1", encoding="utf-8") as handle:
            abandoned = int(handle.read())
        with pytest.raises(ProcessLookupError):
            os.kill(abandoned, 0)


class TestLostWorker:
    def test_min_workers_gates_only_the_first_round(self, tmp_path):
        """A worker lost after round 1 must not stall round 2 until the
        ``min_workers`` wait times out."""
        round1_done = threading.Event()

        def stayer(server):
            client = ScriptClient(server, "stayer", slots=1)
            client.start_heartbeats()
            client.serve(on_lease=lambda lease: CellKind.complete(client, lease))

        def leaver(server):
            time.sleep(0.3)  # connect second: the stayer gets the cell
            client = ScriptClient(server, "leaver", slots=1)
            round1_done.wait(30.0)
            client.sock.close()

        with DistServer() as server:
            threads = [
                threading.Thread(target=script, args=(server,), daemon=True)
                for script in (stayer, leaver)
            ]
            for thread in threads:
                thread.start()
            transport = DistTransport(server, min_workers=2)
            for round_dir in ("round1", "round2"):
                (tmp_path / round_dir).mkdir()
                request = CellKind.work(tmp_path / round_dir, (0,)).request
                started = time.monotonic()
                assert sorted(transport.run_round(request)) == [0]
                round1_done.set()
                threads[1].join(timeout=30.0)
            assert time.monotonic() - started < 10.0


def _sit_until_stopped(payload, spill_path):
    """Lease function: attempt 1 runs until SIGTERMed, later ones finish."""
    with open(payload["pid_file"], "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    if payload["attempt"] > 1:
        return "finished"
    while not stop_requested():
        time.sleep(0.02)
    raise SimulationInterrupted("revoked")


class _SitterWork(LeaseWork):
    """One task of :func:`_sit_until_stopped`, for real agents."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.registry = MetricsRegistry()
        self.results = {}

    def start(self):
        return [LeaseTask(0)]

    def describe(self, key):
        return f"s{key}", {}

    def payload(self, task):
        return {
            "run": _sit_until_stopped,
            "attempt": task.attempt,
            "pid_file": str(self.tmp_path / f"pid-{task.attempt}"),
        }

    def complete(self, lease, frame):
        self.results[lease.task.key] = unpack_blob(frame["result"])
        return True

    def give_up(self, task, status, error):
        raise AssertionError(f"gave up on {task}: {error}")


# --------------------------------------------------------------- timeouts


class TestTimeouts:
    def test_lease_deadline_revokes_and_retries(self, kind, tmp_path):
        """timeout_s bounds one attempt even with live heartbeats: the
        lease is revoked, keeps its slot until the agent answers, and
        retries from the rescue checkpoint the answer names."""
        work = kind.work(tmp_path, (0,))
        leases = []

        def sitter_script(server):
            client = ScriptClient(server, "sitter", slots=1)
            client.start_heartbeats()

            def on_lease(lease):
                leases.append(lease)
                if lease["attempt"] > 1:
                    kind.complete(client, lease)
                # the first attempt sits on its lease until revoked

            def on_revoke(frame):
                # A revoked lease still holds its slot: nothing new may
                # arrive before this answer.
                assert len(leases) == 1
                client.send(
                    {
                        "type": "done",
                        "lease_id": frame["lease_id"],
                        "status": "revoked",
                        "error": "lease subprocess was terminated mid-run",
                        "checkpoint": "rescue.ckpt",
                    }
                )

            client.serve(on_lease, on_revoke)

        drive(work, [sitter_script], timeout_s=1.0, max_retries=3)
        assert kind.finished(work) == [0]
        assert [lease["attempt"] for lease in leases] == [1, 2]
        if kind is CellKind:
            assert 'status="redispatched"' in work.registry.to_prometheus()
        else:
            retry = unpack_blob(leases[1]["blob"])
            assert retry["resume_from"] == "rescue.ckpt"
            assert work.records[0].status == "resumed"
            assert retries(work) == 1.0

    def test_deadline_with_no_retries_left_is_a_timeout(self, kind, tmp_path):
        work = kind.work(tmp_path, (0,))

        def sitter_script(server):
            client = ScriptClient(server, "sitter", slots=1)
            client.start_heartbeats()
            client.serve(
                on_revoke=lambda frame: client.send(
                    {
                        "type": "done",
                        "lease_id": frame["lease_id"],
                        "status": "revoked",
                    }
                )
            )

        if kind is CellKind:
            with pytest.raises(SimulationError, match="timeout"):
                drive(work, [sitter_script], timeout_s=0.5, max_retries=0)
            return
        drive(work, [sitter_script], timeout_s=0.5, max_retries=0)
        record = work.records[0]
        assert record.status == "timeout"
        assert "timeout" in record.error
        assert record.attempts == 1

# ------------------------------------------------------ exhausted retries


class TestExhaustedRetries:
    def test_attempts_exhausted(self, kind, tmp_path):
        work = kind.work(tmp_path, (0,))

        def failing_script(server):
            client = ScriptClient(server, "faily", slots=1)
            client.start_heartbeats()
            client.serve(
                on_lease=lambda lease: client.send(
                    {
                        "type": "done",
                        "lease_id": lease["lease_id"],
                        "status": "failed",
                        "error": "scripted failure",
                    }
                )
            )

        if kind is CellKind:
            with pytest.raises(SimulationError, match="scripted failure"):
                drive(work, [failing_script], max_retries=1)
            assert 'status="failed"' in work.registry.to_prometheus()
            return
        drive(work, [failing_script], max_retries=1)
        record = work.records[0]
        assert record.status == "failed"
        assert record.attempts == 2
        assert "scripted failure" in record.error
        assert retries(work) == 1.0

    def test_crash_on_every_attempt(self, tmp_path):
        """A lease subprocess that dies on every attempt (real forked
        agents) exhausts its retries. The point leg is
        ``tests/sweep/test_self_healing.py``."""
        spec = CrashSpec(index=0, after_checkpoints=1, attempts=99)
        config = sharded_config(
            shards=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every_s=6 * 3600.0,
        )
        with pytest.raises(
            SimulationError, match="died without returning a record"
        ):
            run_sharded(config, max_retries=0, crash_spec=spec)


# ------------------------------------------------------------------ crash


class TestCrash:
    def test_injected_crash_is_retried_from_checkpoint(self, tmp_path):
        """The point leg is ``tests/sweep/test_self_healing.py``."""
        clean = run_sharded(sharded_config(shards=2))
        obs = Observability()
        crashed = run_sharded(
            sharded_config(
                shards=2,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_every_s=6 * 3600.0,
            ),
            obs=obs,
            workers=2,
            max_retries=2,
            crash_spec=CrashSpec(index=0, after_checkpoints=1),
        )
        assert fingerprint(crashed) == fingerprint(clean)
        text = obs.metrics.to_prometheus()
        assert 'status="failed"' in text
        assert 'status="resumed"' in text


# ------------------------------------------------- late / duplicate done


class TestLateAndDuplicateDone:
    def test_duplicate_and_stray_frames_are_discarded(self, kind, tmp_path):
        work = kind.work(tmp_path, (0, 1))

        def script(server):
            client = ScriptClient(server, "w", slots=1)
            client.start_heartbeats()

            def on_lease(lease):
                kind.complete(client, lease)
                # A second completion of the same lease, and one naming
                # a lease that never existed: both discarded.
                kind.complete(client, lease, marker=77)
                kind.complete(client, dict(lease, lease_id="bogus"), marker=66)

            client.serve(on_lease)

        drive(work, [script])
        assert kind.finished(work) == [0, 1]
        assert [kind.value(work, key) for key in (0, 1)] == [1, 2]
        if kind is CellKind:
            assert 'status="discarded"' in work.registry.to_prometheus()
        else:
            assert [r.status for r in work.records.values()] == [
                "completed",
                "completed",
            ]


# ------------------------------------------------------------ cached work


class TestCached:
    def test_finished_work_is_not_leased_again(self, kind, tmp_path):
        if kind is PointKind:
            # a point already in the report (``repro sweep --resume``) is
            # not leased again; only the missing ones run
            points = build_grid([("", _base())], [1, 2, 3])
            first = run_sweep(points, engine="meso", workers=1)
            existing = {r.index: r for r in first.records if r.index == 1}
            leased = []
            resumed = run_sweep(
                points,
                engine="meso",
                workers=2,
                existing=existing,
                on_record=lambda record: leased.append(record.index),
            )
            assert sorted(leased) == [0, 2]
            assert [_comparable(r) for r in resumed.records] == [
                _comparable(r) for r in first.records
            ]
            return
        work = kind.work(tmp_path, (0, 1))
        # Cell 0's artifact already sits at its spill path (a previous
        # attempt, or a resumed run): it must be loaded, not leased.
        lines = CellKind.artifact_lines(0, 41)
        with open(
            work.request.spill_by_cell[0], "w", encoding="utf-8"
        ) as handle:
            handle.write("\n".join(lines) + "\n")
        leased = []

        def script(server):
            client = ScriptClient(server, "w", slots=2)
            client.start_heartbeats()

            def on_lease(lease):
                leased.append(lease["cell"])
                kind.complete(client, lease)

            client.serve(on_lease)

        drive(work, [script])
        assert leased == [1]
        assert work.outcomes[0].events_executed == 41
        assert 'status="cached"' in work.registry.to_prometheus()
