"""The ``repro worker`` agent: connects out, runs leased work.

A worker is started on any host that can reach the coordinator::

    repro worker --connect coordinator-host:7070 --slots 4

Local parallel runs use the same agent: ``run_sharded`` and
``run_sweep`` fork one agent per worker slot from the coordinator
(:class:`repro.dist.coordinator.LocalAgents`) and let them connect over
loopback.

The agent dials the coordinator, performs the version/config-hash
handshake, then sits in an asyncio loop: heartbeats every couple of
seconds, and for every ``lease`` frame forks a subprocess that calls the
lease's function (a gateway cell or a sweep point) on its payload.  A
cell's artifact is written to a worker-local temp file, then streamed
back line-by-line as ``chunk`` frames — the coordinator spills the
stream to disk verbatim, so the artifact bytes are identical to a
single-host run's.  The ``done`` frame that seals the lease carries the
function's return value (a sweep point's ``RunRecord``) as a blob.

The agent owns its lease subprocesses; the coordinator owns deadlines:

* a ``revoke`` frame SIGTERMs the lease's subprocess, which writes its
  rescue checkpoint; after :data:`_GRACE_S` the agent escalates to
  SIGKILL, then answers ``done`` with ``status="revoked"`` and the
  checkpoint path;
* a subprocess that dies without reporting (a crash, or the
  deterministic ``crash_after_saves`` hook of the fault tests) is a
  failed attempt of that lease, reported as ``done`` with
  ``status="failed"``; the agent keeps serving;
* a subprocess is SIGKILLed by the kernel when its agent dies, and on
  an orderly exit the agent kills what is still running.

Checkpoints are written to the lease's checkpoint directory when one is
configured.  On a shared filesystem (or a single host) a re-dispatched
lease therefore resumes from the newest snapshot the dead worker left
behind; without shared storage it re-runs from scratch — same results,
more wall clock.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from typing import Dict, Optional

from ..exceptions import DistProtocolError, SimulationInterrupted
from .artifact import iter_artifact_lines
from .protocol import (
    CHUNK_BYTES,
    PROTOCOL_VERSION,
    pack_blob,
    read_frame,
    unpack_blob,
    write_frame,
)

#: Default heartbeat cadence; the coordinator's staleness timeout is
#: several multiples of this.
DEFAULT_HEARTBEAT_S = 2.0

#: How long a disconnected worker keeps retrying the coordinator before
#: giving up (fresh connections reset the window).
DEFAULT_RECONNECT_FOR_S = 30.0

#: How long (seconds) a revoked lease subprocess gets to write its
#: rescue checkpoint and report back before it is killed outright.
_GRACE_S = 10.0

_PR_SET_PDEATHSIG = 1


def _die_with_agent(agent_pid: int) -> None:
    """Have the kernel SIGKILL this process when its agent dies (Linux)."""
    if sys.platform.startswith("linux"):
        import ctypes

        try:
            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        except (OSError, AttributeError):  # pragma: no cover - exotic libc
            pass
    if os.getppid() != agent_pid:  # the agent died before the prctl
        os._exit(1)


def _lease_main(
    conn, payload: Dict, spill_path: str, agent_pid: int, sock_fd: int
) -> None:
    """Entry point of one lease subprocess.

    Drops the agent's socket (so a dead agent's connection closes even
    while this process runs), installs the graceful-stop handlers (so a
    ``revoke`` yields a rescue checkpoint), optionally arms the
    deterministic crash hook, runs the lease and ships
    ``("ok", value)``, ``("interrupted", checkpoint)`` or
    ``("error", traceback)`` back over the pipe.  The pipe closing
    without a message is the crash signal the agent watches for.
    """
    from ..checkpoint import core as _ckpt_core
    from ..checkpoint import interrupt as _interrupt

    os.close(sock_fd)
    _die_with_agent(agent_pid)
    _interrupt.install()
    crash_after_saves = payload.get("crash_after_saves")
    if crash_after_saves is not None:
        saves = {"n": 0}

        def _crash_hook(path: str, time_s: float) -> None:
            saves["n"] += 1
            if saves["n"] >= crash_after_saves:
                os.kill(os.getpid(), signal.SIGKILL)  # a real crash, no cleanup

        _ckpt_core._post_save_hook = _crash_hook
    try:
        conn.send(("ok", payload["run"](payload, spill_path)))
    except SimulationInterrupted as exc:
        conn.send(("interrupted", exc.checkpoint_path))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


async def _readable(fd: int) -> None:
    """Wait until ``fd`` is readable (data or EOF) without a thread."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
    try:
        await ready
    finally:
        loop.remove_reader(fd)


class _Agent:
    """One connection's worth of worker state."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str,
        slots: int,
        heartbeat_s: float,
        expect_config_hash: Optional[str],
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.slots = slots
        self.heartbeat_s = heartbeat_s
        self.expect_config_hash = expect_config_hash
        self.writer: Optional[asyncio.StreamWriter] = None
        self.write_lock = asyncio.Lock()
        self.tmp_root = tempfile.mkdtemp(prefix="repro-worker-")
        self.lease_tasks: set = set()
        #: lease_id -> its subprocess (None until started), per lease
        #: that has not answered yet.
        self.processes: Dict[str, Optional[multiprocessing.Process]] = {}
        #: Leases the coordinator revoked and that have not answered yet.
        self.revoked: set = set()
        #: Monotonic time of the last successful handshake; lets the
        #: reconnect window reset after every healthy connection.
        self.last_welcome = 0.0

    async def send(self, payload: Dict) -> None:
        async with self.write_lock:
            await write_frame(self.writer, payload)

    async def serve(self) -> int:
        """One connection: handshake, then heartbeats + leases.

        Returns the process exit code; raises ``OSError`` (or
        :class:`DistProtocolError`) when the connection drops and a
        reconnect should be attempted.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.writer = writer
        try:
            await self.send(
                {
                    "type": "hello",
                    "version": PROTOCOL_VERSION,
                    "name": self.name,
                    "slots": self.slots,
                    "pid": os.getpid(),
                    "config_hash": self.expect_config_hash,
                }
            )
            frame = await read_frame(reader)
            if frame is None:
                raise DistProtocolError("coordinator closed during handshake")
            if frame.get("type") == "reject":
                print(
                    f"repro worker: rejected by coordinator: "
                    f"{frame.get('reason')}",
                    file=sys.stderr,
                )
                return 1
            if frame.get("type") != "welcome":
                raise DistProtocolError(
                    f"expected welcome, got {frame.get('type')!r}"
                )
            run_hash = frame.get("config_hash")
            if (
                self.expect_config_hash is not None
                and run_hash is not None
                and run_hash != self.expect_config_hash
            ):
                print(
                    f"repro worker: coordinator runs config {run_hash}, "
                    f"expected {self.expect_config_hash}",
                    file=sys.stderr,
                )
                return 1
            self.last_welcome = time.monotonic()
            heartbeat = asyncio.ensure_future(self._heartbeat_loop())
            try:
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        raise DistProtocolError(
                            "coordinator closed the connection"
                        )
                    kind = frame.get("type")
                    if kind == "shutdown":
                        return 0
                    if kind == "lease":
                        self.processes[frame.get("lease_id")] = None
                        task = asyncio.ensure_future(self._run_lease(frame))
                        self.lease_tasks.add(task)
                        task.add_done_callback(self.lease_tasks.discard)
                    elif kind == "revoke":
                        self._revoke(frame.get("lease_id"))
                    # Unknown frame types are ignored for forward
                    # compatibility within one protocol version.
            finally:
                heartbeat.cancel()
                for process in self.processes.values():
                    if process is not None:
                        process.kill()
                        process.join()
                for task in list(self.lease_tasks):
                    task.cancel()
        finally:
            writer.close()

    async def _heartbeat_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.heartbeat_s)
                await self.send({"type": "heartbeat", "name": self.name})
        except OSError:
            return  # connection gone; the read loop reports it

    def _revoke(self, lease_id: Optional[str]) -> None:
        """SIGTERM a lease's subprocess; SIGKILL it after the grace."""
        if lease_id not in self.processes or lease_id in self.revoked:
            return  # already answered, or already revoked
        self.revoked.add(lease_id)
        process = self.processes[lease_id]
        if process is not None:  # else it never starts
            process.terminate()
            asyncio.get_running_loop().call_later(_GRACE_S, process.kill)

    async def _run_lease(self, frame: Dict) -> None:
        lease_id = frame.get("lease_id")
        spill_path = os.path.join(self.tmp_root, f"{lease_id}.jsonl")
        try:
            await self.send(await self._run_lease_inner(frame, spill_path))
        except OSError:
            pass  # connection gone mid-stream; coordinator re-leases
        finally:
            self.processes.pop(lease_id, None)
            self.revoked.discard(lease_id)
            try:
                os.remove(spill_path)
            except OSError:
                pass

    async def _run_lease_inner(self, frame: Dict, spill_path: str) -> Dict:
        """Run one lease; returns its ``done`` frame."""
        lease_id = frame.get("lease_id")
        done = {"type": "done", "lease_id": lease_id}
        try:
            # Pop the encoded blob: the forked subprocess would otherwise
            # inherit it as dead weight.
            payload = unpack_blob(frame.pop("blob"))
        except (KeyError, DistProtocolError) as exc:
            return dict(done, status="failed", error=f"undecodable lease: {exc}")
        if lease_id in self.revoked:
            return dict(done, status="revoked", error="revoked before it started")
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe(duplex=False)
        sock_fd = self.writer.get_extra_info("socket").fileno()
        process = context.Process(
            target=_lease_main,
            args=(child_conn, payload, spill_path, os.getpid(), sock_fd),
        )
        process.start()
        child_conn.close()
        self.processes[lease_id] = process
        try:
            await _readable(parent_conn.fileno())
            try:
                message = parent_conn.recv()
            except EOFError:
                message = None
            await _readable(process.sentinel)
            process.join()
        finally:
            parent_conn.close()
        # A lease that stopped without a result failed, unless the
        # coordinator asked for the stop.
        stopped = "revoked" if lease_id in self.revoked else "failed"
        if message is None:
            return dict(
                done,
                status=stopped,
                error=(
                    "lease subprocess died without returning a record "
                    f"(exit code {process.exitcode})"
                ),
            )
        kind, value = message
        if kind == "interrupted":
            return dict(
                done,
                status=stopped,
                error="lease subprocess was terminated mid-run",
                checkpoint=value,
            )
        if kind == "error":
            return dict(done, status="failed", error=value)
        if os.path.exists(spill_path):
            await self._stream_artifact(lease_id, spill_path)
        if value is not None:
            done["result"] = pack_blob(value)
        return dict(done, status="ok")

    async def _stream_artifact(self, lease_id: str, path: str) -> None:
        """Ship the artifact as chunked frames."""
        batch = []
        batch_bytes = 0
        for line in iter_artifact_lines(path):
            batch.append(line)
            batch_bytes += len(line) + 1
            if batch_bytes >= CHUNK_BYTES:
                await self.send(
                    {"type": "chunk", "lease_id": lease_id, "lines": batch}
                )
                batch = []
                batch_bytes = 0
        if batch:
            await self.send(
                {"type": "chunk", "lease_id": lease_id, "lines": batch}
            )


def run_worker(
    connect: str,
    name: Optional[str] = None,
    slots: int = 1,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    reconnect_for_s: float = DEFAULT_RECONNECT_FOR_S,
    expect_config_hash: Optional[str] = None,
) -> int:
    """Run a worker agent until the coordinator shuts it down.

    ``connect`` is ``host:port``.  Returns the process exit code:
    0 after an orderly shutdown frame, 1 on handshake rejection or when
    the coordinator stays unreachable for ``reconnect_for_s`` seconds.
    """
    host, _, port_text = connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"--connect expects host:port, got {connect!r}")
    port = int(port_text)
    agent = _Agent(
        host=host,
        port=port,
        name=name or f"{os.uname().nodename}-{os.getpid()}",
        slots=max(1, slots),
        heartbeat_s=heartbeat_s,
        expect_config_hash=expect_config_hash,
    )
    loop = asyncio.new_event_loop()
    try:
        window_start = time.monotonic()
        while True:
            try:
                return loop.run_until_complete(agent.serve())
            except (OSError, DistProtocolError) as exc:
                if agent.last_welcome > window_start:
                    window_start = agent.last_welcome
                if time.monotonic() - window_start > reconnect_for_s:
                    print(
                        f"repro worker: giving up on {connect}: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                time.sleep(1.0)
    finally:
        loop.close()
        shutil.rmtree(agent.tmp_root, ignore_errors=True)
