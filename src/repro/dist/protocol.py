"""The dist wire protocol: length-prefixed JSON frames over TCP.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (one object with a ``"type"`` key).  JSON keeps the
frames debuggable with ``tcpdump``/``nc`` and — because Python's ``json``
round-trips floats through their shortest ``repr`` and accepts
``NaN``/``Infinity`` — numerically exact, which the placement-invariance
contract depends on.

Frames the coordinator and worker exchange::

    worker → coordinator   hello      protocol version, name, slots, pid,
                                      optional expected config hash
    coordinator → worker   welcome    accepted handshake
    coordinator → worker   reject     refused handshake (version or
                                      config-hash mismatch) + reason
    coordinator → worker   lease      one cell or sweep point: id,
                                      attempt, config hash, base64-pickled
                                      payload naming the function to run
    coordinator → worker   revoke     stop a lease (deadline, stale
                                      worker, or the coordinator's stop)
    worker → coordinator   heartbeat  liveness beacon (~2 s cadence)
    worker → coordinator   chunk      artifact lines of an in-flight cell
    worker → coordinator   done       terminal lease status
                                      (ok | failed | revoked), error,
                                      rescue checkpoint, result blob
    coordinator → worker   shutdown   run over; the agent exits 0

Lease payloads (placements, foreign statics, the frozen config, sweep
points) and results travel as base64 ``pickle`` blobs *inside* JSON
frames — the trust model of ``multiprocessing``, whose forked agents
run every local parallel job.  Artifact rows are pure JSON so the
coordinator can spill them to disk verbatim without unpickling
anything.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import socket
import struct
from typing import Dict, List, Optional

from ..exceptions import DistProtocolError

#: Wire protocol version; bump on breaking frame-layout changes.
#: v2: generic ``chunk``/``done`` frames, ``revoke``, result blobs.
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's payload size.  Big enough for a pickled
#: 50k-node cell lease; small enough that a corrupt or hostile length
#: prefix cannot make a peer allocate unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Senders keep artifact ``chunk`` frames under this many payload
#: bytes (soft bound, checked before adding each line).
CHUNK_BYTES = 1 * 1024 * 1024

_LEN = struct.Struct(">I")


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialize one frame (length prefix + JSON body)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise DistProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _LEN.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, object]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DistProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise DistProtocolError("frame body must be an object with a 'type'")
    return payload


class FrameDecoder:
    """Incremental frame parser for non-blocking reads.

    Feed it raw bytes as they arrive; it yields every complete frame and
    keeps the partial tail.  :attr:`at_boundary` distinguishes a clean
    EOF (peer closed between frames) from a torn one (mid-frame).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def at_boundary(self) -> bool:
        return not self._buffer

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        self._buffer.extend(data)
        frames: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise DistProtocolError(
                    f"peer announced a {length}-byte frame "
                    f"(limit {MAX_FRAME_BYTES})"
                )
            if len(self._buffer) < _LEN.size + length:
                return frames
            body = bytes(self._buffer[_LEN.size : _LEN.size + length])
            del self._buffer[: _LEN.size + length]
            frames.append(_decode_body(body))


# ----------------------------------------------------- blocking sockets


def send_frame(sock: socket.socket, payload: Dict[str, object]) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(payload))


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame from a blocking socket.

    Returns None on a clean EOF at a frame boundary; raises
    :class:`DistProtocolError` on a torn or oversized frame.
    """
    header = _recv_exact(sock, _LEN.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise DistProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length, at_boundary=False)
    return _decode_body(body)


def _recv_exact(
    sock: socket.socket, count: int, at_boundary: bool
) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            if at_boundary and not chunks:
                return None
            raise DistProtocolError(
                f"connection closed mid-frame ({len(chunks)}/{count} bytes)"
            )
        chunks.extend(data)
    return bytes(chunks)


# ------------------------------------------------------------- asyncio


async def write_frame(
    writer: asyncio.StreamWriter, payload: Dict[str, object]
) -> None:
    """Send one frame on an asyncio stream and drain the transport."""
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, object]]:
    """Read one frame from an asyncio stream (None on clean EOF)."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise DistProtocolError(
            "connection closed mid-frame (torn length prefix)"
        ) from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise DistProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise DistProtocolError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{length} bytes)"
        ) from exc
    return _decode_body(body)


# ---------------------------------------------------------------- blobs


def pack_blob(obj: object) -> str:
    """Pickle an object into a base64 string for embedding in a frame."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_blob(text: str) -> object:
    """Reverse of :func:`pack_blob`."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise DistProtocolError(f"undecodable lease blob: {exc}") from exc
