"""Versioned, integrity-hashed, atomically-written run checkpoints.

A checkpoint file is a two-part envelope:

* line 1 — a JSON header: format version, engine name, config hash,
  simulation time, payload SHA-256 and byte count, seed, node count
  (space-padded to a fixed width, see :func:`save_checkpoint`);
* the rest — a :mod:`pickle` of the complete simulator object (event
  queue or sweep heap, per-node device/MAC/battery/degradation state,
  fault-injector RNG streams, metrics and trace counters).  Inside it
  every exact ``random.Random`` is reduced to its packed Mersenne
  Twister words (:func:`_reduce_random`).

The payload streams into a temp file that :func:`repro.ioutil.atomic_open`
renames into place, so a kill at any instant leaves either no file or a
complete, verifiable one.
``load_checkpoint`` refuses unknown format versions and corrupted
payloads (hash mismatch) with :class:`~repro.exceptions.CheckpointError`
rather than unpickling untrusted bytes.

The determinism contract (docs/ROBUSTNESS.md): a run checkpointed at
time *t* and resumed produces byte-identical packet logs, metrics, and
trace files versus the uninterrupted run, on both engines, with and
without fault plans.  The only exceptions are fields that measure
wall-clock facts about the process (``wall_s`` and friends — see
:mod:`repro.checkpoint.equivalence`, which defines the contract
operationally).  The suite under ``tests/checkpoint`` enforces it.
"""

from __future__ import annotations

import copyreg
import hashlib
import json
import os
import pickle
import random
import struct
import sys
import types
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple

from ..exceptions import CheckpointError
from ..ioutil import atomic_open, atomic_write_bytes
from ..obs.profiling import config_hash
from ..obs.trace import JsonlSink
from . import retired

#: Checkpoint envelope format; bump on breaking layout changes.
FORMAT = "repro.checkpoint/2"

#: How many checkpoints `save_checkpoint` keeps per directory.
KEEP_LAST = 3

#: Test hook: called as ``hook(path, time_s)`` after every successful
#: save.  The sweep self-healing tests use it to SIGKILL a worker right
#: after a checkpoint lands, simulating a mid-run crash.
_post_save_hook: Optional[Callable[[str, float], None]] = None


def checkpoint_filename(time_s: float) -> str:
    """Zero-padded name so lexicographic order equals time order."""
    return f"ckpt-{time_s:017.3f}.ckpt"


def save_checkpoint(
    sim: object,
    directory: str,
    time_s: float,
    engine: str,
) -> str:
    """Pickle ``sim`` into ``directory`` and return the file path.

    The payload streams into the temp file through a hashing writer, so
    no payload-sized buffer is built.  Line 1 is reserved as a
    space-padded slot wide enough for any payload size and filled in
    once the payload's hash and length are known.
    """
    config = getattr(sim, "config", None)
    header = {
        "format": FORMAT,
        "engine": engine,
        "config_hash": config_hash(config) if config is not None else None,
        "time_s": time_s,
        "payload_sha256": "0" * 64,
        "payload_bytes": sys.maxsize,
        "seed": getattr(config, "seed", None),
        "node_count": getattr(config, "node_count", None),
    }
    slot = len(_header_line(header))
    path = os.path.join(directory, checkpoint_filename(time_s))
    with atomic_open(path) as handle:
        handle.write(b" " * slot + b"\n")
        sink = _HashingWriter(handle)
        try:
            _SnapshotPickler(sink).dump(sim)
        except OSError:
            raise  # the write failed, not the state
        except Exception as exc:
            raise CheckpointError(
                f"run state at t={time_s:.3f}s is not snapshotable: {exc}"
            ) from exc
        header["payload_sha256"] = sink.sha256.hexdigest()
        header["payload_bytes"] = sink.size
        handle.seek(0)
        handle.write(_header_line(header).ljust(slot))
    _prune(directory)
    if _post_save_hook is not None:
        _post_save_hook(path, time_s)
    return path


def _header_line(header: Dict[str, object]) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


class _HashingWriter:
    """File-like sink that hashes and counts the bytes it passes on."""

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        # Protocol 5 hands large buffers (``PickleBuffer``) straight
        # through; ``nbytes`` is their byte length, ``len`` is not.
        self.sha256.update(data)
        self.size += memoryview(data).nbytes
        return self._handle.write(data)


#: One Mersenne Twister's 624 state words, little-endian uint32.
_MT_WORDS = struct.Struct("<624I")


def _reduce_random(rng: random.Random):
    """Reduce a generator to its packed words, position and ``gauss_next``.

    The default reduction pickles ``getstate()``, a tuple of 625 ints
    that the pickler's memo keeps alive until the dump ends.
    """
    _, internal, gauss_next = rng.getstate()
    return _restore_random, (_MT_WORDS.pack(*internal[:-1]), internal[-1], gauss_next)


def _restore_random(words: bytes, position: int, gauss_next) -> random.Random:
    """Rebuild a generator reduced by :func:`_reduce_random`."""
    rng = random.Random()
    rng.setstate((random.Random.VERSION, _MT_WORDS.unpack(words) + (position,), gauss_next))
    return rng


class _SnapshotPickler(pickle.Pickler):
    """The snapshot payload's pickler: exact ``random.Random`` instances
    pickle as packed words.  The table is this pickler's own, so pickles
    made elsewhere keep the default reduction."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.dispatch_table = {**copyreg.dispatch_table, random.Random: _reduce_random}


class _SnapshotUnpickler(pickle.Unpickler):
    """The counterpart of :class:`_SnapshotPickler`: globals listed in
    :mod:`.retired` load through its table.  A retired class loads as a
    ``SimpleNamespace``; a class holding retired state loads as a
    throwaway subclass whose instances shed it, then become plain."""

    def find_class(self, module: str, name: str):
        key = (module, name)
        if key in retired.CLASSES:
            return types.SimpleNamespace
        cls = super().find_class(module, name)
        if key not in _HOLDERS:
            return cls

        def __setstate__(obj, state: Dict[str, object]) -> None:
            object.__setattr__(obj, "__class__", cls)
            for field in retired.ATTRIBUTES.get(key, ()):
                state.pop(field, None)
            for field, (legal, reason) in retired.FIELDS.items() if key == retired.CONFIG else ():
                if field in state and legal is not None and state[field] not in legal:
                    raise CheckpointError(f"retired {field}={state[field]!r} ({reason})")
                if field not in cls.__dataclass_fields__:
                    state.pop(field, None)
            for holder, attribute, convert in retired.CLASSES.values():
                if holder == key:
                    state[attribute] = [
                        convert(e) if type(e) is types.SimpleNamespace else e
                        for e in state[attribute]
                    ]
            obj.__dict__.update(state)

        return type(name, (cls,), {"__slots__": (), "__setstate__": __setstate__})


#: Globals of the classes whose instances hold retired state.
_HOLDERS = {retired.CONFIG, *retired.ATTRIBUTES, *(c[0] for c in retired.CLASSES.values())}


def read_header(path: str) -> Dict[str, object]:
    """Parse and validate a checkpoint's JSON header without unpickling."""
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return _parse_header(path, header_line)


def _parse_header(path: str, header_line: bytes) -> Dict[str, object]:
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} has an unparsable header"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format "
            f"{header.get('format') if isinstance(header, dict) else header!r}; "
            f"this build reads {FORMAT!r}"
        )
    return header


#: Bytes per read while verifying a payload.
_VERIFY_CHUNK = 1 << 20


def _hash_rest(handle: BinaryIO) -> Tuple[int, str]:
    """Byte count and SHA-256 of the rest of ``handle``, read in chunks."""
    digest = hashlib.sha256()
    size = 0
    chunk = memoryview(bytearray(_VERIFY_CHUNK))
    while True:
        count = handle.readinto(chunk)
        if not count:
            return size, digest.hexdigest()
        digest.update(chunk[:count])
        size += count


def load_checkpoint(
    path: str, expected_config_hash: Optional[str] = None
) -> Tuple[object, Dict[str, object]]:
    """Verify and unpickle a checkpoint; returns ``(sim, header)``.

    The payload is rejected before unpickling when its SHA-256 does not
    match the header (truncation, bit rot, torn copy) and when
    ``expected_config_hash`` is given but differs (resuming a grid cell
    against the wrong config), and while unpickling when it holds a retired
    config field at a value no run resumes with.  It is verified in chunks
    and then unpickled from the file, so no payload-sized buffer is built.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    with handle:
        header = _parse_header(path, handle.readline())
        start = handle.tell()
        size, digest = _hash_rest(handle)
        if size != header.get("payload_bytes"):
            raise CheckpointError(
                f"checkpoint {path!r} is truncated: expected "
                f"{header.get('payload_bytes')} payload bytes, found {size}"
            )
        if digest != header.get("payload_sha256"):
            raise CheckpointError(
                f"checkpoint {path!r} failed integrity verification "
                f"(payload hash mismatch)"
            )
        if (
            expected_config_hash is not None
            and header.get("config_hash") != expected_config_hash
        ):
            raise CheckpointError(
                f"checkpoint {path!r} was written for config "
                f"{header.get('config_hash')}, not {expected_config_hash}"
            )
        handle.seek(start)
        try:
            sim = _SnapshotUnpickler(handle).load()
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path!r} failed to unpickle: {exc}"
            ) from exc
    return sim, header


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest checkpoint in ``directory``, or None."""
    try:
        names = _checkpoint_names(directory)
    except OSError:
        return None
    return os.path.join(directory, names[-1]) if names else None


def _checkpoint_names(directory: str) -> List[str]:
    return sorted(n for n in os.listdir(directory) if n.startswith("ckpt-") and n.endswith(".ckpt"))


def _prune(directory: str) -> None:
    """Drop all but the newest :data:`KEEP_LAST` checkpoints."""
    for name in _checkpoint_names(directory)[:-KEEP_LAST]:
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            pass


def resume(
    path_or_directory: str, expected_config_hash: Optional[str] = None
) -> Tuple[object, Dict[str, object]]:
    """Load the checkpoint and reattach live resources; ready to ``run()``.

    Accepts a checkpoint file or a directory (newest file wins).  The
    returned simulator continues exactly where the snapshot stopped:
    call its ``run()`` method to play the rest of the horizon.
    """
    path: Optional[str] = path_or_directory
    if os.path.isdir(path_or_directory):
        path = latest_checkpoint(path_or_directory)
        if path is None:
            raise CheckpointError(
                f"no checkpoints found in {path_or_directory!r}"
            )
    sim, header = load_checkpoint(path, expected_config_hash)
    _reattach_trace(sim)
    obs = getattr(sim, "obs", None)
    if obs is not None and obs.metrics is not None:
        obs.metrics.counter(
            "checkpoint_resumes_total",
            "Runs resumed from a checkpoint",
        ).inc()
    return sim, header


def _reattach_trace(sim: object) -> None:
    """Rewind the trace JSONL to the snapshot point and reopen it.

    The bus pickles without its sink but remembers how many lines the
    sink had written; truncating back to that count before reattaching
    an append-mode sink keeps the resumed run's trace file
    byte-identical to an uninterrupted run's.
    """
    bus = getattr(getattr(sim, "obs", None), "trace", None)
    if bus is None or bus._sink_path is None:
        return
    path, written = bus._sink_path, bus._sink_written
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        lines = []
    kept = lines[: int(written)]
    atomic_write_bytes(path, "".join(kept).encode("utf-8"))
    sink = JsonlSink(path, append=True)
    sink.written = int(written)
    bus._sink = sink
