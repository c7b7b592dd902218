"""Versioned, integrity-hashed, atomically-written run checkpoints.

A checkpoint file is a two-part envelope:

* line 1 — a JSON header: format version, engine name, config hash,
  simulation time, payload SHA-256 and byte count, seed, node count;
* the rest — a :mod:`pickle` of the complete simulator object (event
  queue or sweep heap, per-node device/MAC/battery/degradation state,
  fault-injector RNG streams, metrics and trace counters).

Files are written through :func:`repro.ioutil.atomic_write_bytes`, so a
kill at any instant leaves either no file or a complete, verifiable one.
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

import hashlib
import json
import os
import pickle
from typing import Callable, Dict, Optional, Tuple

from ..exceptions import CheckpointError
from ..ioutil import atomic_write_bytes
from ..obs.profiling import config_hash
from ..obs.trace import JsonlSink

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
    keep_last: int = KEEP_LAST,
) -> str:
    """Pickle ``sim`` into ``directory`` and return the file path."""
    try:
        payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"run state at t={time_s:.3f}s is not snapshotable: {exc}"
        ) from exc
    config = getattr(sim, "config", None)
    header = {
        "format": FORMAT,
        "engine": engine,
        "config_hash": config_hash(config) if config is not None else None,
        "time_s": time_s,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "seed": getattr(config, "seed", None),
        "node_count": getattr(config, "node_count", None),
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8")
    path = os.path.join(directory, checkpoint_filename(time_s))
    atomic_write_bytes(path, header_line + b"\n" + payload)
    _prune(directory, keep_last)
    if _post_save_hook is not None:
        _post_save_hook(path, time_s)
    return path


def read_header(path: str) -> Dict[str, object]:
    """Parse and validate a checkpoint's JSON header without unpickling."""
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
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


def load_checkpoint(
    path: str, expected_config_hash: Optional[str] = None
) -> Tuple[object, Dict[str, object]]:
    """Verify and unpickle a checkpoint; returns ``(sim, header)``.

    The payload is rejected before unpickling when its SHA-256 does not
    match the header (truncation, bit rot, torn copy) and when
    ``expected_config_hash`` is given but differs (resuming a grid cell
    against the wrong config).
    """
    header = read_header(path)
    with open(path, "rb") as handle:
        handle.readline()
        payload = handle.read()
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(
            f"checkpoint {path!r} is truncated: expected "
            f"{header.get('payload_bytes')} payload bytes, found {len(payload)}"
        )
    digest = hashlib.sha256(payload).hexdigest()
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
    try:
        sim = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} failed to unpickle: {exc}"
        ) from exc
    return sim, header


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest checkpoint in ``directory``, or None."""
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("ckpt-") and name.endswith(".ckpt")
        )
    except OSError:
        return None
    return os.path.join(directory, names[-1]) if names else None


def _prune(directory: str, keep_last: int) -> None:
    """Drop all but the newest ``keep_last`` checkpoints."""
    names = sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("ckpt-") and name.endswith(".ckpt")
    )
    for name in names[:-keep_last] if keep_last > 0 else names:
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
    obs = getattr(sim, "obs", None)
    bus = getattr(obs, "trace", None) if obs is not None else None
    if bus is None:
        return
    path = getattr(bus, "_sink_path", None)
    written = getattr(bus, "_sink_written", None)
    if path is None or written is None:
        return
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
