"""``repro.dist`` — the execution plane for every parallel job.

A coordinator (the process running :func:`repro.sim.sharded.run_sharded`
or :func:`repro.sweep.run_sweep`) listens on a TCP socket; ``repro
worker`` agents connect *out* to it, complete a version/config-hash
handshake, and are leased work one unit at a time — gateway cells, or
the points of a sweep.  The agents are forked from the coordinator and
connect over loopback for local runs, or dial in from other hosts.
Workers simulate each cell locally, then stream the cell's result
artifact back as length-prefixed JSON frames; the coordinator spills
those frames straight to per-cell files on disk and merges them lazily
at finalize, so its peak memory never scales with the total packet-log
volume.

Results are placement-invariant by construction: every agent writes
byte-identical per-cell artifacts through one shared codec
(:mod:`repro.dist.artifact`), and one merge path consumes them.  See
docs/DISTRIBUTED.md for the wire protocol and failure semantics.
"""

from typing import TYPE_CHECKING

from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import DistScheduler, DistServer, DistTransport
    from .worker import run_worker

__all__ = [
    "DistScheduler",
    "DistServer",
    "DistTransport",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "run_worker",
]

_LAZY = {
    "DistScheduler": "coordinator",
    "DistServer": "coordinator",
    "DistTransport": "coordinator",
    "run_worker": "worker",
}


def __getattr__(name: str):
    # Lazy so that ``repro.sim.sharded`` can import the shared artifact
    # codec without pulling in the coordinator (which imports sharded).
    if name in _LAZY:
        from importlib import import_module

        module = import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
