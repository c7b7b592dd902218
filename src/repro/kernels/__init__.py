"""Hot-loop kernel layer (``repro.kernels``).

The vectorized mesoscopic engine spends its residual wall time in a
handful of scalar loops whose float-operation *order* is part of the
bit-identity contract: the per-chunk settle recurrence, the streaming
rainflow replay, and the order-sensitive interference capture inside the
window resolver.  This package packages those loops as **kernels**:
named NumPy/Python functions with a fixed operation order, so the
layer timings and the golden digests have one stable place to point at.

Every kernel reports per-call wall-clock counters into
:func:`repro.obs.profiling.hot_profiler` when profiling is enabled
(``repro simulate --profile-hot``); when disabled the accounting is a
single attribute check.

The RNG boundary is deliberate: shading factors and contention draws
come from seeded :class:`random.Random` generators whose draw order is
observable, so draws always happen in Python — kernels only consume the
drawn values (see docs/PERFORMANCE.md § Kernel layer).  Shading draws
are pure functions of (node, grid index) — each one reseeds the
calling thread's scratch generator, which :mod:`repro.energy.harvester`
owns, not a node or a kernel — which is why
:class:`~repro.kernels.shading.ShadingTable` may cache them for a whole
cohort in a fixed-size, direct-mapped table: evicting and redrawing a
factor returns the same bits.
"""

from __future__ import annotations

from . import contention, rainflow, settle, shading


def backend() -> str:
    """The kernel implementation name; always ``"numpy"``."""
    # perfbench/child.py records this name and perfbench/compare.py
    # refuses to compare records whose names differ, so it stays until
    # the next change to the benchmark removes both.
    return "numpy"


__all__ = [
    "backend",
    "contention",
    "rainflow",
    "settle",
    "shading",
]
