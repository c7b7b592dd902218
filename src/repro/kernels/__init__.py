"""Hot-loop kernel layer with optional Numba JIT (``repro.kernels``).

The vectorized mesoscopic engine spends its residual wall time in a
handful of scalar loops whose float-operation *order* is part of the
bit-identity contract: the per-chunk settle recurrence, the streaming
rainflow replay, and the order-sensitive interference capture inside the
window resolver.  This package packages those loops as **kernels** with
two interchangeable backends:

* ``numba`` — ``@njit`` compiled loops (optional dependency, see the
  ``repro[jit]`` extra).  Numba's default IEEE semantics (no fastmath)
  evaluate the same operations in the same order as the scalar code, so
  results are bit-identical, just compiled.
* ``numpy`` — pure-Python/NumPy fallbacks that *are* the reference
  scalar loops.  Selected automatically when Numba is not installed.

The backend is chosen once at import time; ``REPRO_KERNELS`` overrides
it (``auto``/``numba``/``numpy``).  Requesting ``numba`` without the
package installed falls back to ``numpy`` and records a one-time notice
that the engines surface through the trace bus on run start.

Every kernel reports per-call wall-clock counters into
:func:`repro.obs.profiling.hot_profiler` when profiling is enabled
(``repro simulate --profile-hot``); when disabled the accounting is a
single attribute check.

The RNG boundary is deliberate: shading factors and contention draws
come from seeded :class:`random.Random` generators whose draw order is
observable, so draws always happen in Python — kernels only consume the
drawn values (see docs/PERFORMANCE.md § Kernel layer).  Shading draws
are pure functions of (node, grid index), which is why
:class:`~repro.kernels.shading.ShadingTable` may cache them for a whole
cohort in a fixed-size, direct-mapped table: evicting and redrawing a
factor returns the same bits.
"""

from __future__ import annotations

import os
from typing import Optional

#: Minimum Numba version the JIT backend is tested against (also the
#: floor pinned by the ``repro[jit]`` extra in pyproject.toml).
NUMBA_FLOOR = (0, 57)

#: One-time startup notice when the JIT backend was requested but could
#: not be used; engines consume it via :func:`consume_startup_notice`.
_STARTUP_NOTICE: Optional[str] = None


def _parse_version(text: str) -> tuple:
    parts = []
    for token in text.split(".")[:3]:
        digits = "".join(ch for ch in token if ch.isdigit())
        if not digits:
            break
        parts.append(int(digits))
    return tuple(parts)


def _select_backend() -> str:
    """Pick the kernel backend once, at import time."""
    global _STARTUP_NOTICE
    requested = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    if requested not in ("auto", "numba", "numpy"):
        _STARTUP_NOTICE = (
            f"REPRO_KERNELS={requested!r} is not one of auto/numba/numpy; "
            "using auto"
        )
        requested = "auto"
    if requested == "numpy":
        return "numpy"
    try:
        import numba  # noqa: F401
    except ImportError:
        if requested == "numba":
            _STARTUP_NOTICE = (
                "REPRO_KERNELS=numba requested but Numba is not installed; "
                "falling back to the pure-NumPy kernels "
                "(pip install 'repro[jit]' to enable the JIT backend)"
            )
        return "numpy"
    version = _parse_version(getattr(numba, "__version__", "0"))
    if version < NUMBA_FLOOR:
        floor = ".".join(str(part) for part in NUMBA_FLOOR)
        _STARTUP_NOTICE = (
            f"Numba {getattr(numba, '__version__', '?')} is older than the "
            f"supported floor {floor}; using the pure-NumPy kernels"
        )
        return "numpy"
    return "numba"


#: The selected backend: ``"numba"`` or ``"numpy"``.  The ``numpy``
#: backend *is* the scalar reference — bit-identity between the two is
#: enforced by tests/kernels and the CI kernels job.
BACKEND = _select_backend()


def backend() -> str:
    """The active kernel backend name (``numba`` or ``numpy``)."""
    return BACKEND


def consume_startup_notice() -> Optional[str]:
    """Return the pending backend notice once, then clear it.

    The engines call this on run start and publish the message through
    the trace bus (``kernels.backend_fallback``), so a user who asked
    for the JIT path learns exactly once per process that it is absent.
    """
    global _STARTUP_NOTICE
    notice = _STARTUP_NOTICE
    _STARTUP_NOTICE = None
    return notice


def startup_notice() -> Optional[str]:
    """Peek at the pending notice without consuming it (diagnostics)."""
    return _STARTUP_NOTICE


def emit_startup_notice(trace) -> bool:
    """Publish the pending notice on a trace bus (engines' run start).

    Consumes the notice only when a bus is actually present, so an
    untraced run leaves it pending for the first traced run of the
    process.  Returns whether an event was emitted.
    """
    if trace is None or _STARTUP_NOTICE is None:
        return False
    trace.emit(
        0.0,
        "engine",
        "kernels.backend_fallback",
        severity="warning",
        message=consume_startup_notice(),
        backend=BACKEND,
    )
    return True


from . import contention, rainflow, settle, shading  # noqa: E402

__all__ = [
    "BACKEND",
    "NUMBA_FLOOR",
    "backend",
    "consume_startup_notice",
    "contention",
    "emit_startup_notice",
    "rainflow",
    "settle",
    "shading",
    "startup_notice",
]
