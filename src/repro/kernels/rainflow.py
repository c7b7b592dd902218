"""Streaming-rainflow replay kernel.

Advances a :class:`repro.battery.rainflow.StreamingRainflow` over a
batch of SoC samples, state-identical to feeding the samples through
``push`` one by one.  The three-point closure arithmetic
(``x = |s[-1] - s[-2]|`` vs ``y = |s[-2] - s[-3]|``) uses exact float
comparisons and a stack whose evolution depends on every prior sample,
so it stays a sequential loop: the stream's scalar ``extend_batch``
(monotone runs collapse to one tail assignment; direction changes go
through ``push``).
"""

from __future__ import annotations

import time

from ..obs.profiling import hot_profiler

_PROF = hot_profiler()


def replay(stream, values) -> None:
    """Advance ``stream`` over ``values``.

    State- and emission-identical to ``stream.extend_batch(values)``.
    """
    if not _PROF.enabled:
        stream.extend_batch(values)
        return
    started = time.perf_counter()
    try:
        stream.extend_batch(values)
    finally:
        _PROF.add("rainflow.replay", time.perf_counter() - started)
