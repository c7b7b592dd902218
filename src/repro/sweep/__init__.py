"""Parallel multi-seed / multi-variant sweep executor.

Expands a (config-variant × seed) grid (:mod:`repro.sweep.grid`),
leases it to forked local ``repro worker`` agents, and merges per-run
records into one ``SWEEP.json`` deterministically — ordered by grid index, bit-identical
for any worker count (:mod:`repro.sweep.executor`).  Execution is
self-healing: crashed or stuck runs are retried from their newest
checkpoint and ``repro sweep --resume`` re-runs only unfinished cells.
Driven by the ``repro sweep`` CLI subcommand; determinism contract in
docs/PERFORMANCE.md, recovery semantics in docs/ROBUSTNESS.md.
"""

from .executor import (
    READABLE_SCHEMAS,
    SCHEMA,
    STATUSES,
    CrashSpec,
    RunRecord,
    SweepResult,
    execute_point,
    interrupt_exit_code,
    run_sweep,
    summarize,
)
from .grid import SweepPoint, build_grid, expand_axes
from .spec import (
    SPEC_KEYS,
    grid_from_spec,
    grid_size,
    normalize_sweep_report,
    parse_axis_value,
    spec_duration_s,
)

__all__ = [
    "READABLE_SCHEMAS",
    "SCHEMA",
    "SPEC_KEYS",
    "STATUSES",
    "CrashSpec",
    "RunRecord",
    "SweepPoint",
    "SweepResult",
    "build_grid",
    "execute_point",
    "expand_axes",
    "grid_from_spec",
    "grid_size",
    "interrupt_exit_code",
    "normalize_sweep_report",
    "parse_axis_value",
    "run_sweep",
    "summarize",
]
