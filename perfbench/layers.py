"""Per-layer spans installed from outside the program.

:func:`install` wraps each layer's public entry point -- a module
function or a class method of ``repro`` -- in a span that records call
count, inclusive time and self time (span time minus the time of spans
nested inside it), plus a layer-specific work count.  Nothing is read
from spans or counters inside ``repro`` itself.

``from module import name`` copies a function into the importing
module's namespace, so wrapping the defining module alone would miss
those call sites.  :func:`install` therefore replaces every reference to
the original function found in any loaded ``repro`` module, and checks
that the known rebound names were among them.

Shard workers are forked: they inherit the wrappers, but their counters
die with them.  After a fork the child's counters restart from zero, and
each worker writes its totals to ``flush_dir`` after every
``write_cell_artifact``; :func:`collect_workers` sums those files in the
parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> (module, attribute path, per-layer stats reported).
#: An attribute path with a dot names a method (``Class.method``).
LAYERS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "sim.mesoscopic_vec.run_sweep": ("repro.sim.mesoscopic_vec", "run_sweep", ("self_s", "events")),
    "kernels.shading.gather": ("repro.kernels.shading", "gather", ("calls", "self_s", "items")),
    "kernels.settle.recurrence": ("repro.kernels.settle", "recurrence", ("calls", "self_s", "items")),
    "kernels.rainflow.replay": ("repro.kernels.rainflow", "replay", ("calls", "self_s", "items")),
    "kernels.contention.round_ok": ("repro.kernels.contention", "round_ok", ("calls", "self_s", "items")),
    "sim.mesoscopic.resolve_window": ("repro.sim.mesoscopic", "resolve_window", ("calls", "self_s")),
    "core.mac.batch_choose_windows_mixed": (
        "repro.core.mac",
        "batch_choose_windows_mixed",
        ("calls", "self_s", "items"),
    ),
    "energy.solar.power_watts_batch": (
        "repro.energy.solar",
        "SolarModel.power_watts_batch",
        ("calls", "self_s", "items"),
    ),
    "battery.refresh_degradation": ("repro.battery.battery", "Battery.refresh_degradation", ("calls", "self_s")),
    "sim.events.run_until": ("repro.sim.events", "EventQueue.run_until", ("self_s", "events")),
    "sim.events.schedule_event": ("repro.sim.events", "EventQueue.schedule_event", ("calls", "self_s")),
    "sim.node.settle_to": ("repro.sim.node", "EndDevice.settle_to", ("calls", "self_s")),
    "sim.node.begin_period": ("repro.sim.node", "EndDevice.begin_period", ("calls", "self_s")),
    "sim.gateway.reception": ("repro.sim.gateway", "Gateway.begin_reception", ("calls", "self_s", "ok_ratio")),
    "faults.ack_lost": ("repro.faults.injector", "FaultInjector.ack_lost", ("calls", "self_s", "lost_ratio")),
    "checkpoint.save_checkpoint": ("repro.checkpoint.core", "save_checkpoint", ("calls", "self_s", "bytes")),
    "sim.sharded.run_round": (
        "repro.sim.sharded",
        "LocalTransport.run_round",
        ("calls", "round1_s", "round2_s", "resimulated_ratio"),
    ),
    "sim.sharded.simulate_cell": (
        "repro.sim.sharded",
        "simulate_cell",
        ("calls", "busy_s", "worker_utilization"),
    ),
    "dist.artifact.write_cell_artifact": (
        "repro.dist.artifact",
        "write_cell_artifact",
        ("calls", "self_s", "bytes"),
    ),
    "dist.artifact.load_cell_artifact": ("repro.dist.artifact", "load_cell_artifact", ("calls", "self_s")),
}

#: Gateway reception is one layer with two entry points.
_EXTRA_ENTRY_POINTS = {"sim.gateway.reception": ("repro.sim.gateway", "Gateway.end_reception")}

#: Names that ``from ... import`` copies into other modules; each must
#: be found and wrapped, or its span would silently read zero.
REBOUND = (
    ("repro.sim.mesoscopic_vec", "batch_choose_windows_mixed"),
    ("repro.sim.mesoscopic_vec", "resolve_window"),
    ("repro.sim.engine", "batch_choose_windows_mixed"),
    ("repro.sim.engine", "save_checkpoint"),
    ("repro.sim.sharded", "write_cell_artifact"),
    ("repro.sim.sharded", "load_cell_artifact"),
)

#: The counters every layer keeps (``total_s`` is inclusive time).
COUNTERS = (
    "calls", "total_s", "self_s", "items", "hits", "tries", "bytes",
    "round1_s", "round2_s", "round1_cells", "round2_cells",
)


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else len(value)


class Tracer:
    """Span counters for one process (reset in forked children)."""

    def __init__(self, flush_dir: str) -> None:
        self.flush_dir = flush_dir
        self.stats: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[float]] = []
        self._worker_tag: Optional[str] = None

    # ------------------------------------------------------------ counters

    def layer(self, name: str) -> Dict[str, float]:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = dict.fromkeys(COUNTERS, 0)
        return stats

    def _after_fork(self) -> None:
        self.stats.clear()
        self._stack.clear()
        self._worker_tag = f"{os.getpid()}-{time.monotonic_ns()}"

    def flush(self) -> None:
        """Write this worker's totals (no-op outside forked workers)."""
        if self._worker_tag is None:
            return
        path = os.path.join(self.flush_dir, f"worker-{self._worker_tag}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.stats, handle)
        os.replace(path + ".tmp", path)

    # --------------------------------------------------------------- spans

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span of layer ``name``.

        ``after(stats, args, result, elapsed, state)`` adds layer-specific
        counts once the call returns; ``state`` is what ``before(args)``
        captured on entry.
        """
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            state = before(args) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = self.layer(name)
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[0]
            if after is not None:
                after(stats, args, result, elapsed, state)
            return result

        return span


# ------------------------------------------------------- per-layer counts


def _items_arg(index: int) -> Callable:
    def after(stats, args, result, elapsed, state):
        stats["items"] += _size(args[index])

    return after


def _items_matrix(stats, args, result, elapsed, state):
    rows, windows = args[2].shape  # the padded green-energy matrix
    stats["items"] += rows * windows


def _items_round(stats, args, result, elapsed, state):
    stats["items"] += _size(args[1]) * _size(args[5])  # batch x universe


def _sweep_events(stats, args, result, elapsed, state):
    stats["items"] += args[0]._events_executed - state


def _queue_state(args) -> Tuple[int, int]:
    queue = args[0]
    return queue._next_sequence, len(queue._heap)


def _queue_events(stats, args, result, elapsed, state):
    """Events popped: those scheduled during the call plus those it drained."""
    sequence, pending = _queue_state(args)
    stats["items"] += (sequence - state[0]) + (state[1] - pending)


def _hit_if_true(stats, args, result, elapsed, state):
    stats["tries"] += 1
    if result:
        stats["hits"] += 1


def _checkpoint_bytes(stats, args, result, elapsed, state):
    stats["bytes"] += os.path.getsize(result)


def _round(stats, args, result, elapsed, state):
    request = args[1]
    stats[f"round{request.round_no}_s"] += elapsed
    stats[f"round{request.round_no}_cells"] += len(request.cell_ids)


_AFTER = {
    "sim.mesoscopic_vec.run_sweep": _sweep_events,
    "kernels.shading.gather": _items_arg(1),
    "kernels.settle.recurrence": _items_arg(0),
    "kernels.rainflow.replay": _items_arg(1),
    "kernels.contention.round_ok": _items_round,
    "core.mac.batch_choose_windows_mixed": _items_matrix,
    "energy.solar.power_watts_batch": _items_arg(1),  # (self, times)
    "sim.events.run_until": _queue_events,
    "faults.ack_lost": _hit_if_true,
    "checkpoint.save_checkpoint": _checkpoint_bytes,
    "sim.sharded.run_round": _round,
}

_BEFORE = {
    "sim.mesoscopic_vec.run_sweep": lambda args: args[0]._events_executed,
    "sim.events.run_until": _queue_state,
}


def _replace_everywhere(owner, attr: str, wrapper) -> int:
    """Swap ``owner.attr`` and every ``repro`` alias of it for ``wrapper``."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        targets = [owner]
    else:
        targets = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "repro" or key.startswith("repro."))
        ]
    swapped = 0
    for target in targets:
        for key, value in list(vars(target).items()):
            if value is original:
                setattr(target, key, wrapper)
                swapped += 1
    return swapped


def _resolve(module_name: str, path: str):
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name), attr
    return module, path


def install(flush_dir: str) -> Tracer:
    """Wrap every layer's entry points; returns the live tracer."""
    import importlib

    for module_name in {spec[0] for spec in LAYERS.values()} | {
        "repro.sim.engine",
        "repro.sweep.executor",
    }:
        importlib.import_module(module_name)
    tracer = Tracer(flush_dir)
    entry_points = [(name, spec[0], spec[1]) for name, spec in LAYERS.items()]
    entry_points += [(name, mod, path) for name, (mod, path) in _EXTRA_ENTRY_POINTS.items()]
    for name, module_name, path in entry_points:
        owner, attr = _resolve(module_name, path)
        after = _AFTER.get(name)
        if path == "Gateway.end_reception":
            after = _hit_if_true
        elif name == "dist.artifact.write_cell_artifact":
            after = _artifact_written(tracer)
        wrapper = tracer.wrap(name, getattr(owner, attr), after, _BEFORE.get(name))
        if _replace_everywhere(owner, attr, wrapper) == 0:
            raise RuntimeError(f"layer {name}: {module_name}.{path} not found")
    for module_name, attr in REBOUND:
        if not hasattr(getattr(sys.modules[module_name], attr), "__wrapped__"):
            raise RuntimeError(f"rebound name {module_name}.{attr} was not wrapped")
    os.register_at_fork(after_in_child=tracer._after_fork)
    return tracer


def _artifact_written(tracer: Tracer) -> Callable:
    def after(stats, args, result, elapsed, state):
        stats["bytes"] += os.path.getsize(args[0])
        tracer.flush()

    return after


def collect_workers(flush_dir: str) -> Dict[str, Dict[str, float]]:
    """Sum the totals every forked worker flushed into ``flush_dir``."""
    merged: Dict[str, Dict[str, float]] = {}
    for entry in sorted(os.listdir(flush_dir)):
        if not (entry.startswith("worker-") and entry.endswith(".json")):
            continue
        with open(os.path.join(flush_dir, entry), encoding="utf-8") as handle:
            worker = json.load(handle)
        for name, stats in worker.items():
            into = merged.setdefault(name, dict.fromkeys(COUNTERS, 0))
            for key, value in stats.items():
                into[key] += value
    return merged
