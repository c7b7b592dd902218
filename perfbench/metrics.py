"""Metric names, units and the checks a traced simulation must pass.

Imported by the benchmark's parent process, which never imports
``repro`` itself: a child's ``ru_maxrss`` starts from the parent's
resident size at the fork that spawns it, so the parent stays small.
"""

from __future__ import annotations

from typing import Dict, List

from layers import LAYERS

WORKLOAD_NAMES = ("meso_paper", "exact_faults", "sharded_telemetry")

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "node_days_per_s", "unit": "node-day/s", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"},
)

#: stat -> (unit, better)
_STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "items": ("count", "lower"),
    "events": ("count", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "lost_ratio": ("ratio", "lower"),
    "bytes": ("bytes", "lower"),
    "round1_s": ("s", "lower"),
    "round2_s": ("s", "lower"),
    "resimulated_ratio": ("ratio", "lower"),
    "busy_s": ("s", "lower"),
    "worker_utilization": ("ratio", "higher"),
}

PER_LAYER: Dict[str, Dict[str, str]] = {
    f"{layer}.{stat}": {"unit": _STAT_UNITS[stat][0], "better": _STAT_UNITS[stat][1]}
    for layer, (_, _, stats) in LAYERS.items()
    for stat in stats
}
PER_LAYER["trace.overhead_pct"] = {"unit": "%", "better": "lower"}

#: Layers each workload must reach (``calls > 0`` in its trace).
EXPECTED_LAYERS = {
    "meso_paper": (
        "sim.mesoscopic_vec.run_sweep",
        "kernels.shading.gather",
        "kernels.settle.recurrence",
        "kernels.rainflow.replay",
        "kernels.contention.round_ok",
        "sim.mesoscopic.resolve_window",
        "core.mac.batch_choose_windows_mixed",
        "energy.solar.power_watts_batch",
        "battery.refresh_degradation",
    ),
    "exact_faults": (
        "sim.events.run_until",
        "sim.events.schedule_event",
        "sim.node.settle_to",
        "sim.node.begin_period",
        "sim.gateway.reception",
        "faults.ack_lost",
        "checkpoint.save_checkpoint",
        "core.mac.batch_choose_windows_mixed",
        "battery.refresh_degradation",
    ),
    "sharded_telemetry": (
        "sim.sharded.run_round",
        "sim.sharded.simulate_cell",
        "dist.artifact.write_cell_artifact",
        "dist.artifact.load_cell_artifact",
        "sim.mesoscopic_vec.run_sweep",
        "kernels.shading.gather",
        "kernels.settle.recurrence",
        "kernels.rainflow.replay",
        "kernels.contention.round_ok",
        "core.mac.batch_choose_windows_mixed",
        "energy.solar.power_watts_batch",
        "battery.refresh_degradation",
    ),
}

#: Layers a workload must not reach: the exact engine settles and
#: forecasts through the scalar harvester, never through the kernels.
FORBIDDEN_LAYERS = {
    "exact_faults": (
        "kernels.shading.gather",
        "kernels.settle.recurrence",
        "kernels.rainflow.replay",
        "kernels.contention.round_ok",
    ),
}


def combined(record: dict) -> Dict[str, Dict[str, float]]:
    """Parent and worker counters summed per layer."""
    merged: Dict[str, Dict[str, float]] = {}
    for source in (record["layers"], record.get("worker_layers", {})):
        for layer, stats in source.items():
            into = merged.setdefault(layer, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return merged


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(record: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced simulation (0 when unused)."""
    stats = combined(record)
    empty: Dict[str, float] = {}
    values: Dict[str, float] = {}
    rounds = stats.get("sim.sharded.run_round", empty)
    round_wall = rounds.get("round1_s", 0.0) + rounds.get("round2_s", 0.0)
    for layer, (_, _, names) in LAYERS.items():
        s = stats.get(layer, empty)
        derived = {
            "calls": s.get("calls", 0),
            "self_s": s.get("self_s", 0.0),
            "items": s.get("items", 0),
            "events": s.get("items", 0),
            "ok_ratio": _ratio(s.get("hits", 0), s.get("tries", 0)),
            "lost_ratio": _ratio(s.get("hits", 0), s.get("tries", 0)),
            "bytes": s.get("bytes", 0),
            "round1_s": s.get("round1_s", 0.0),
            "round2_s": s.get("round2_s", 0.0),
            "resimulated_ratio": _ratio(
                s.get("round1_cells", 0) + s.get("round2_cells", 0), s.get("round1_cells", 0)
            ),
            "busy_s": s.get("total_s", 0.0),
            "worker_utilization": _ratio(
                s.get("total_s", 0.0), record.get("workers", 1) * round_wall
            ),
        }
        for name in names:
            values[f"{layer}.{name}"] = derived[name]
    return values


def check_trace(workload: str, record: dict) -> List[str]:
    """What is wrong with one traced simulation's counters (empty: ok)."""
    problems = []
    stats = combined(record)
    workers = record.get("worker_layers", {})

    def calls(layer: str, source=stats) -> int:
        return source.get(layer, {}).get("calls", 0)

    for layer in EXPECTED_LAYERS[workload]:
        if calls(layer) <= 0:
            problems.append(f"layer {layer} read zero calls on {workload}")
    for layer in FORBIDDEN_LAYERS.get(workload, ()):
        if calls(layer) != 0:
            problems.append(f"layer {layer} ran {calls(layer)} times on {workload}")
    wall = record["wall_s"]
    own = sum(s["self_s"] for s in record["layers"].values())
    if own > wall:
        problems.append(f"layer self time {own:.3f} s exceeds wall {wall:.3f} s")
    if workload == "sharded_telemetry":
        rounds = record["layers"].get("sim.sharded.run_round", {})
        simulated = rounds.get("round1_cells", 0) + rounds.get("round2_cells", 0)
        if calls("sim.sharded.simulate_cell", workers) != simulated:
            problems.append(
                f"workers report {calls('sim.sharded.simulate_cell', workers)} "
                f"simulate_cell calls for {simulated} cells simulated"
            )
        for layer in ("kernels.settle.recurrence", "kernels.rainflow.replay"):
            if calls(layer, workers) <= 0:
                problems.append(f"worker-side layer {layer} read zero calls")
        busy = sum(s["self_s"] for s in workers.values())
        if busy > record.get("workers", 1) * wall:
            problems.append(f"worker self time {busy:.3f} s exceeds workers x wall")
    return problems
