"""Engine micro-benchmark: throughput, memory, and tracing overhead.

Times one seeded configuration on both engines and writes
``benchmarks/results/BENCH_obs.json`` with, per engine:

* wall-clock seconds (from the run manifest's profiler phases),
* simulated-seconds-per-wall-second throughput,
* events executed and peak event-queue depth,
* peak RSS of the process (``resource.getrusage``, KiB on Linux),

plus the relative wall-time overhead of running the exact engine with
full tracing enabled versus disabled — the number backing the "<5 %
when disabled, bounded when enabled" claim in docs/OBSERVABILITY.md.

The ``--long-horizon`` mode instead profiles the incremental
degradation pipeline on a multi-year mesoscopic run (200 nodes, 2
simulated years, H-50) and writes
``benchmarks/results/BENCH_perf.json`` — before/after wall time,
throughput, and peak RSS versus a baseline capture of the pre-PR tree
(``--before PATH``, or the baseline already embedded in a previous
BENCH_perf.json).  See docs/PERFORMANCE.md.

Run standalone (``python benchmarks/bench_engines.py [--smoke] [--out
PATH]``) or through the pytest harness like every other bench.  CI runs
the smoke profile on every push.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
from typing import Dict, Optional

from repro import SimulationConfig, run_mesoscopic, run_simulation
from repro.constants import SECONDS_PER_DAY

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_obs.json"
PERF_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_perf.json"
SCALE_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_scale.json"

#: The scale sweep's traffic profile ("telemetry"): 4-8 h sampling
#: periods with 5-minute forecast windows, the regime in which
#: 10k-50k-node LPWAN deployments actually operate — at the paper's
#: dense [16, 60]-minute profile a 50k-node network would offer ~1.8M
#: uplinks/day and congest any gateway set, so scaling node count
#: while keeping aggregate channel load physical requires longer
#: periods.  ``solar_peak_transmissions`` rescales the panel to the
#: 5-minute window so per-node energy headroom matches the default
#: profile (the knob is expressed in transmissions *per window*).
SCALE_PROFILE = dict(
    period_range_s=(240 * 60.0, 480 * 60.0),
    window_s=300.0,
    solar_peak_transmissions=10.0,
    channel_count=8,
    omega=8,
    seed=42,
    memory_profile="diet",
    record_packets=True,
)

#: (nodes, gateways, days) per scale point; the 50k x 1-year flagship
#: last, so the curve lands incrementally while it runs.  Gateway count
#: scales to hold cells near 2 000 nodes (the per-process memory bound).
SCALE_POINTS = (
    (2_000, 4, 14.0),
    (5_000, 4, 14.0),
    (10_000, 8, 14.0),
    (20_000, 12, 14.0),
    (50_000, 25, 365.0),
)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process so far (KiB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _config(smoke: bool, engine: str) -> SimulationConfig:
    if engine == "exact":
        nodes, days = (5, 0.5) if smoke else (20, 2.0)
    else:
        nodes, days = (10, 1.0) if smoke else (50, 7.0)
    return SimulationConfig(
        node_count=nodes, duration_s=days * SECONDS_PER_DAY, seed=42
    ).as_h(0.5)


def _run_one(engine: str, config: SimulationConfig) -> Dict[str, object]:
    start = time.perf_counter()
    if engine == "exact":
        result = run_simulation(config)
    else:
        result = run_mesoscopic(config)
    wall = time.perf_counter() - start
    manifest = result.manifest
    return {
        "engine": engine,
        "nodes": config.node_count,
        "simulated_days": config.duration_s / SECONDS_PER_DAY,
        "wall_s": round(wall, 6),
        "sim_s_per_wall_s": round(manifest.sim_s_per_wall_s or 0.0, 1),
        "events_executed": manifest.events_executed,
        "peak_queue_depth": manifest.peak_queue_depth,
        "phase_timings_s": {
            name: round(value, 6)
            for name, value in manifest.phase_timings_s.items()
        },
        "avg_prr": result.metrics.avg_prr,
        "peak_rss_kb": _peak_rss_kb(),
    }


def _trace_overhead_pct(smoke: bool) -> float:
    """Exact-engine wall overhead of full tracing vs. disabled, percent."""
    config = _config(smoke, "exact")
    start = time.perf_counter()
    run_simulation(config)
    plain = time.perf_counter() - start
    start = time.perf_counter()
    run_simulation(config.replace(trace=True))
    traced = time.perf_counter() - start
    if plain <= 0.0:
        return 0.0
    return round((traced - plain) / plain * 100.0, 2)


def run_bench(smoke: bool = False) -> Dict[str, object]:
    """Benchmark both engines; returns the BENCH_obs.json payload."""
    report: Dict[str, object] = {
        "profile": "smoke" if smoke else "full",
        "seed": 42,
        "engines": {
            engine: _run_one(engine, _config(smoke, engine))
            for engine in ("mesoscopic", "exact")
        },
        "exact_trace_overhead_pct": _trace_overhead_pct(smoke),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return report


def run_longhorizon(
    nodes: int = 200,
    days: float = 730.0,
    before: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Profile the incremental pipeline on a multi-year mesoscopic run.

    Returns the BENCH_perf.json payload: the "after" capture of this
    tree plus, when a baseline is supplied, the "before" capture and the
    wall-clock speedup.  The baseline must have been measured at the
    same (nodes, days, seed) profile to be comparable.
    """
    config = SimulationConfig(
        node_count=nodes, duration_s=days * SECONDS_PER_DAY, seed=42
    ).as_h(0.5)
    start = time.perf_counter()
    result = run_mesoscopic(config)
    wall = time.perf_counter() - start
    manifest = result.manifest
    after = {
        "nodes": nodes,
        "days": days,
        "engine": "mesoscopic",
        "policy": "H-50",
        "seed": 42,
        "wall_s": round(wall, 3),
        "sim_s_per_wall_s": round(manifest.sim_s_per_wall_s or 0.0, 1),
        "events_executed": manifest.events_executed,
        "peak_rss_kb": _peak_rss_kb(),
        "avg_prr": result.metrics.avg_prr,
    }
    report: Dict[str, object] = {
        "profile": "long-horizon",
        "after": after,
        "before": before,
    }
    if before and before.get("wall_s"):
        for key in ("nodes", "days", "seed"):
            if key in before and before[key] != after[key]:
                raise SystemExit(
                    f"baseline {key}={before[key]} does not match the "
                    f"long-horizon profile ({after[key]}); re-capture it"
                )
        report["speedup_wall"] = round(
            float(before["wall_s"]) / after["wall_s"], 2
        )
    return report


def _scale_config(nodes: int, gateways: int, days: float) -> SimulationConfig:
    return SimulationConfig(
        node_count=nodes,
        gateway_count=gateways,
        shards=gateways,
        duration_s=days * SECONDS_PER_DAY,
        **SCALE_PROFILE,
    ).as_h(0.5)


def run_scale_child(
    nodes: int, gateways: int, days: float, checkpoint_dir: Optional[str]
) -> Dict[str, object]:
    """One scale point: a sharded diet run, reported as JSON.

    Runs in a fresh subprocess per point (``ru_maxrss`` is a
    process-lifetime cumulative maximum).  Peak RSS is the max of the
    coordinator (RUSAGE_SELF) and the largest shard worker
    (RUSAGE_CHILDREN) — with ``workers=1`` that is the run's true
    high-water mark on one machine.
    """
    from repro.sim.sharded import run_sharded

    config = _scale_config(nodes, gateways, days)
    if checkpoint_dir is not None:
        config = config.replace(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_s=30 * SECONDS_PER_DAY,
        )
    start = time.perf_counter()
    result = run_sharded(config, workers=1, max_retries=2)
    wall = time.perf_counter() - start
    self_kb = _peak_rss_kb()
    child_kb = int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    peak_kb = max(self_kb, child_kb)
    return {
        "nodes": nodes,
        "gateways": gateways,
        "shards": gateways,
        "days": days,
        "wall_s": round(wall, 3),
        "node_days_per_wall_s": round(nodes * days / max(wall, 1e-9), 1),
        "peak_rss_kb": peak_kb,
        "coordinator_rss_kb": self_kb,
        "worker_rss_kb": child_kb,
        "mb_per_node": round(peak_kb / 1024.0 / nodes, 4),
        "avg_prr": result.metrics.avg_prr,
        "events_executed": result.manifest.events_executed,
        "packets_generated": result.packet_log.generated,
        "packets_delivered": result.packet_log.delivered,
    }


def _spawn_scale_child(
    nodes: int, gateways: int, days: float, checkpoint_dir: Optional[str]
) -> Dict[str, object]:
    """Run one scale point in a fresh interpreter; parse its JSON."""
    import os
    import subprocess

    import repro

    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (
        package_root
        if not env.get("PYTHONPATH")
        else package_root + os.pathsep + env["PYTHONPATH"]
    )
    argv = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--scale-child",
        "--nodes",
        str(nodes),
        "--gateways",
        str(gateways),
        "--days",
        str(days),
    ]
    if checkpoint_dir is not None:
        argv += ["--scale-checkpoints", checkpoint_dir]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def run_scalesweep(
    smoke: bool = False,
    out: pathlib.Path = SCALE_OUT,
    checkpoint_root: Optional[pathlib.Path] = None,
) -> Dict[str, object]:
    """Nodes-vs-RSS and nodes-vs-wall curves → BENCH_scale.json.

    Each point is a gateway-cell sharded, memory-diet run in its own
    subprocess; the report is flushed to ``out`` after every point, so
    the curve lands incrementally while the 50k x 1-year flagship (the
    last point) is still running.
    """
    points = [(300, 3, 2.0), (600, 4, 2.0)] if smoke else list(SCALE_POINTS)
    report: Dict[str, object] = {
        "profile": "scale-sweep-smoke" if smoke else "scale-sweep",
        "engine": "mesoscopic-sharded",
        "policy": "H-50",
        "seed": SCALE_PROFILE["seed"],
        "traffic": {
            "period_range_min": [
                SCALE_PROFILE["period_range_s"][0] / 60.0,
                SCALE_PROFILE["period_range_s"][1] / 60.0,
            ],
            "window_s": SCALE_PROFILE["window_s"],
            "channel_count": SCALE_PROFILE["channel_count"],
            "omega": SCALE_PROFILE["omega"],
        },
        "memory_profile": "diet",
        "workers": 1,
        "points": [],
    }
    for nodes, gateways, days in points:
        ckpt = None
        if checkpoint_root is not None:
            point_dir = checkpoint_root / f"scale_{nodes}"
            point_dir.mkdir(parents=True, exist_ok=True)
            ckpt = str(point_dir)
        capture = _spawn_scale_child(nodes, gateways, days, ckpt)
        report["points"].append(capture)
        _write(report, out)  # flush incrementally: the flagship is hours
    return report


def _write(report: Dict[str, object], out: pathlib.Path) -> None:
    from repro.ioutil import atomic_write_json

    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(str(out), report)


def test_bench_engines(benchmark, report_sink) -> None:
    """Pytest-harness entry: smoke profile, reported like other benches.

    Only the report sink's ``bench_engines.txt`` is written: the committed
    ``BENCH_obs.json`` is the ``--smoke`` CLI's output and stays as it is.
    """
    report = benchmark.pedantic(run_bench, args=(True,), rounds=1, iterations=1)
    report_sink("bench_engines", json.dumps(report, indent=2, sort_keys=True))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small configs (CI profile)"
    )
    parser.add_argument(
        "--long-horizon",
        action="store_true",
        help="multi-year incremental-degradation profile → BENCH_perf.json",
    )
    parser.add_argument(
        "--scale-sweep",
        action="store_true",
        help="sharded memory-diet scaling curves → BENCH_scale.json",
    )
    parser.add_argument(
        "--scale-child",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: one --scale-sweep point as JSON
    )
    parser.add_argument(
        "--gateways",
        type=int,
        default=4,
        help="gateway/shard count for a --scale-child point",
    )
    parser.add_argument(
        "--scale-checkpoints",
        type=pathlib.Path,
        default=None,
        help="checkpoint root for --scale-sweep points (crash resilience "
        "for the multi-hour flagship; omit to run checkpoint-free)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="node count (default: 200 long-horizon)",
    )
    parser.add_argument(
        "--days",
        type=float,
        default=None,
        help="simulated days (default: 730 long-horizon)",
    )
    parser.add_argument(
        "--before",
        type=pathlib.Path,
        default=None,
        help="baseline capture of the pre-optimization tree (JSON); "
        "defaults to the 'before' block of an existing BENCH_perf.json",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=f"output JSON path (default {DEFAULT_OUT} / {PERF_OUT})",
    )
    args = parser.parse_args(argv)
    if args.scale_child:
        print(
            json.dumps(
                run_scale_child(
                    nodes=args.nodes or 2_000,
                    gateways=args.gateways,
                    days=args.days or 14.0,
                    checkpoint_dir=(
                        str(args.scale_checkpoints)
                        if args.scale_checkpoints is not None
                        else None
                    ),
                ),
                sort_keys=True,
            )
        )
        return 0
    if args.scale_sweep:
        out = args.out or SCALE_OUT
        report = run_scalesweep(
            smoke=args.smoke, out=out, checkpoint_root=args.scale_checkpoints
        )
        _write(report, out)
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"[written to {out}]")
        return 0
    if args.long_horizon:
        out = args.out or PERF_OUT
        before: Optional[Dict[str, object]] = None
        if args.before is not None:
            before = json.loads(args.before.read_text())
        elif out.exists():
            before = json.loads(out.read_text()).get("before")
        report = run_longhorizon(
            nodes=args.nodes or 200, days=args.days or 730.0, before=before
        )
    else:
        out = args.out or DEFAULT_OUT
        report = run_bench(smoke=args.smoke)
    _write(report, out)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"[written to {out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
