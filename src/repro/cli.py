"""Command-line interface: ``python -m repro <command>``.

Four commands cover the common workflows:

* ``simulate`` — run one configuration under one MAC policy and print
  the paper's metrics plus the extrapolated battery lifespan.  The
  observability flags (``--trace``, ``--trace-out``, ``--metrics-out``,
  ``--manifest-out``, ``--json``) expose the ``repro.obs`` layer.
* ``figure`` — regenerate one of the paper's figures/tables by id
  (``2``-``9`` or ``table1``) and print its rows/series.
* ``replicates`` — run LoRaWAN and H-θ across several seeds and print
  the paired lifespan gain with a 95 % confidence interval.
* ``sweep`` — fan a (policy × config-axis × seed) grid across
  multiprocessing workers and aggregate per-run records into one
  ``SWEEP.json`` (deterministic merge; see docs/PERFORMANCE.md).
  Self-healing flags (``--timeout``, ``--max-retries``,
  ``--checkpoint-dir``, ``--resume``) are documented in
  docs/ROBUSTNESS.md.
* ``resume`` — continue an interrupted ``simulate`` run from its newest
  checkpoint (bit-identical to the uninterrupted run).
* ``trace`` — pretty-print / filter a JSONL trace written by
  ``simulate --trace-out``; ``--follow`` streams new events live
  (``tail -f`` semantics).
* ``serve`` — the long-running simulation service: an asyncio HTTP API
  that accepts simulate/sweep specs, runs them through this same CLI in
  supervised subprocesses, and exposes live progress, NDJSON event
  streams, and a Prometheus ``/metrics`` scrape (docs/SERVICE.md).

``simulate``, ``resume`` and ``sweep`` install SIGINT/SIGTERM handlers:
a signal stops the run at the next event boundary, writes a rescue
checkpoint (when ``--checkpoint-dir`` is set), flushes the trace sink
and exits with the conventional ``128 + signum`` code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .checkpoint import interrupt as _interrupt
from .constants import SECONDS_PER_DAY
from .exceptions import CheckpointError, ConfigurationError, SimulationInterrupted
from .faults import FaultPlan
from .ioutil import atomic_write_text
from .obs import CATEGORIES, SEVERITIES, filter_events, format_event, iter_jsonl
from .sim import SimulationConfig, run_mesoscopic, run_simulation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Battery lifespan-aware LoRa MAC (ICDCS 2024) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one simulation")
    simulate.add_argument("--nodes", type=int, default=50)
    simulate.add_argument("--days", type=float, default=7.0)
    simulate.add_argument(
        "--gateways", type=int, default=1,
        help="gateway count (each gateway anchors one contention cell)",
    )
    simulate.add_argument(
        "--policy",
        choices=("lorawan", "h", "hc"),
        default="h",
        help="lorawan = pure ALOHA; h = proposed MAC; hc = θ cap only",
    )
    simulate.add_argument("--theta", type=float, default=0.5, help="SoC cap θ")
    simulate.add_argument("--w-b", type=float, default=1.0, dest="w_b")
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--engine",
        choices=("meso", "exact"),
        default="meso",
        help="meso = fast mesoscopic runner; exact = event-driven engine",
    )
    simulate.add_argument(
        "--faults",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "fault-injection spec (exact engine), e.g. "
            "'ack_loss=0.2,burst=0.05/0.3,outage=43200+3600,"
            "reboot=3@86400,clock_skew=0.5,forecast_sigma=0.3,seed=7'"
        ),
    )
    simulate.add_argument(
        "--w-u-ttl-days",
        type=float,
        default=None,
        dest="w_u_ttl_days",
        help="TTL (days) before nodes decay a stale disseminated w_u (exact engine)",
    )
    simulate.add_argument(
        "--memory-profile",
        choices=("exact", "diet"),
        default="exact",
        dest="memory_profile",
        help=(
            "diet = compact SoC traces, capped caches, counter-only "
            "packet logs outside --sample-nodes (multi-year memory diet)"
        ),
    )
    simulate.add_argument(
        "--sample-nodes",
        type=str,
        default=None,
        metavar="ID1,ID2,…",
        dest="sample_nodes",
        help="node ids that keep full per-packet rows under --memory-profile diet",
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "partition the topology by gateway cell and run each shard "
            "in its own process (meso engine; <= gateway count)"
        ),
    )
    simulate.add_argument(
        "--shard-workers",
        type=int,
        default=1,
        dest="shard_workers",
        help="concurrent shard worker processes (with --shards)",
    )
    simulate.add_argument(
        "--dist-listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        dest="dist_listen",
        help=(
            "listen for repro worker agents and lease shard cells to "
            "them instead of local processes (requires --shards; "
            "port 0 picks an ephemeral port, printed on stderr)"
        ),
    )
    simulate.add_argument(
        "--min-workers",
        type=int,
        default=1,
        dest="min_workers",
        help="wait for this many connected workers before dispatching",
    )
    simulate.add_argument(
        "--trace",
        action="store_true",
        help="record structured trace events (in-memory ring buffer)",
    )
    simulate.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="stream trace events to a JSONL file (implies --trace)",
    )
    simulate.add_argument(
        "--trace-categories",
        type=str,
        default=None,
        metavar="CATS",
        help=(
            "comma-separated event categories to record "
            f"(subset of {','.join(CATEGORIES)})"
        ),
    )
    simulate.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run's metrics registry (.json → JSON, else Prometheus text)",
    )
    simulate.add_argument(
        "--manifest-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run manifest JSON (defaults next to --trace-out)",
    )
    simulate.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        dest="checkpoint_dir",
        help="write periodic crash-safe checkpoints into this directory",
    )
    simulate.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="DAYS",
        dest="checkpoint_every",
        help="checkpoint cadence in days (default 1 with --checkpoint-dir)",
    )
    simulate.add_argument(
        "--profile-hot",
        action="store_true",
        dest="profile_hot",
        help=(
            "time every hot-loop kernel invocation and print the ranked "
            "per-kernel table (counters also land in --metrics-out)"
        ),
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one machine-readable JSON object instead of text",
    )

    resume = sub.add_parser(
        "resume", help="resume an interrupted run from a checkpoint"
    )
    resume.add_argument(
        "path",
        help="checkpoint file, or a checkpoint directory (newest wins)",
    )
    resume.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run's metrics registry (.json → JSON, else Prometheus text)",
    )
    resume.add_argument(
        "--manifest-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run manifest JSON",
    )
    resume.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one machine-readable JSON object instead of text",
    )

    trace = sub.add_parser(
        "trace", help="pretty-print / filter a JSONL trace file"
    )
    trace.add_argument("path", help="JSONL trace written by simulate --trace-out")
    trace.add_argument(
        "--category",
        action="append",
        choices=CATEGORIES,
        default=None,
        help="keep only these categories (repeatable)",
    )
    trace.add_argument("--node", type=int, default=None, help="keep one node's events")
    trace.add_argument(
        "--name", type=str, default=None, help="keep events whose name contains this"
    )
    trace.add_argument(
        "--min-severity",
        choices=tuple(SEVERITIES),
        default="debug",
        help="drop events below this severity",
    )
    trace.add_argument("--since", type=float, default=None, metavar="SECONDS")
    trace.add_argument("--until", type=float, default=None, metavar="SECONDS")
    trace.add_argument(
        "--limit", type=int, default=None, help="stop after this many events"
    )
    trace.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="re-emit the matching events as JSONL instead of text",
    )
    trace.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help=(
            "keep the file open and stream events as they are appended "
            "(tail -f); waits for the file if it does not exist yet"
        ),
    )
    trace.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        dest="poll_interval",
        help="how often --follow polls the file for new lines",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument(
        "id",
        choices=("2", "3", "4", "5", "6", "7", "8", "9", "table1"),
        help="paper figure number or 'table1'",
    )

    replicates = sub.add_parser(
        "replicates", help="multi-seed comparison with confidence intervals"
    )
    replicates.add_argument("--nodes", type=int, default=30)
    replicates.add_argument("--days", type=float, default=5.0)
    replicates.add_argument("--theta", type=float, default=0.5)
    replicates.add_argument("--seeds", type=int, default=5, help="number of seeds")

    sweep = sub.add_parser(
        "sweep", help="parallel (policy × axis × seed) grid of runs"
    )
    sweep.add_argument("--nodes", type=int, default=30)
    sweep.add_argument("--days", type=float, default=5.0)
    sweep.add_argument(
        "--gateways", type=int, default=1,
        help="gateway count for every run in the grid",
    )
    sweep.add_argument(
        "--engine", choices=("meso", "exact"), default="meso",
        help="engine used for every run in the grid",
    )
    sweep.add_argument(
        "--policies", type=str, default="h",
        help="comma-separated policy variants: lorawan, h, hc",
    )
    sweep.add_argument("--theta", type=float, default=0.5, help="SoC cap θ")
    sweep.add_argument(
        "--seeds", type=int, default=3,
        help="number of seeds (1..N); overridden by --seed-list",
    )
    sweep.add_argument(
        "--seed-list", type=str, default=None, metavar="S1,S2,…",
        dest="seed_list", help="explicit comma-separated seed values",
    )
    sweep.add_argument(
        "--axis", action="append", default=None, metavar="FIELD=V1,V2,…",
        help="config-field override axis (repeatable; cartesian product)",
    )
    sweep.add_argument(
        "--memory-profile", choices=("exact", "diet"), default="exact",
        dest="memory_profile",
        help="memory profile applied to every run in the grid",
    )
    sweep.add_argument(
        "--sample-nodes", type=str, default=None, metavar="ID1,ID2,…",
        dest="sample_nodes",
        help="node ids keeping full per-packet rows under diet runs",
    )
    sweep.add_argument(
        "--shards", type=int, default=None,
        help="gateway-cell shards per run (meso engine; <= gateway count)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results identical either way)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        dest="timeout_s",
        help="per-run wall-clock budget; stuck workers are killed and retried",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=0, dest="max_retries",
        help="retries per run after a worker crash or timeout",
    )
    sweep.add_argument(
        "--checkpoint-dir", type=str, default=None, metavar="DIR",
        dest="checkpoint_dir",
        help="per-run checkpoint root; retries resume from the newest snapshot",
    )
    sweep.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="DAYS",
        dest="checkpoint_every",
        help="checkpoint cadence in days (default 1 with --checkpoint-dir)",
    )
    sweep.add_argument(
        "--resume", type=str, default=None, metavar="REPORT",
        dest="resume_report",
        help="re-run only the unfinished cells of a previous SWEEP.json",
    )
    sweep.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="write the aggregated SWEEP.json here (default: the --resume report)",
    )
    sweep.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the SWEEP.json document instead of the text summary",
    )
    sweep.add_argument(
        "--progress-out", type=str, default=None, metavar="PATH",
        dest="progress_out",
        help=(
            "append one NDJSON record per finished cell, flushed live "
            "(what repro serve tails for sweep-wide metrics)"
        ),
    )
    sweep.add_argument(
        "--trace-dir", type=str, default=None, metavar="DIR",
        dest="trace_dir",
        help=(
            "per-cell JSONL event traces into DIR/run_<index>.jsonl "
            "(results stay bit-identical; repro serve streams these)"
        ),
    )
    sweep.add_argument(
        "--dist-listen", type=str, default=None, metavar="HOST:PORT",
        dest="dist_listen",
        help=(
            "lease every run's shard cells to connected repro worker "
            "agents (requires --shards; incompatible with --workers > 1)"
        ),
    )
    sweep.add_argument(
        "--min-workers", type=int, default=1, dest="min_workers",
        help="wait for this many connected workers before dispatching",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio simulation service (HTTP API + /metrics)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--data-dir", type=str, default="repro-service", dest="data_dir",
        help="root directory for per-run artifacts (specs, reports, traces)",
    )
    serve.add_argument(
        "--max-parallel", type=int, default=1, dest="max_parallel",
        help="how many submitted runs may execute concurrently",
    )
    serve.add_argument(
        "--checkpoint-every", type=float, default=1.0, metavar="DAYS",
        dest="checkpoint_every",
        help="checkpoint cadence armed on every submitted run (days)",
    )
    serve.add_argument(
        "--max-queued", type=int, default=None, dest="max_queued",
        help=(
            "bound on queued (not yet running) runs; further POST /runs "
            "submissions get 429 until the queue drains"
        ),
    )

    worker = sub.add_parser(
        "worker",
        help="join a coordinator as a dist shard worker (docs/DISTRIBUTED.md)",
    )
    worker.add_argument(
        "--connect", type=str, required=True, metavar="HOST:PORT",
        help="coordinator address (repro simulate/sweep --dist-listen)",
    )
    worker.add_argument(
        "--name", type=str, default=None,
        help="worker name for logs and metrics (default: host-pid)",
    )
    worker.add_argument(
        "--slots", type=int, default=1,
        help="concurrent cell leases this worker accepts",
    )
    worker.add_argument(
        "--heartbeat", type=float, default=2.0, metavar="SECONDS",
        dest="heartbeat_s", help="heartbeat cadence",
    )
    worker.add_argument(
        "--reconnect-for", type=float, default=30.0, metavar="SECONDS",
        dest="reconnect_for_s",
        help="keep retrying a lost coordinator this long before exiting",
    )
    worker.add_argument(
        "--expect-config-hash", type=str, default=None,
        dest="expect_config_hash",
        help="refuse to serve a coordinator running a different config",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    faults = None
    spec = getattr(args, "faults", None)
    if spec:
        faults = FaultPlan.from_spec(spec)
    ttl_days = getattr(args, "w_u_ttl_days", None)
    categories = getattr(args, "trace_categories", None)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    every_days = getattr(args, "checkpoint_every", None)
    if checkpoint_dir is not None and every_days is None:
        every_days = 1.0
    sample_spec = getattr(args, "sample_nodes", None)
    sample_nodes = (
        None
        if sample_spec is None
        else tuple(int(t) for t in str(sample_spec).split(",") if t.strip())
    )
    base = SimulationConfig(
        memory_profile=getattr(args, "memory_profile", "exact"),
        sample_nodes=sample_nodes,
        shards=getattr(args, "shards", None),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_s=(
            None if every_days is None else every_days * SECONDS_PER_DAY
        ),
        node_count=args.nodes,
        gateway_count=getattr(args, "gateways", 1),
        duration_s=args.days * SECONDS_PER_DAY,
        w_b=getattr(args, "w_b", 1.0),
        seed=args.seed,
        faults=faults,
        w_u_ttl_s=None if ttl_days is None else ttl_days * SECONDS_PER_DAY,
        trace=getattr(args, "trace", False),
        trace_path=getattr(args, "trace_out", None),
        trace_categories=(
            None
            if categories is None
            else tuple(c.strip() for c in categories.split(",") if c.strip())
        ),
    )
    if args.policy == "lorawan":
        return base.as_lorawan()
    if args.policy == "hc":
        return base.as_hc(args.theta)
    return base.as_h(args.theta)


def _default_manifest_path(trace_out: str) -> str:
    if trace_out.endswith(".jsonl"):
        return trace_out[: -len(".jsonl")] + ".manifest.json"
    return trace_out + ".manifest.json"


def _write_metrics(path: str, registry) -> None:
    """Atomically export a metrics registry (JSON or Prometheus text)."""
    if path.endswith(".json"):
        atomic_write_text(path, registry.to_json_text())
    else:
        atomic_write_text(path, registry.to_prometheus())


def _interrupted_exit(exc: SimulationInterrupted) -> int:
    """Report a graceful signal stop and map it to ``128 + signum``."""
    print(f"interrupted at t={exc.time_s:.3f}s", file=sys.stderr)
    if exc.checkpoint_path is not None:
        print(
            f"checkpoint written to {exc.checkpoint_path} "
            "(continue with: repro resume <path>)",
            file=sys.stderr,
        )
    return 128 + (exc.signum if exc.signum is not None else 2)


def _start_dist_server(listen: str, min_workers: int):
    """Bind the coordinator socket and announce it on stderr.

    The listening line goes to stderr, flushed, so ``--json`` stdout
    stays machine-readable and scripts can scrape the ephemeral port.
    """
    from .dist import DistServer, DistTransport

    host, _, port_text = listen.rpartition(":")
    if not host or not port_text.lstrip("-").isdigit():
        raise ConfigurationError(
            f"--dist-listen expects HOST:PORT, got {listen!r}"
        )
    server = DistServer(host, int(port_text))
    print(
        f"dist: listening on {server.bound_host}:{server.bound_port} "
        f"(waiting for {min_workers} worker(s))",
        file=sys.stderr,
        flush=True,
    )
    return server, DistTransport(server, min_workers=min_workers)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("--checkpoint-every requires --checkpoint-dir", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    engine = args.engine
    notices: List[str] = []
    # The mesoscopic runner has no event boundaries to inject faults at
    # and never ages a disseminated w_u.
    exact_flag = (
        "a --faults spec" if config.faults is not None
        else "a --w-u-ttl-days value" if config.w_u_ttl_s is not None
        else None
    )
    if exact_flag is not None and engine != "exact":
        notices.append(f"{exact_flag} needs the exact engine: switching to it")
        engine = "exact"
    if engine == "exact" and config.memory_profile == "diet":
        reason = f" ({exact_flag} selects it)" if exact_flag is not None else ""
        print(
            f"--memory-profile diet needs the meso engine; the exact "
            f"engine{reason} keeps full per-node state",
            file=sys.stderr,
        )
        return 2
    if engine == "exact" and config.shards is not None:
        # The exact engine is a single event loop; sharding is a
        # mesoscopic decomposition.  Results are unaffected either way.
        notices.append("--shards ignored by the exact engine")
        config = config.replace(shards=None)
    if args.dist_listen is not None and (
        engine != "meso" or config.shards is None
    ):
        print(
            "--dist-listen requires the meso engine with --shards "
            "(cells are the unit of distribution)",
            file=sys.stderr,
        )
        return 2
    server = transport = None
    if args.dist_listen is not None:
        try:
            server, transport = _start_dist_server(
                args.dist_listen, args.min_workers
            )
        except (ConfigurationError, OSError) as exc:
            print(f"cannot listen for workers: {exc}", file=sys.stderr)
            return 2
    profile_hot = getattr(args, "profile_hot", False)
    prof = None
    if profile_hot:
        from .obs import hot_profiler

        prof = hot_profiler()
        prof.reset()
        prof.enable()
    _interrupt.install()
    try:
        if engine == "exact":
            result = run_simulation(config)
            lifespan = None
        else:
            result = run_mesoscopic(
                config,
                shard_workers=getattr(args, "shard_workers", 1),
                transport=transport,
            )
            lifespan = result.network_lifespan_days()
    except SimulationInterrupted as exc:
        return _interrupted_exit(exc)
    finally:
        if prof is not None:
            prof.disable()
        if server is not None:
            server.shutdown()

    manifest = result.manifest
    manifest_out = args.manifest_out
    if manifest_out is None and args.trace_out is not None:
        manifest_out = _default_manifest_path(args.trace_out)
    if manifest_out is not None and manifest is not None:
        manifest.write(manifest_out)
    if prof is not None and result.obs is not None:
        # The per-kernel counters ride along in the registry export.
        prof.publish(result.obs.metrics)
    if args.metrics_out is not None and result.obs is not None:
        _write_metrics(args.metrics_out, result.obs.metrics)

    summary = result.metrics.summary()
    if args.as_json:
        payload = {
            "policy": config.policy_name,
            "engine": engine,
            "nodes": config.node_count,
            "days": config.duration_s / SECONDS_PER_DAY,
            "seed": config.seed,
            "metrics": summary,
        }
        if lifespan is not None:
            payload["lifespan_days"] = lifespan
        if config.faults is not None:
            payload["faults"] = config.faults.describe()
        if manifest is not None:
            payload["manifest"] = manifest.to_dict()
        if manifest_out is not None:
            payload["manifest_path"] = manifest_out
        if prof is not None:
            payload["hot_kernels"] = {"kernels": prof.stats}
        print(json.dumps(payload, sort_keys=True))
        return 0

    for notice in notices:
        print(notice)
    print(f"policy: {config.policy_name}  nodes: {config.node_count}  "
          f"days: {config.duration_s / SECONDS_PER_DAY:g}  engine: {engine}")
    if config.faults is not None:
        print(f"faults: {config.faults.describe()}")
    for key, value in summary.items():
        print(f"  {key:28s} {value:.6g}")
    if lifespan is not None:
        print(f"  {'lifespan_days':28s} {lifespan:.6g}")
    # Timing lines only appear when observability output was requested:
    # the plain summary must stay bit-identical across repeated seeded runs.
    observing = (args.trace or args.trace_out is not None
                 or args.metrics_out is not None
                 or args.manifest_out is not None)
    if manifest is not None and observing:
        print(f"  {'wall_s':28s} {manifest.wall_s:.6g}")
        if manifest.sim_s_per_wall_s:
            print(f"  {'sim_s_per_wall_s':28s} {manifest.sim_s_per_wall_s:.6g}")
    if prof is not None:
        print(prof.render_table())
    if args.trace_out is not None:
        print(f"trace written to {args.trace_out}")
    if manifest_out is not None:
        print(f"manifest written to {manifest_out}")
    if args.metrics_out is not None:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .checkpoint import resume as resume_checkpoint

    _interrupt.install()
    try:
        sim, header = resume_checkpoint(args.path)
    except (CheckpointError, OSError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    engine = str(header.get("engine", "?"))
    if not args.as_json:
        print(
            f"resuming {engine} run from t={float(header['time_s']):g}s "
            f"(seed {header.get('seed')}, {header.get('node_count')} nodes)"
        )
    try:
        result = sim.run()
    except SimulationInterrupted as exc:
        return _interrupted_exit(exc)

    config = sim.config
    manifest = result.manifest
    if args.manifest_out is not None and manifest is not None:
        manifest.write(args.manifest_out)
    if args.metrics_out is not None and result.obs is not None:
        _write_metrics(args.metrics_out, result.obs.metrics)
    lifespan = (
        result.network_lifespan_days() if engine == "meso" else None
    )
    summary = result.metrics.summary()
    if args.as_json:
        payload = {
            "resumed_from_s": float(header["time_s"]),
            "policy": config.policy_name,
            "engine": engine,
            "nodes": config.node_count,
            "days": config.duration_s / SECONDS_PER_DAY,
            "seed": config.seed,
            "metrics": summary,
        }
        if lifespan is not None:
            payload["lifespan_days"] = lifespan
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"policy: {config.policy_name}  nodes: {config.node_count}  "
          f"days: {config.duration_s / SECONDS_PER_DAY:g}  engine: {engine}")
    for key, value in summary.items():
        print(f"  {key:28s} {value:.6g}")
    if lifespan is not None:
        print(f"  {'lifespan_days':28s} {lifespan:.6g}")
    if args.metrics_out is not None:
        print(f"metrics written to {args.metrics_out}")
    if args.manifest_out is not None:
        print(f"manifest written to {args.manifest_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.follow:
        from .obs import follow_events

        source = follow_events(args.path, poll_interval_s=args.poll_interval)
    else:
        source = iter_jsonl(args.path)
    events = filter_events(
        source,
        categories=args.category,
        node_id=args.node,
        name_substring=args.name,
        min_severity=args.min_severity,
        since_s=args.since,
        until_s=args.until,
    )
    shown = 0
    try:
        for event in events:
            print(
                event.to_json() if args.as_json else format_event(event),
                flush=args.follow,
            )
            shown += 1
            # break immediately at the limit — pulling one more event
            # first would block forever under --follow
            if args.limit is not None and shown >= args.limit:
                break
    except KeyboardInterrupt:
        # The conventional way out of tail -f; what was shown stands.
        pass
    if not args.as_json:
        print(f"{shown} event(s)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import experiments as ex
    from .sweep import run_sweep

    if args.id in ex.FIGURE_POLICIES:
        points = ex.policy_grid(ex.large_scale_base(), ex.FIGURE_POLICIES[args.id])
        records = run_sweep(points).records
    elif args.id == "9":
        records = run_sweep(ex.testbed_grid(ex.testbed_base()), engine="exact").records
    if args.id == "2":
        print(ex.format_series(ex.fig2_degradation_components(records), x_label="months", every=6))
    elif args.id == "3":
        outcome = ex.fig3_degradation_influence()
        rows = [
            [p, c["highest_degraded"] + 1, c["lowest_degraded"] + 1]
            for p, c in outcome.items()
        ]
        print(ex.format_table(["period", "highest-degraded", "lowest-degraded"], rows))
    elif args.id == "4":
        print(ex.format_histograms(ex.fig4_window_selection(records)))
    elif args.id == "5":
        print(ex.format_policy_metrics(ex.fig5_energy_and_degradation(records)))
    elif args.id == "6":
        print(ex.format_policy_metrics(ex.fig6_network_performance(records)))
    elif args.id == "7":
        print(ex.format_series(ex.fig7_max_degradation_by_month(records), x_label="month", every=12))
    elif args.id == "8":
        rows = [
            [name, round(days), round(days / 365.0, 2)]
            for name, days in ex.fig8_network_lifespan(records).items()
        ]
        print(ex.format_table(["policy", "days", "years"], rows))
    elif args.id == "9":
        print(ex.format_policy_metrics(ex.fig9_testbed(records)))
    else:  # table1
        rows = ex.measure_overhead()
        overhead = ex.relative_cpu_overhead(rows)
        table = [
            [r.policy, round(r.cpu_us_per_period, 2), r.peak_alloc_bytes, r.code_size_bytes]
            for r in rows.values()
        ]
        print(ex.format_table(["policy", "CPU µs/period", "alloc (B)", "code (B)"], table))
        print(f"relative CPU overhead: +{overhead * 100:.1f}%")
    return 0


def _sweep_spec_from_args(args: argparse.Namespace) -> dict:
    """The grid-defining CLI arguments, embedded in SWEEP.json."""
    return {
        "nodes": args.nodes,
        "days": args.days,
        "gateways": getattr(args, "gateways", 1),
        "policies": args.policies,
        "theta": args.theta,
        "seeds": args.seeds,
        "seed_list": args.seed_list,
        "axis": list(args.axis or ()),
        "memory_profile": getattr(args, "memory_profile", "exact"),
        "sample_nodes": getattr(args, "sample_nodes", None),
        "shards": getattr(args, "shards", None),
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import (
        READABLE_SCHEMAS,
        SCHEMA,
        RunRecord,
        grid_from_spec,
        interrupt_exit_code,
        run_sweep,
        summarize,
    )

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("--checkpoint-every requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.dist_listen is not None:
        if args.shards is None and args.resume_report is None:
            print(
                "--dist-listen requires --shards (cells are the unit of "
                "distribution)",
                file=sys.stderr,
            )
            return 2
        if args.workers > 1 or args.timeout_s is not None:
            print(
                "--dist-listen runs grid points serially in-process; drop "
                "--workers/--timeout (per-cell timeouts and retries are "
                "the dist scheduler's job)",
                file=sys.stderr,
            )
            return 2
    engine = args.engine
    existing = None
    out = args.out
    if args.resume_report is not None:
        try:
            with open(args.resume_report, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read sweep report: {exc}", file=sys.stderr)
            return 2
        if doc.get("schema") not in READABLE_SCHEMAS:
            print(
                f"cannot resume report with schema {doc.get('schema')!r} "
                f"(expected {SCHEMA!r})",
                file=sys.stderr,
            )
            return 2
        spec = doc.get("spec")
        if not spec:
            print(
                "sweep report has no embedded grid spec; re-run without --resume",
                file=sys.stderr,
            )
            return 2
        engine = str(doc.get("engine", engine))
        existing = {
            int(run["index"]): RunRecord.from_dict(run)
            for run in doc.get("runs", ())
            if run.get("status") in ("completed", "resumed")
        }
        if out is None:
            out = args.resume_report
    else:
        spec = _sweep_spec_from_args(args)

    try:
        points = grid_from_spec(spec)
    except (ConfigurationError, KeyError, ValueError) as exc:
        print(f"bad sweep grid: {exc}", file=sys.stderr)
        return 2
    if engine == "exact" and any(p.config.memory_profile == "diet" for p in points):
        print(
            "--memory-profile diet needs the meso engine; the exact engine "
            "keeps full per-node state",
            file=sys.stderr,
        )
        return 2
    every_days = args.checkpoint_every
    if args.checkpoint_dir is not None and every_days is None:
        every_days = 1.0
    on_record = None
    progress_handle = None
    if args.progress_out is not None:
        directory = os.path.dirname(os.path.abspath(args.progress_out))
        os.makedirs(directory, exist_ok=True)
        progress_handle = open(args.progress_out, "a", encoding="utf-8")

        def on_record(record) -> None:
            # One NDJSON line per finished cell, flushed immediately so
            # a live tail (repro serve, tail -f) sees it right away.
            progress_handle.write(
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
            )
            progress_handle.flush()

    if args.trace_dir is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
    server = transport = None
    if args.dist_listen is not None:
        try:
            server, transport = _start_dist_server(
                args.dist_listen, args.min_workers
            )
        except (ConfigurationError, OSError) as exc:
            print(f"cannot listen for workers: {exc}", file=sys.stderr)
            return 2
    _interrupt.install()
    try:
        result = run_sweep(
            points,
            engine=engine,
            workers=args.workers,
            timeout_s=args.timeout_s,
            max_retries=args.max_retries,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_s=(
                None if every_days is None else every_days * SECONDS_PER_DAY
            ),
            existing=existing,
            spec=spec,
            on_record=on_record,
            trace_dir=args.trace_dir,
            transport=transport,
        )
    finally:
        if server is not None:
            server.shutdown()
        if progress_handle is not None:
            progress_handle.close()
    if out is not None:
        result.write(out)
    if args.as_json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(summarize(result))
        if out is not None:
            print(f"sweep manifest written to {out}")
    if result.interrupted:
        return interrupt_exit_code()
    return 1 if result.error_count else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import run_service

    return run_service(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        max_parallel=args.max_parallel,
        checkpoint_every_days=args.checkpoint_every,
        max_queued=args.max_queued,
    )


def _cmd_worker(args: argparse.Namespace) -> int:
    from .dist import run_worker

    try:
        return run_worker(
            args.connect,
            name=args.name,
            slots=args.slots,
            heartbeat_s=args.heartbeat_s,
            reconnect_for_s=args.reconnect_for_s,
            expect_config_hash=args.expect_config_hash,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_replicates(args: argparse.Namespace) -> int:
    from .experiments.statistics import compare_lifespans, summarize_replicates
    from .sweep import build_grid, run_sweep

    base = SimulationConfig(
        node_count=args.nodes, duration_s=args.days * SECONDS_PER_DAY
    )
    seeds = range(1, args.seeds + 1)
    print(f"running {args.seeds} seeds × 2 policies …")
    variants = [("LoRaWAN", base.as_lorawan()), ("H", base.as_h(args.theta))]
    records = run_sweep(build_grid(variants, seeds)).records
    lorawan = summarize_replicates(records[: args.seeds])
    h_theta = summarize_replicates(records[args.seeds :])
    for name, summary in (("LoRaWAN", lorawan), (f"H-{round(args.theta * 100)}", h_theta)):
        lifespan = summary.metric("lifespan_days")
        prr = summary.metric("avg_prr")
        print(f"{name:8s} lifespan {lifespan.mean:7.0f} ± {lifespan.half_width_95:5.0f} d"
              f"   PRR {prr.mean:.4f} ± {prr.half_width_95:.4f}")
    gain = compare_lifespans(lorawan, h_theta)
    print(
        f"paired lifespan gain: +{gain.mean * 100:.1f}% "
        f"± {gain.half_width_95 * 100:.1f}% (95% CI, paper: +69.7%)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_replicates(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
