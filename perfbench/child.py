"""One simulation in a fresh process; prints one JSON line.

Run by ``run.py`` as ``python3 child.py <workload> <seed> <size> <trace>
<flush_dir>`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
The JSON line carries ``setup_s`` (first statement to the end of the
engine's build phase), ``wall_s`` (set-up, run and finalize), the peak
RSS of this process and its reaped children, the output digest, the
environment record and -- with tracing on -- the per-layer counters.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


def digest(result) -> str:
    """SHA-256 of the per-node metrics, monthly series and rates."""
    nodes = []
    for node_id, metrics in sorted(result.metrics.nodes.items()):
        row = {
            key: sorted(value.items()) if isinstance(value, Counter) else value
            for key, value in vars(metrics).items()
        }
        nodes.append([node_id, row])
    doc = {
        "nodes": nodes,
        "monthly": [vars(sample) for sample in getattr(result, "monthly", [])],
        "rates": sorted(getattr(result, "linear_rates", {}).items()),
        "faults": vars(result.fault_counters) if getattr(result, "fault_counters", None) else None,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # KiB on Linux


def simulate(workload, config):
    """Build and run one simulation; returns ``(result, setup_s)``."""
    if workload.engine == "meso":
        from repro.sim.mesoscopic import MesoscopicSimulator

        sim = MesoscopicSimulator(config)
        setup_s = time.perf_counter() - _T0
        return sim.run(), setup_s
    if workload.engine == "exact":
        from repro.sim.engine import Simulator

        from workloads import with_checkpoints

        config = with_checkpoints(config)
        try:
            sim = Simulator(config)
            setup_s = time.perf_counter() - _T0
            return sim.run(), setup_s
        finally:
            shutil.rmtree(config.checkpoint_dir, ignore_errors=True)
    from repro.sim.sharded import run_sharded

    from workloads import shard_workers

    started = time.perf_counter()
    result = run_sharded(config, workers=shard_workers())
    # The build phase (topology, cell partition, border maps) is the
    # first thing run_sharded does; it ends inside the call.
    setup_s = started - _T0 + result.manifest.phase_timings_s["build"]
    return result, setup_s


def environment() -> dict:
    import numpy

    from repro.kernels import backend

    from workloads import nproc

    return {
        "backend": backend(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv) -> int:
    name, seed, size, trace, flush_dir = argv[1], int(argv[2]), argv[3], argv[4] == "1", argv[5]
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    config = workload.config(size, seed)
    tracer = None
    if trace:
        import layers

        tracer = layers.install(flush_dir)
    result, setup_s = simulate(workload, config)
    wall_s = time.perf_counter() - _T0
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "node_days": workload.node_days(size),
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(result),
        "env": environment(),
    }
    if tracer is not None:
        import layers

        record["layers"] = tracer.stats
        record["worker_layers"] = layers.collect_workers(flush_dir)
        if workload.engine == "sharded":
            from workloads import shard_workers

            record["workers"] = shard_workers()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
