"""Golden digests of both engines' outputs.

Every mesoscopic scenario below is pinned by sha256 digests of its
per-node metrics, packet log, monthly series, linear rates and (where
traced) its JSONL trace with wall-clock fields masked, plus its heap
counters.  Every exact-engine scenario (``EXACT_CONFIGS``) is pinned by
its per-node metrics, network counters, packet log, masked trace and
heap counters; it runs traced, untraced, and untraced without packets,
and all of those runs must agree.  The digests live in ``golden_digests.json``
next to this module; the tests compare fresh runs against them, so any
change to what an engine computes or emits shows up as a digest
mismatch.

Regenerate (only when a change of results is intended)::

    PYTHONPATH=src python -m tests.sim.golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import tempfile
from collections import Counter
from typing import Callable, Dict, Optional, Tuple

from repro.checkpoint.equivalence import VOLATILE_TRACE_FIELDS
from repro.checkpoint import resume
from repro.constants import SECONDS_PER_DAY
from repro.experiments.scenarios import fault_sweep, large_scale_base, testbed_base
from repro.faults import FaultPlan, NodeReboot
from repro.sim import (
    SimulationConfig,
    run_mesoscopic,
    run_simulation,
)
from repro.sim.sharded import run_sharded

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden_digests.json")


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(path: str) -> str:
    """Digest of a JSONL trace with the wall-clock fields removed."""
    lines = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            fields = event.get("fields", {})
            for key in VOLATILE_TRACE_FIELDS:
                fields.pop(key, None)
            lines.append(event)
    return _sha(lines)


def _node_metrics(result) -> list:
    return [
        [
            node_id,
            {
                key: sorted(value.items()) if isinstance(value, Counter) else value
                for key, value in vars(metrics).items()
            },
        ]
        for node_id, metrics in sorted(result.metrics.nodes.items())
    ]


def _packets(result) -> Optional[list]:
    log = result.packet_log
    if log is None:
        return None
    return [
        [dataclasses.astuple(record) for record in log],
        [log.generated, log.delivered, log.attempts, log.energy_drops],
    ]


def _heap(result) -> list:
    return [result.manifest.events_executed, result.manifest.peak_queue_depth]


def result_digests(result, trace_path: Optional[str] = None) -> Dict[str, object]:
    """The pinned outputs of one run (``trace`` only when traced)."""
    digests = {
        "metrics": _sha(_node_metrics(result)),
        "packets": _sha(_packets(result)),
        "monthly": _sha([vars(sample) for sample in result.monthly]),
        "rates": _sha(sorted(result.linear_rates.items())),
        "heap": _heap(result),
    }
    if trace_path is not None:
        digests["trace"] = trace_digest(trace_path)
    return digests


def exact_digests(result, trace_path: Optional[str] = None) -> Dict[str, object]:
    """The pinned outputs of one exact-engine run (``trace`` when traced)."""
    faults = result.fault_counters
    network = [
        result.uplinks_received,
        result.disseminations_sent,
        None if faults is None else sorted(faults.as_dict().items()),
    ]
    digests = {
        "metrics": _sha(_node_metrics(result)),
        "network": _sha(network),
        "packets": _sha(_packets(result)),
        "heap": _heap(result),
    }
    if trace_path is not None:
        digests["trace"] = trace_digest(trace_path)
    return digests


# -------------------------------------------------------------- scenarios


def vec_config(**overrides) -> SimulationConfig:
    defaults = dict(
        node_count=10,
        duration_s=2 * SECONDS_PER_DAY,
        period_range_s=(960.0, 2400.0),
        radius_m=4000.0,
        seed=11,
        record_packets=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def telemetry_config(**overrides) -> SimulationConfig:
    """The telemetry scale profile: 4-8 h periods, 300 s windows, diet."""
    defaults = dict(
        node_count=40,
        period_range_s=(240 * 60.0, 480 * 60.0),
        window_s=300.0,
        solar_peak_transmissions=10.0,
        channel_count=8,
        omega=8,
        memory_profile="diet",
    )
    defaults.update(overrides)
    return vec_config(**defaults).as_h(0.5)


def resume_config(**overrides) -> SimulationConfig:
    """The checkpoint-resume suite's mesoscopic run."""
    defaults = dict(
        node_count=5,
        duration_s=2.0 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=500.0,
        seed=11,
        record_packets=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


#: Traced single-simulator scenarios: name -> config.
CONFIGS: Dict[str, Callable[[], SimulationConfig]] = {
    **{
        f"h50-seed{seed}": (lambda seed=seed: vec_config(seed=seed).as_h(0.5))
        for seed in (5, 11, 23)
    },
    "lorawan": lambda: vec_config().as_lorawan(),
    "hc": lambda: vec_config().as_hc(0.5),
    "h100": lambda: vec_config().as_h(1.0),
    "jittered": lambda: vec_config(synchronized_start=False, seed=7).as_h(0.5),
    "noisy": lambda: vec_config(forecaster="noisy", seed=3).as_h(0.5),
    "persistence": lambda: vec_config(forecaster="persistence", seed=9).as_h(0.5),
    "empty-fault-plan": lambda: vec_config(faults=FaultPlan(seed=7)).as_h(0.5),
    "dense": lambda: vec_config(
        node_count=16,
        radius_m=500.0,
        period_range_s=(960.0, 1200.0),
        duration_s=SECONDS_PER_DAY,
    ).as_h(0.5),
    # A nearly empty battery: settle brown-outs, infeasible windows and
    # brown-out drops at resolution.
    "brownouts": lambda: vec_config(initial_soc=0.01, seed=5).as_h(1.0),
    "telemetry": telemetry_config,
    "telemetry-jittered": lambda: telemetry_config(synchronized_start=False, seed=7),
    "telemetry-refresh-7000": lambda: telemetry_config(dissemination_interval_s=7000.0),
    "short-windows": lambda: vec_config(
        window_s=300.0, period_range_s=(960.0, 1200.0)
    ).as_h(0.5),
    "diet-shaded": lambda: vec_config(
        memory_profile="diet",
        shading_sigma=0.3,
        sample_nodes=(0, 2),
        initial_soc=0.05,
        duration_s=3 * SECONDS_PER_DAY,
    ).as_h(0.5),
    "resume": resume_config,
}

#: Scenarios that write cadence checkpoints: name -> cadence (s).
CHECKPOINT_EVERY_S = {"resume": 0.37 * SECONDS_PER_DAY}


def with_checkpoints(config: SimulationConfig, directory: str, every_s) -> SimulationConfig:
    """``config`` checkpointing every ``every_s`` (if set) into a fresh
    subdirectory of ``directory``."""
    if every_s is None:
        return config
    return config.replace(
        checkpoint_every_s=every_s, checkpoint_dir=tempfile.mkdtemp(dir=directory)
    )


def run_traced(config: SimulationConfig, directory: str, name: str = "trace"):
    """Run ``config`` traced into ``directory``; returns (result, path)."""
    path = os.path.join(directory, f"{name}.jsonl")
    result = run_mesoscopic(config.replace(trace=True, trace_path=path))
    return result, path


# ------------------------------------------------------- exact engine


def exact_faults_config(**overrides) -> SimulationConfig:
    """The ``fault_sweep`` canonical point (20 % ACK loss, an outage, a
    reboot, a 3-day ``w_u`` TTL) on a small paper-style deployment,
    past its first degradation refresh."""
    base = large_scale_base(seed=1).replace(
        node_count=16,
        duration_s=1.2 * SECONDS_PER_DAY,
        forecaster="oracle",
        shading_sigma=0.2,
        record_packets=True,
    )
    return fault_sweep(base)["canonical"].replace(**overrides)


def exact_cohort_config(**overrides) -> SimulationConfig:
    """Equal periods from a synchronized boot: every period is one
    whole-network same-instant cohort.  Past the first day's refresh
    the nodes hold nonzero ``w_u``, so forecasts steer the windows."""
    defaults = dict(
        node_count=8,
        duration_s=1.6 * SECONDS_PER_DAY,
        period_range_s=(1200.0, 1200.0),
        radius_m=2000.0,
        seed=5,
        record_packets=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults).as_h(0.5)


def exact_testbed_config() -> SimulationConfig:
    """The Section IV-B testbed: 10 jittered nodes for 24 hours."""
    return testbed_base(seed=7).replace(record_packets=True).as_h(0.5)


#: Exact-engine scenarios: name -> config.
EXACT_CONFIGS: Dict[str, Callable[[], SimulationConfig]] = {
    "exact-faults": exact_faults_config,
    "exact-testbed": exact_testbed_config,
    "exact-cohort": exact_cohort_config,
    "exact-noisy": lambda: exact_cohort_config(forecaster="noisy", forecast_sigma=0.2),
    "exact-persistence": lambda: exact_cohort_config(forecaster="persistence", seed=9),
    "exact-corrupted": lambda: exact_cohort_config(
        faults=FaultPlan(forecast_corruption_sigma=0.3, seed=3)
    ),
    # A nearly empty battery at night: settle brown-outs, infeasible
    # windows and attempt brown-outs.
    "exact-brownouts": lambda: exact_cohort_config(initial_soc=0.01).as_h(1.0),
    "exact-brownouts-reboot": lambda: exact_cohort_config(
        initial_soc=0.01, faults=FaultPlan(reboot_on_brownout=True, seed=3)
    ).as_h(1.0),
    "exact-lorawan": lambda: exact_cohort_config().as_lorawan(),
    "exact-threshold": lambda: exact_cohort_config().as_hc(0.5),
    # A one-hour w_u TTL: most periods score a decayed weight, and the
    # reboot wipes node 3's weight mid-run (wu.stale_decay events).
    "exact-stale-weight": lambda: exact_cohort_config(
        w_u_ttl_s=3600.0,
        faults=FaultPlan(
            node_reboots=(NodeReboot(node_id=3, time_s=30000.0),), seed=3
        ),
    ),
    # Unsynchronized starts and mixed periods: mostly singleton cohorts.
    "exact-staggered": lambda: exact_cohort_config(
        synchronized_start=False, period_range_s=(900.0, 2400.0)
    ),
}

#: Exact scenarios that write cadence checkpoints: name -> cadence (s).
EXACT_CHECKPOINT_EVERY_S = {"exact-faults": 3 * 3600.0}


def run_exact(config: SimulationConfig, directory: str, every_s, name=None):
    """Run ``config`` on the exact engine (traced into ``directory`` as
    ``name``.jsonl when a name is given); returns (result, trace path,
    checkpoint directory)."""
    config = with_checkpoints(config, directory, every_s)
    path = None
    if name is not None:
        path = os.path.join(directory, f"{name}.jsonl")
        config = config.replace(trace=True, trace_path=path)
    return run_simulation(config), path, config.checkpoint_dir


def _without_packets(digests: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in digests.items() if k not in ("packets", "trace")}


def run_exact_scenario(name: str, directory: str) -> Tuple[object, Optional[str]]:
    """Run exact scenario ``name`` every way it can run; all must agree.

    It runs traced, untraced, and untraced without packets.
    ``exact-faults-resumed`` resumes each checkpointed variant from its
    newest snapshot.  Returns the traced run's (result, trace path).
    """
    resumed = name.endswith("-resumed")
    base = name[: -len("-resumed")] if resumed else name
    config = EXACT_CONFIGS[base]()
    every_s = EXACT_CHECKPOINT_EVERY_S.get(base)

    def run(config, traced=False):
        result, path, ckdir = run_exact(
            config, directory, every_s, name if traced else None
        )
        if resumed:
            newest = sorted(os.listdir(ckdir))[-1]
            sim, _ = resume(os.path.join(ckdir, newest))
            result = sim.run()
        return result, path

    traced, path = run(config, traced=True)
    expected = exact_digests(traced)
    untraced, _ = run(config)
    assert exact_digests(untraced) == expected, name
    result, _ = run(config.replace(record_packets=False))
    assert _without_packets(exact_digests(result)) == _without_packets(
        expected
    ), name
    return traced, path


EXACT_SCENARIOS = (*EXACT_CONFIGS, "exact-faults-resumed")


def run_scenario(name: str, directory: str) -> Tuple[object, Optional[str]]:
    """Run golden scenario ``name``; returns (result, trace path | None).

    Traced scenarios also run untraced, and the two must agree on every
    pinned output.
    """
    if name in EXACT_SCENARIOS:
        return run_exact_scenario(name, directory)
    if name == "sharded":
        # Sharded runs refuse tracing; their results are pinned untraced.
        from tests.sim.test_sharded import sharded_config

        return run_sharded(sharded_config(shards=2)), None
    config = CONFIGS[name]()
    every_s = CHECKPOINT_EVERY_S.get(name)
    traced, path = run_traced(
        with_checkpoints(config, directory, every_s), directory, name
    )
    untraced = run_mesoscopic(with_checkpoints(config, directory, every_s))
    assert result_digests(untraced) == result_digests(traced), name
    return traced, path


SCENARIOS = (*CONFIGS, "sharded", *EXACT_SCENARIOS)


def load() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def assert_golden(name: str, result, trace_path: Optional[str] = None) -> None:
    """Assert ``result`` (and its trace) reproduce the pinned digests."""
    expected = load()[name]
    digest = exact_digests if name in EXACT_SCENARIOS else result_digests
    got = digest(result, trace_path)
    assert got == expected, f"{name}: digests {got} != golden {expected}"


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in SCENARIOS:
            result, path = run_scenario(name, directory)
            digest = exact_digests if name in EXACT_SCENARIOS else result_digests
            digests[name] = digest(result, path)
            print(name, file=sys.stderr)
    with open(GOLDEN_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
