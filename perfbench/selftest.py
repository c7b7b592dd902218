"""Harness self-test: every workload at its tiny size, untraced and traced.

Checks that ``BENCHMARK.json`` names exactly the metrics the harness
emits and only workloads it has, that every end-to-end and per-layer metric is present, that the
traced run's counters pass :func:`metrics.check_trace` (expected layers
reached, self time within wall time, worker spans collected), and that
the traced digest equals the untraced one -- wrapping the layers from
outside must change no result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
from typing import List

import run
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES, check_trace


def _benchmark_json_problems() -> List[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOAD_NAMES]
    if unknown:
        problems.append(f"BENCHMARK.json names workloads the harness lacks: {unknown}")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", None)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if emitted is None:
            expected = {name: (m["unit"], m["better"]) for name, m in PER_LAYER.items()}
        else:
            expected = {m["name"]: (m["unit"], m["better"]) for m in emitted}
        if declared != expected:
            problems.append(f"BENCHMARK.json {key} differs: {sorted(set(declared) ^ set(expected))}")
    return problems


def self_test() -> int:
    problems = _benchmark_json_problems()
    with run.scratch_dir("selftest") as work_dir:
        for workload in WORKLOAD_NAMES:
            try:
                plain = run.run_child(workload, run.DEFAULT_SEED, "tiny", False, work_dir)
                traced = run.run_child(workload, run.DEFAULT_SEED, "tiny", True, work_dir)
            except run.ChildFailed as exc:
                problems.append(str(exc))
                continue
            found = [f"{workload}: {p}" for p in check_trace(workload, traced)]
            if plain["digest"] != traced["digest"]:
                found.append(f"{workload}: tracing changed the digest")
            e2e = run.end_to_end([plain])
            layers = run.per_layer([plain], [traced])
            missing = [m["name"] for m in END_TO_END if m["name"] not in e2e]
            missing += [name for name in PER_LAYER if name not in layers]
            if missing:
                found.append(f"{workload}: metrics missing {missing}")
            print(f"{workload:18s} {'ok' if not found else 'FAILED'}  wall {plain['wall_s']:.2f} s "
                  f"traced {traced['wall_s']:.2f} s  digest {plain['digest'][:12]}")
            problems.extend(found)
    for problem in problems:
        print(f"  problem: {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 0 if not problems else 1
