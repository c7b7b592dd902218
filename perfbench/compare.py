"""Compare two records written by ``run.py --out``.

Refuses (exit 2) when the records were taken on different kernel
backends or core counts, or for different workloads or trace modes:
their numbers are not comparable.  Otherwise prints each metric's
old and new value and their ratio, flags end-to-end metrics that got
worse by more than their ``BENCHMARK.json`` bound, and exits 1 if any
did.
"""

from __future__ import annotations

import json
import os

from run import ROOT

_SAME = ("workload", "trace")
_SAME_ENV = ("backend", "nproc")


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for key in _SAME:
        if old.get(key) != new.get(key):
            print(f"refusing to compare: {key} {old.get(key)!r} vs {new.get(key)!r}")
            return 2
    for key in _SAME_ENV:
        if old["env"].get(key) != new["env"].get(key):
            print(f"refusing to compare: {key} {old['env'].get(key)!r} vs {new['env'].get(key)!r}")
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    regressed = False
    print(f"{old['workload']}: {old['env'].get('revision')} -> {new['env'].get('revision')}")
    for name, metric in new["metrics"].items():
        before = old["metrics"].get(name, {}).get("value")
        after = metric["value"]
        if before is None:
            print(f"  {name:48s} {'-':>12s} {after:12.6g} {metric['unit']}")
            continue
        ratio = after / before if before else float("inf")
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            if worse > bound:
                verdict = f"  worse by more than {bound:.0%}"
                regressed = True
        print(f"  {name:48s} {before:12.6g} {after:12.6g} {metric['unit']:10s} x{ratio:.3f}{verdict}")
    return 1 if regressed else 0
