"""Ablation — the degradation-importance weight w_b.

The paper notes latency "is configurable by the weight w_b.  Low values
of w_b result in a lower latency at the cost of a lower battery
lifespan."  This bench sweeps w_b for H-50 and reports the trade-off
curve (not a paper figure; it ablates a design choice DESIGN.md calls
out).
"""

from repro.experiments import format_table, large_scale_base


def sweep_wb(ablation_records):
    base = large_scale_base(node_count=50, days=7.0).as_h(0.5)
    rows = []
    for w_b in (0.0, 0.25, 0.5, 1.0):
        record = ablation_records[base.replace(w_b=w_b)]
        rows.append(
            {
                "w_b": w_b,
                "avg_latency_s": record.summary["avg_latency_s"],
                "avg_utility": record.summary["avg_utility"],
                "lifespan_days": record.lifespan_days,
            }
        )
    return rows


def test_ablation_wb(benchmark, ablation_records, report_sink):
    rows = benchmark.pedantic(
        sweep_wb, args=(ablation_records,), rounds=1, iterations=1
    )
    report_sink(
        "ablation_wb",
        format_table(
            ["w_b", "avg latency (s)", "avg utility", "lifespan (days)"],
            [
                [r["w_b"], round(r["avg_latency_s"], 1), round(r["avg_utility"], 4), round(r["lifespan_days"])]
                for r in rows
            ],
            title="Ablation: degradation weight w_b (H-50) — "
            "latency vs battery lifespan trade-off",
        ),
    )
    by_wb = {r["w_b"]: r for r in rows}
    # Full degradation awareness must not shorten lifespan...
    assert by_wb[1.0]["lifespan_days"] >= by_wb[0.0]["lifespan_days"] * 0.98
    # ...and disabling it must not slow packets down.
    assert by_wb[0.0]["avg_latency_s"] <= by_wb[1.0]["avg_latency_s"] * 1.25
