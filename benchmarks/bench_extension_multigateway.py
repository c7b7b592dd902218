"""Extension — gateway densification.

The paper's system model allows "one or more gateways"; its evaluation
uses one.  This bench adds gateways to a wide (9 km radius,
distance-based SF) deployment and reports coverage (PRR), the SF mix
(closer gateways → faster SFs → less airtime), and battery lifespan —
showing how infrastructure density and the lifespan-aware MAC compose.
"""

from repro.experiments import format_table, large_scale_base, require_ok
from repro.sim import build_topology
from repro.sweep import build_grid, expand_axes, run_sweep


def sweep_gateways():
    base = large_scale_base(node_count=60, days=4.0).replace(
        radius_m=9000.0,
        path_loss_exponent=3.2,
        fixed_sf=None,  # distance-based SF assignment
    )
    points = build_grid(
        expand_axes(base.as_h(0.5), [("gateway_count", [1, 2, 4])]), [base.seed]
    )
    records = run_sweep(points).records
    require_ok(records)
    rows = []
    for point, record in zip(points, records):
        sf_mean = sum(
            int(placement.spreading_factor)
            for placement in build_topology(point.config)
        ) / 60.0
        rows.append(
            {
                "gateways": point.config.gateway_count,
                "avg_prr": record.summary["avg_prr"],
                "min_prr": record.summary["min_prr"],
                "mean_sf": sf_mean,
                "lifespan_days": record.lifespan_days,
            }
        )
    return rows


def test_extension_multigateway(benchmark, report_sink):
    rows = benchmark.pedantic(sweep_gateways, rounds=1, iterations=1)
    report_sink(
        "extension_multigateway",
        format_table(
            ["gateways", "avg PRR", "min PRR", "mean SF", "lifespan (days)"],
            [
                [
                    r["gateways"],
                    round(r["avg_prr"], 4),
                    round(r["min_prr"], 4),
                    round(r["mean_sf"], 2),
                    round(r["lifespan_days"]),
                ]
                for r in rows
            ],
            title="Extension: gateway densification on a 9 km H-50 deployment",
        ),
    )
    by_gw = {r["gateways"]: r for r in rows}
    # Densification must not hurt coverage, and lowers the SF mix.
    assert by_gw[4]["avg_prr"] >= by_gw[1]["avg_prr"] - 1e-9
    assert by_gw[4]["mean_sf"] <= by_gw[1]["mean_sf"]
