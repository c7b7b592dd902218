"""Ablation — sensitivity to green-energy forecast error.

The protocol consumes per-window harvest forecasts from an on-node model
([22] in the paper); this bench degrades the forecaster with increasing
multiplicative log-normal error and checks that the protocol's benefits
persist — it should be robust, since the DIF only needs the *relative*
ranking of windows, not exact joules.
"""

from repro.experiments import format_table, large_scale_base


def sweep_noise(ablation_records):
    base = large_scale_base(node_count=50, days=7.0)
    points = [
        (sigma, base.as_h(0.5).replace(forecast_sigma=sigma))
        for sigma in (0.0, 0.15, 0.3, 0.6)
    ]
    points.append(("LoRaWAN", base.as_lorawan()))
    rows = []
    for sigma, config in points:
        record = ablation_records[config]
        rows.append(
            {
                "sigma": sigma,
                "avg_prr": record.summary["avg_prr"],
                "avg_utility": record.summary["avg_utility"],
                "lifespan_days": record.lifespan_days,
            }
        )
    return rows


def test_ablation_forecast_noise(benchmark, ablation_records, report_sink):
    rows = benchmark.pedantic(
        sweep_noise, args=(ablation_records,), rounds=1, iterations=1
    )
    report_sink(
        "ablation_forecast_noise",
        format_table(
            ["forecast sigma", "avg PRR", "avg utility", "lifespan (days)"],
            [
                [r["sigma"], round(r["avg_prr"], 4), round(r["avg_utility"], 4), round(r["lifespan_days"])]
                for r in rows
            ],
            title="Ablation: forecast error robustness (H-50 vs LoRaWAN floor)",
        ),
    )
    lorawan = rows[-1]
    for row in rows[:-1]:
        # Even with 60 % forecast error H-50 must beat LoRaWAN's lifespan.
        assert row["lifespan_days"] > lorawan["lifespan_days"] * 1.2
        assert row["avg_prr"] > 0.9
