"""Fig. 8 — network battery lifespan (time until the first battery EoL).

Paper shape: LoRaWAN ≈ 2980 days (8.1 years) — 41 % lower than H-50's
13.86 years; H-50C lands in between.  We assert the ordering and that
H-50's relative gain lands in the paper's ballpark.
"""

from repro.experiments import fig8_network_lifespan, format_table


def test_fig8_network_lifespan(benchmark, paper_records, report_sink):
    lifespans = benchmark.pedantic(
        fig8_network_lifespan, args=(paper_records,), rounds=1, iterations=1
    )
    rows = [
        [policy, round(days), round(days / 365.0, 2)]
        for policy, days in lifespans.items()
    ]
    gain = lifespans["H-50"] / lifespans["LoRaWAN"] - 1.0
    rows.append(["H-50 vs LoRaWAN", f"+{gain * 100:.1f}%", ""])
    report_sink(
        "fig8_lifespan",
        format_table(
            ["policy", "lifespan (days)", "lifespan (years)"],
            rows,
            title="Fig. 8: network battery lifespan "
            "(paper: LoRaWAN 2980 d, H-50 13.86 y, +69.7 %)",
        ),
    )
    assert lifespans["H-50"] > lifespans["H-50C"] > lifespans["LoRaWAN"]
    assert 0.3 < gain < 1.5
