"""Fig. 5 — avg RETX attempts, TX energy, and battery degradation vs θ.

Paper shape: every H variant cuts RETX and TX energy vs LoRaWAN (H-50 by
~70 %); H-50 cuts mean degradation ~22 % and its variance ~91 %; H-100's
mean degradation matches LoRaWAN (θ = 1 does not fix calendar aging);
H-5 has the lowest degradation of all.
"""

from repro.experiments import fig5_energy_and_degradation, format_policy_metrics


def test_fig5_energy_and_degradation(benchmark, paper_records, report_sink):
    rows = benchmark.pedantic(
        fig5_energy_and_degradation, args=(paper_records,), rounds=1, iterations=1
    )
    report_sink(
        "fig5_energy_degradation",
        format_policy_metrics(
            rows,
            title="Fig. 5: (a) avg RETX, (b) TX energy, (c) 5-year degradation "
            "under varying charging threshold θ",
        ),
    )
    lorawan = rows["LoRaWAN"]
    for policy in ("H-5", "H-50", "H-100"):
        assert rows[policy]["avg_retx"] < lorawan["avg_retx"]
        assert rows[policy]["tx_energy_j"] < lorawan["tx_energy_j"]
    assert rows["H-50"]["mean_degradation"] < lorawan["mean_degradation"]
    assert rows["H-5"]["mean_degradation"] == min(
        row["mean_degradation"] for row in rows.values()
    )
    # H-100 ≈ LoRaWAN in mean degradation.
    ratio = rows["H-100"]["mean_degradation"] / lorawan["mean_degradation"]
    assert 0.7 < ratio < 1.3
