"""Fig. 6 — avg utility, PRR, and avg latency vs θ.

Paper shape: LoRaWAN's utility/PRR vary widely due to pure ALOHA; H-50
improves both (paper: +39 % utility, +54 % PRR at 500-node congestion);
H-5's PRR collapses because nodes deplete the tiny θ reserve; LoRaWAN's
delivered-packet latency is the lowest while H variants trade latency
for battery lifespan.
"""

from repro.experiments import fig6_network_performance, format_policy_metrics


def test_fig6_network_performance(benchmark, paper_records, report_sink):
    rows = benchmark.pedantic(
        fig6_network_performance, args=(paper_records,), rounds=1, iterations=1
    )
    report_sink(
        "fig6_network_performance",
        format_policy_metrics(
            rows,
            title="Fig. 6: (a) avg utility, (b) PRR, (c) avg latency "
            "under varying charging threshold θ",
        ),
    )
    lorawan = rows["LoRaWAN"]
    assert rows["H-50"]["avg_utility"] >= lorawan["avg_utility"] - 0.02
    assert rows["H-50"]["avg_prr"] >= lorawan["avg_prr"] - 0.02
    assert rows["H-5"]["avg_prr"] < rows["H-50"]["avg_prr"]
    assert (
        lorawan["avg_delivered_latency_s"]
        <= rows["H-50"]["avg_delivered_latency_s"] + 1.0
    )
