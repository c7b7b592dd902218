"""Fig. 9 — the 24-hour, 10-node testbed: H-100 vs LoRaWAN.

Paper shape: PRR is 100 % for both; LoRaWAN's per-node degradation
variance is far higher (the paper reports 99.7 % higher) and its cycle
aging ~80 % higher than H-100's; H-100 retransmits less; LoRaWAN's
latency is lower.  Uses the exact event-driven engine.
"""

from repro.experiments import fig9_testbed, format_policy_metrics


def test_fig9_testbed(benchmark, testbed_records, report_sink):
    rows = benchmark.pedantic(
        fig9_testbed, args=(testbed_records,), rounds=1, iterations=1
    )
    report_sink(
        "fig9_testbed",
        format_policy_metrics(
            rows,
            title="Fig. 9: 24-h 10-node testbed (1 channel, SF10, "
            "10-min periods) — H-100 vs LoRaWAN",
        ),
    )
    assert rows["LoRaWAN"]["avg_prr"] > 0.95
    assert rows["H-100"]["avg_prr"] > 0.95
    assert rows["H-100"]["avg_retx"] < rows["LoRaWAN"]["avg_retx"]
    assert (
        rows["LoRaWAN"]["avg_delivered_latency_s"]
        < rows["H-100"]["avg_delivered_latency_s"]
    )
    assert rows["H-100"]["total_cycle_aging"] < rows["LoRaWAN"]["total_cycle_aging"]
