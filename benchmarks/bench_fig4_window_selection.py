"""Fig. 4 — forecast-window selection histogram per policy.

Paper shape: LoRaWAN puts 100 % of nodes in forecast window 1; the H
variants spread nodes across the first few windows (most nodes within
the first 4) regardless of θ.
"""

from repro.experiments import fig4_window_selection, format_histograms


def test_fig4_window_selection(benchmark, paper_records, report_sink):
    histograms = benchmark.pedantic(
        fig4_window_selection, args=(paper_records,), rounds=1, iterations=1
    )
    report_sink(
        "fig4_window_selection",
        format_histograms(
            histograms,
            title="Fig. 4: nodes binned by majority forecast window (1-based)",
        ),
    )
    assert set(histograms["LoRaWAN"]) == {0}
    for policy in ("H-5", "H-50", "H-100"):
        histogram = histograms[policy]
        total = sum(histogram.values())
        within_first_four = sum(v for w, v in histogram.items() if w < 4)
        assert within_first_four >= 0.6 * total
