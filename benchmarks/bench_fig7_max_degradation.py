"""Fig. 7 — max network degradation at each month until EoL.

Paper shape: LoRaWAN's max-degradation curve climbs fastest; H-50C
(θ cap without window selection) sits between LoRaWAN and H-50; H-50
is the slowest to degrade.
"""

from repro.experiments import fig7_max_degradation_by_month, format_series


def test_fig7_max_degradation_by_month(benchmark, paper_records, report_sink):
    series = benchmark.pedantic(
        fig7_max_degradation_by_month,
        args=(paper_records,),
        kwargs={"months": 168},
        rounds=1,
        iterations=1,
    )
    report_sink(
        "fig7_max_degradation",
        format_series(
            series,
            x_label="month",
            every=12,
            title="Fig. 7: max degradation (fraction) of the network per month",
        ),
    )
    for month in range(23, 168, 24):
        assert series["LoRaWAN"][month] >= series["H-50C"][month] - 1e-6
        assert series["H-50C"][month] >= series["H-50"][month] - 1e-6
    # Every curve is monotone non-decreasing.
    for values in series.values():
        assert all(b >= a for a, b in zip(values, values[1:]))
