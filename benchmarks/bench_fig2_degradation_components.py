"""Fig. 2 — battery degradation of a regular LoRaWAN node over 5 years.

Paper shape: degradation due to calendar aging is significantly higher
than degradation due to cycle aging, making calendar aging the dominant
factor in final degradation.
"""

from repro.experiments import fig2_degradation_components, format_series


def test_fig2_degradation_components(benchmark, paper_records, report_sink):
    series = benchmark.pedantic(
        fig2_degradation_components,
        args=(paper_records,),
        kwargs={"years": 5},
        rounds=1,
        iterations=1,
    )
    report_sink(
        "fig2_degradation_components",
        format_series(
            series,
            x_label="months",
            every=6,
            title="Fig. 2: degradation of a LoRaWAN node over 5 years "
            "(linear calendar/cycle components + nonlinear total)",
        ),
    )
    assert series["calendar"][-1] > series["cycle"][-1]
    assert 0.0 < series["total"][-1] < 1.0
