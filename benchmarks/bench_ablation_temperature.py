"""Ablation — battery temperature sensitivity.

The paper fixes insulated batteries at 25 °C; Eq. 1-2's Arrhenius factor
makes every degradation term exponential in temperature, so deployment
climate is a first-order design input.  This bench sweeps the fixed
internal temperature for H-50 and LoRaWAN and reports lifespans —
quantifying how much a hot enclosure eats of the protocol's gains.
"""

from repro.experiments import format_table, large_scale_base


def sweep_temperature(ablation_records):
    base = large_scale_base(node_count=50, days=7.0)
    rows = []
    for temperature in (10.0, 25.0, 40.0):
        hot = base.replace(temperature_c=temperature)
        h50 = ablation_records[hot.as_h(0.5)]
        lorawan = ablation_records[hot.as_lorawan()]
        rows.append(
            {
                "temperature_c": temperature,
                "h50_days": h50.lifespan_days,
                "lorawan_days": lorawan.lifespan_days,
            }
        )
    return rows


def test_ablation_temperature(benchmark, ablation_records, report_sink):
    rows = benchmark.pedantic(
        sweep_temperature, args=(ablation_records,), rounds=1, iterations=1
    )
    table = [
        [
            r["temperature_c"],
            round(r["lorawan_days"]),
            round(r["h50_days"]),
            f"+{(r['h50_days'] / r['lorawan_days'] - 1) * 100:.0f}%",
        ]
        for r in rows
    ]
    report_sink(
        "ablation_temperature",
        format_table(
            ["battery temp (°C)", "LoRaWAN (days)", "H-50 (days)", "H-50 gain"],
            table,
            title="Ablation: internal battery temperature vs lifespan "
            "(Arrhenius stress of Eq. 1-2)",
        ),
    )
    # Hotter batteries die sooner for both policies...
    lifespans = [r["h50_days"] for r in rows]
    assert lifespans[0] > lifespans[1] > lifespans[2]
    # ...but the protocol's relative advantage survives the climate sweep.
    for r in rows:
        assert r["h50_days"] > r["lorawan_days"] * 1.3
