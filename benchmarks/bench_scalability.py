"""Extension — scalability with network size.

The paper's large-scale claim is that the protocol's advantages hold
"up to 500 nodes" on a single gateway.  This bench sweeps node count
and reports how LoRaWAN's ALOHA collapses with density while H-50's
learned window spreading holds PRR — plus the simulator's wall-clock
scaling, since a reproduction should also demonstrate the tool scales.
"""

from repro.experiments import format_table, large_scale_base, require_ok
from repro.sweep import build_grid, run_sweep


def sweep_nodes():
    rows = []
    for nodes in (50, 100, 200):
        base = large_scale_base(node_count=nodes, days=4.0)
        points = build_grid(
            [("LoRaWAN", base.as_lorawan()), ("H-50", base.as_h(0.5))], [base.seed]
        )
        result = run_sweep(points)
        require_ok(result.records)
        lorawan, h50 = result.records
        rows.append(
            {
                "nodes": nodes,
                "lorawan_prr": lorawan.summary["avg_prr"],
                "lorawan_retx": lorawan.summary["avg_retx"],
                "h50_prr": h50.summary["avg_prr"],
                "h50_retx": h50.summary["avg_retx"],
                "wall_s": result.wall_s,
            }
        )
    return rows


def test_scalability(benchmark, report_sink):
    rows = benchmark.pedantic(sweep_nodes, rounds=1, iterations=1)
    report_sink(
        "extension_scalability",
        format_table(
            ["nodes", "LoRaWAN PRR", "LoRaWAN RETX", "H-50 PRR", "H-50 RETX", "wall (s)"],
            [
                [
                    r["nodes"],
                    round(r["lorawan_prr"], 4),
                    round(r["lorawan_retx"], 2),
                    round(r["h50_prr"], 4),
                    round(r["h50_retx"], 3),
                    round(r["wall_s"], 1),
                ]
                for r in rows
            ],
            title="Scalability: density vs MAC performance "
            "(single gateway, one channel, 4 simulated days)",
        ),
    )
    # LoRaWAN deteriorates with density; H-50 stays near-perfect.
    lorawan_prr = [r["lorawan_prr"] for r in rows]
    assert lorawan_prr[-1] < lorawan_prr[0]
    for r in rows:
        assert r["h50_prr"] > 0.99
        assert r["h50_retx"] < r["lorawan_retx"]
