"""Shared fixtures for the reproduction benchmark harness.

Each benchmark regenerates one table or figure from the paper's
evaluation and writes the rows/series it produces to
``benchmarks/results/<name>.txt`` (and stdout), so ``pytest benchmarks/
--benchmark-only`` leaves a full, inspectable reproduction report.

Every simulated configuration runs once per session: the grids below
run through ``repro.sweep.run_sweep`` in session fixtures, and each
bench reduces the records it reads.

Scale: the default configuration simulates 100 nodes for 10 days and
extrapolates degradation rates to the paper's 5-15-year horizons (see
DESIGN.md, substitution #6).  Set ``REPRO_SCALE=3`` (or more) for longer
simulated windows, at proportional runtime.
"""

import os
import pathlib

import pytest

from repro.experiments import (
    PAPER_POLICIES,
    large_scale_base,
    policy_grid,
    require_ok,
    testbed_base,
    testbed_grid,
)
from repro.ioutil import atomic_write_text
from repro.sweep import build_grid, expand_axes, run_sweep

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def base_config():
    """The Section IV-A large-scale scenario (scaled)."""
    return large_scale_base()


@pytest.fixture(scope="session")
def testbed_config():
    """The Section IV-B testbed scenario."""
    return testbed_base()


@pytest.fixture(scope="session")
def paper_records(base_config):
    """Records of every large-scale policy Figs. 2 and 4-8 read."""
    return run_sweep(policy_grid(base_config, PAPER_POLICIES)).records


@pytest.fixture(scope="session")
def testbed_records(testbed_config):
    """Fig. 9's exact-engine testbed records."""
    return run_sweep(testbed_grid(testbed_config), engine="exact").records


#: The small deployment of the ablation benches.
ABLATION_BASE = large_scale_base(node_count=50, days=7.0)


@pytest.fixture(scope="session")
def ablation_records():
    """``{config: record}`` over every config the ablation benches read.

    The w_b (H-50), forecast-noise (H-50 and a LoRaWAN floor) and
    temperature (H-50 and LoRaWAN) ablations share their default points
    (H-50 at w_b = 1, σ = 0 and 25 °C; LoRaWAN at 25 °C), so the union
    of their grids runs each distinct config once.  A bench that reads
    a config missing here fails with a KeyError; a record that is not
    ``ok`` fails the fixture.
    """
    h50 = ABLATION_BASE.as_h(0.5)
    variants = (
        expand_axes(h50, [("w_b", [0.0, 0.25, 0.5, 1.0])])
        + expand_axes(h50, [("forecast_sigma", [0.0, 0.15, 0.3, 0.6])])
        + expand_axes(h50, [("temperature_c", [10.0, 25.0, 40.0])])
        + expand_axes(ABLATION_BASE.as_lorawan(), [("temperature_c", [10.0, 25.0, 40.0])])
    )
    unique = {}
    for label, config in variants:
        unique.setdefault(config, label)
    points = build_grid(
        [(label, config) for config, label in unique.items()], [ABLATION_BASE.seed]
    )
    records = run_sweep(points).records
    require_ok(records)
    return {point.config: record for point, record in zip(points, records)}


@pytest.fixture(scope="session")
def report_sink():
    """Write a named report both to stdout and benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        atomic_write_text(str(path), text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return write
