"""Tests for scenario configuration builders."""

import os
import subprocess
import sys

import pytest

from repro.experiments import (
    large_scale_base,
    lifespan_policies,
    scale_factor,
    testbed_base as make_testbed_base,
    theta_sweep,
)
from repro.lora import SpreadingFactor


class TestScaleFactor:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_bad_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        assert scale_factor() == 1.0

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert scale_factor() == 0.1


class TestLargeScaleBase:
    def test_matches_paper_setup(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        config = large_scale_base()
        assert config.radius_m == 5000.0
        assert config.period_range_s == (960.0, 3600.0)
        assert config.window_s == 60.0
        assert config.w_b == 1.0
        assert config.temperature_c == 25.0
        assert config.solar_peak_transmissions == 2.0

    def test_scale_grows_duration(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2")
        scaled = large_scale_base()
        monkeypatch.setenv("REPRO_SCALE", "1")
        base = large_scale_base()
        assert scaled.duration_s == pytest.approx(2 * base.duration_s)


class TestTestbedBase:
    def test_matches_paper_testbed(self):
        config = make_testbed_base()
        assert config.node_count == 10
        assert config.channel_count == 1
        assert config.fixed_sf is SpreadingFactor.SF10
        assert config.period_range_s == (600.0, 600.0)
        assert config.duration_s == pytest.approx(86400.0)
        assert config.synchronized_start
        assert 0 < config.start_jitter_s < 60.0


class TestPolicySets:
    def test_theta_sweep_policy_set(self):
        sweep = theta_sweep(large_scale_base())
        assert set(sweep) == {"LoRaWAN", "H-5", "H-50", "H-100"}
        assert sweep["H-5"].soc_cap == pytest.approx(0.05)
        assert sweep["LoRaWAN"].policy_name == "LoRaWAN"

    def test_lifespan_policies(self):
        policies = lifespan_policies(large_scale_base())
        assert set(policies) == {"LoRaWAN", "H-50", "H-50C"}
        assert not policies["H-50C"].use_window_selection
        assert policies["H-50C"].soc_cap == 0.5


class TestImportCost:
    def test_scenarios_do_not_import_the_sweep_runner(self):
        # repro.sweep pulls in repro.dist, asyncio and multiprocessing;
        # the benchmark child imports scenarios and pays for every module.
        code = (
            "import sys, repro.experiments.scenarios; "
            "print('repro.sweep' in sys.modules)"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "False"
