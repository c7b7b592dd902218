"""Tests for profiling phases, config hashing, and the run manifest."""

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, NodeReboot
from repro.obs import Profiler, RunManifest, config_hash, git_revision
from repro.checkpoint import retired
from repro.sim import SimulationConfig


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        with profiler.phase("run"):
            pass
        with profiler.phase("finalize"):
            pass
        timings = profiler.timings_s
        assert set(timings) == {"run", "finalize"}
        assert timings["run"] >= 0.0
        assert profiler.total_s == pytest.approx(sum(timings.values()))

    def test_nesting_is_an_error(self):
        profiler = Profiler()
        with pytest.raises(ConfigurationError):
            with profiler.phase("outer"):
                with profiler.phase("inner"):
                    pass

    def test_phase_closes_on_exception(self):
        profiler = Profiler()
        with pytest.raises(ValueError):
            with profiler.phase("run"):
                raise ValueError("boom")
        # The phase must have been closed; a new one can start.
        with profiler.phase("run"):
            pass
        assert "run" in profiler.timings_s


class TestConfigHash:
    def test_deterministic(self):
        config = SimulationConfig(node_count=5, duration_s=3600.0, seed=1)
        assert config_hash(config) == config_hash(config.replace())

    def test_sensitive_to_any_field(self):
        config = SimulationConfig(node_count=5, duration_s=3600.0, seed=1)
        assert config_hash(config) != config_hash(config.replace(seed=2))
        assert config_hash(config) != config_hash(config.replace(w_b=0.5))

    def test_short_hex(self):
        digest = config_hash(SimulationConfig(node_count=1, duration_s=60.0))
        assert len(digest) == 16
        int(digest, 16)  # valid hex

    def test_field_added_at_its_default_keeps_the_hash(self):
        # The reverse of deleting a field that sits at its default.
        extended = dataclasses.make_dataclass(
            "ExtendedConfig",
            [("scratch", int, dataclasses.field(default=0))],
            bases=(SimulationConfig,),
            frozen=True,
        )
        base = SimulationConfig(node_count=5, duration_s=3600.0, seed=1)
        same = extended(node_count=5, duration_s=3600.0, seed=1)
        assert config_hash(same) == config_hash(base)
        assert config_hash(same.replace(scratch=1)) != config_hash(base)

    def test_explicit_default_hashes_like_omitted(self):
        assert config_hash(SimulationConfig(omega=8, w_b=1.0)) == config_hash(
            SimulationConfig()
        )

    def test_sensitive_to_nested_fault_plan(self):
        plain = SimulationConfig(node_count=5)
        hashes = {
            config_hash(plain.replace(faults=plan))
            for plan in (
                None,
                FaultPlan(),
                FaultPlan(ack_loss_probability=0.1),
                FaultPlan(node_reboots=(NodeReboot(1, 600.0),)),
                FaultPlan(node_reboots=(NodeReboot(1, 900.0),)),
            )
        }
        assert len(hashes) == 5

    def test_schema_bump_changes_every_hash(self, monkeypatch):
        configs = [
            SimulationConfig(),
            SimulationConfig(node_count=5, seed=2),
            SimulationConfig(faults=FaultPlan(seed=3), shards=1),
        ]
        before = [config_hash(config) for config in configs]
        monkeypatch.setattr(retired, "CONFIG_SCHEMA", retired.CONFIG_SCHEMA + 1)
        after = [config_hash(config) for config in configs]
        assert all(old != new for old, new in zip(before, after))


def test_git_revision_in_this_repo():
    revision = git_revision()
    assert revision is None or len(revision) == 40


class TestRunManifest:
    def _manifest(self):
        return RunManifest(
            engine="exact",
            seed=7,
            config_hash="ab" * 8,
            node_count=5,
            duration_s=3600.0,
            policy="H-50",
        )

    def test_finalize_derives_throughput(self):
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        manifest = self._manifest()
        manifest.finalize(profiler, simulated_s=3600.0)
        assert manifest.wall_s == pytest.approx(profiler.total_s)
        run_s = profiler.timings_s["run"]
        if run_s > 0:
            assert manifest.sim_s_per_wall_s == pytest.approx(3600.0 / run_s)

    def test_write_and_parse(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = self._manifest()
        manifest.write(path)
        document = json.load(open(path))
        assert document["engine"] == "exact"
        assert document["seed"] == 7
        assert document["config_hash"] == "ab" * 8
        assert "phase_timings_s" in document
        assert "python" in document
