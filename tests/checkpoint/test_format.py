"""Tests for the checkpoint envelope: header, integrity, pruning."""

import json
import os
import pickle

import pytest

from repro.checkpoint import (
    FORMAT,
    checkpoint_filename,
    latest_checkpoint,
    load_checkpoint,
    read_header,
    resume,
    save_checkpoint,
)
from repro.constants import SECONDS_PER_DAY
from repro.exceptions import CheckpointError, ConfigurationError
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.obs import config_hash
from repro.sim import SimulationConfig, Simulator
from repro.sim.events import EventQueue


def small_config(**overrides):
    defaults = dict(node_count=3, duration_s=0.25 * SECONDS_PER_DAY, seed=7)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def write_checkpoint(tmp_path, time_s=1234.5):
    sim = Simulator(small_config())
    return sim, save_checkpoint(sim, str(tmp_path), time_s, engine="exact")


class TestEnvelope:
    def test_header_fields(self, tmp_path):
        sim, path = write_checkpoint(tmp_path)
        header = read_header(path)
        assert header["format"] == FORMAT
        assert header["engine"] == "exact"
        assert header["time_s"] == 1234.5
        assert header["seed"] == 7
        assert header["node_count"] == 3
        assert header["config_hash"] == config_hash(sim.config)
        assert header["payload_bytes"] > 0

    def test_roundtrip_restores_simulator(self, tmp_path):
        sim, path = write_checkpoint(tmp_path)
        restored, header = load_checkpoint(path)
        assert isinstance(restored, Simulator)
        assert restored.config == sim.config
        assert len(restored.nodes) == len(sim.nodes)

    def test_filename_sorts_by_time(self):
        names = [checkpoint_filename(t) for t in (9.0, 86400.0, 432000.125)]
        assert names == sorted(names)

    def test_unknown_format_version_rejected(self, tmp_path):
        _, path = write_checkpoint(tmp_path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        header["format"] = "repro.checkpoint/999"
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            handle.write(payload)
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_corrupted_payload_rejected_before_unpickle(self, tmp_path):
        _, path = write_checkpoint(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF  # flip one payload byte
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        _, path = write_checkpoint(tmp_path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-200])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_unparsable_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt-0000000000001.000.ckpt"
        path.write_bytes(b"\x80\x04 not json\njunk")
        with pytest.raises(CheckpointError, match="header"):
            read_header(str(path))

    def test_config_hash_mismatch_rejected(self, tmp_path):
        _, path = write_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="was written for config"):
            load_checkpoint(path, expected_config_hash="deadbeef")

    def test_config_hash_ignores_checkpoint_settings(self, tmp_path):
        plain = small_config()
        checkpointed = small_config(
            checkpoint_every_s=3600.0, checkpoint_dir=str(tmp_path)
        )
        assert config_hash(plain) == config_hash(checkpointed)

    def test_config_hash_ignores_retired_refresh_flags(self):
        # A config pickled before the batch degradation refresh, ADR and
        # the duty-cycle limiter were retired still carries their
        # fields; unpickled, it hashes as a fresh config with the same
        # remaining fields.
        old = small_config()
        object.__setattr__(old, "incremental_degradation", True)
        object.__setattr__(old, "compact_trace", False)
        object.__setattr__(old, "adr_enabled", False)
        object.__setattr__(old, "duty_cycle", 1.0)
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded.incremental_degradation is True
        assert loaded.duty_cycle == 1.0
        assert config_hash(loaded) == config_hash(small_config())


class TestDirectoryManagement:
    def test_latest_and_prune(self, tmp_path):
        sim = Simulator(small_config())
        paths = [
            save_checkpoint(sim, str(tmp_path), t, engine="exact")
            for t in (100.0, 200.0, 300.0, 400.0, 500.0)
        ]
        kept = sorted(os.listdir(tmp_path))
        assert len(kept) == 3  # KEEP_LAST
        assert kept == [os.path.basename(p) for p in paths[-3:]]
        assert latest_checkpoint(str(tmp_path)) == paths[-1]

    def test_latest_on_missing_directory(self, tmp_path):
        assert latest_checkpoint(str(tmp_path / "nope")) is None

    def test_resume_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints found"):
            resume(str(tmp_path))


class TestConfigValidation:
    def test_negative_cadence_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            small_config(checkpoint_every_s=-1.0, checkpoint_dir="/tmp/x")

    def test_cadence_without_directory_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            small_config(checkpoint_every_s=3600.0)


class TestSnapshotability:
    def test_named_events_are_snapshotable(self):
        queue = EventQueue()
        queue.schedule_event(1.0, "period", 42)
        clone = pickle.loads(pickle.dumps(queue))
        assert clone._heap == queue._heap == [(1.0, 0, 0, "period", (42,))]


    def test_unpicklable_state_leaves_directory_untouched(self, tmp_path):
        sim = Simulator(small_config())
        previous = save_checkpoint(sim, str(tmp_path), 100.0, engine="exact")
        sim.hook = lambda: None
        with pytest.raises(CheckpointError, match="not snapshotable"):
            save_checkpoint(sim, str(tmp_path), 200.0, engine="exact")
        assert os.listdir(tmp_path) == [os.path.basename(previous)]
        assert latest_checkpoint(str(tmp_path)) == previous
        restored, header = load_checkpoint(previous)
        assert header["time_s"] == 100.0
        assert not hasattr(restored, "hook")


class TestAtomicWrites:
    def test_atomic_json_content_and_no_temp_residue(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(str(path), {"b": 2, "a": 1})
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        assert path.read_text().endswith("\n")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_atomic_text_replaces_existing(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]
