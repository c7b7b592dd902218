"""The table of retired snapshot state (``repro.checkpoint.retired``)."""

import importlib
import io
import pickle

import pytest

from repro.checkpoint import core, load_checkpoint, retired, save_checkpoint
from repro.constants import SECONDS_PER_DAY
from repro.exceptions import CheckpointError
from repro.sim import SimulationConfig, Simulator


def stale_snapshot(tmp_path):
    """A small exact run's snapshot holding every retired config field,
    simulator attribute and battery attribute at a value that still
    resumes."""
    sim = Simulator(
        SimulationConfig(node_count=3, duration_s=0.25 * SECONDS_PER_DAY, seed=7)
    )
    object.__setattr__(sim.config, "compact_trace", False)
    object.__setattr__(sim.config, "incremental_degradation", True)
    object.__setattr__(sim.config, "adr_enabled", False)
    object.__setattr__(sim.config, "duty_cycle", 1.0)
    sim.adr = sim.duty_cycle = None
    for node in sim.nodes.values():
        node.battery.incremental = True
    return save_checkpoint(sim, str(tmp_path), 100.0, engine="exact")


def test_table_names_live_holders_and_dead_classes():
    holders = [retired.CONFIG, *retired.ATTRIBUTES]
    holders += [holder for holder, _, _ in retired.CLASSES.values()]
    for module, name in holders:
        assert isinstance(getattr(importlib.import_module(module), name), type)
    for module, name in retired.CLASSES:
        assert not hasattr(importlib.import_module(module), name)


def test_load_drops_retired_state(tmp_path):
    sim, _ = load_checkpoint(stale_snapshot(tmp_path))
    assert type(sim.config) is SimulationConfig
    assert set(vars(sim.config)) == set(SimulationConfig.__dataclass_fields__)
    assert not hasattr(sim, "adr") and not hasattr(sim, "duty_cycle")
    batteries = [node.battery for node in sim.nodes.values()]
    assert batteries and not any(hasattr(b, "incremental") for b in batteries)
    # ``Simulator.__setstate__`` ran: every node's link is bound again.
    assert all(node.gateway_rssi_dbm for node in sim.nodes.values())
    # The loaded objects are plain instances again: they snapshot.
    save_checkpoint(sim, str(tmp_path), 200.0, engine="exact")


def test_one_table_line_refuses_a_value(tmp_path, monkeypatch):
    path = stale_snapshot(tmp_path)
    monkeypatch.setitem(retired.FIELDS, "compact_trace", ((True,), "test reason"))
    with pytest.raises(CheckpointError, match=r"compact_trace=False \(test reason\)"):
        load_checkpoint(path)


class Restoring:
    """A holder of retired state with its own ``__setstate__``."""

    def __setstate__(self, state):
        self.__dict__.update(state, restored=True)


def test_holder_keeps_its_own_setstate(monkeypatch):
    key = (Restoring.__module__, Restoring.__qualname__)
    monkeypatch.setitem(retired.ATTRIBUTES, key, ("gone",))
    monkeypatch.setattr(core, "_HOLDERS", {*core._HOLDERS, key})
    old = Restoring()
    old.gone, old.kept = 1, 2
    loaded = core._SnapshotUnpickler(io.BytesIO(pickle.dumps(old))).load()
    assert type(loaded) is Restoring
    assert vars(loaded) == {"kept": 2, "restored": True}
