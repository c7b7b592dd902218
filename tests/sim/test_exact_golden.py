"""Exact-engine outputs pinned by golden digests.

Each scenario of :data:`tests.sim.golden.EXACT_SCENARIOS` runs traced,
untraced, and untraced without packets (checkpointed scenarios also
resume from their newest snapshot); every run must agree, and the
traced run — metrics, network counters, packet log, masked trace, heap
counters — must reproduce the committed digests.
"""

import os
import sys
import types

import pytest

from repro.checkpoint import latest_checkpoint, load_checkpoint, resume, save_checkpoint
from repro.exceptions import CheckpointError
from repro.sim import events, run_simulation
from tests.sim import golden


@pytest.mark.parametrize("name", golden.EXACT_SCENARIOS)
def test_exact_scenario_matches_golden(name, tmp_path):
    result, trace_path = golden.run_scenario(name, str(tmp_path))
    golden.assert_golden(name, result, trace_path)


def _newest_exact_faults_snapshot(tmp_path):
    """Run the exact-faults scenario with cadence checkpoints; returns
    its newest snapshot's path and that snapshot loaded (sim, header)."""
    every_s = golden.EXACT_CHECKPOINT_EVERY_S["exact-faults"]
    config = golden.with_checkpoints(
        golden.exact_faults_config(), str(tmp_path), every_s
    )
    run_simulation(config)
    path = latest_checkpoint(config.checkpoint_dir)
    return (path, *load_checkpoint(path))


def _assert_resumes_to_golden(resumed):
    expected = golden.load()["exact-faults-resumed"]
    assert golden.exact_digests(resumed.run()) == {
        key: value for key, value in expected.items() if key != "trace"
    }


def test_snapshot_with_retired_flag_resumes_to_golden(tmp_path):
    """A snapshot whose config holds ``exact_batched=False`` (written
    before the flag was retired) resumes to the pinned digests.
    Unpickling skips ``__post_init__``, so the stale value loads."""
    path, sim, header = _newest_exact_faults_snapshot(tmp_path)
    # What the one-at-a-time drain used to pickle.
    object.__setattr__(sim.config, "exact_batched", False)
    sim.queue.batch_kinds = frozenset()
    save_checkpoint(sim, os.path.dirname(path), header["time_s"], engine="exact")

    resumed, _ = resume(path)
    assert resumed.config.exact_batched is False
    assert resumed.queue.batch_kinds == frozenset({"period"})
    _assert_resumes_to_golden(resumed)


def test_snapshot_with_retired_mac_ttl_resumes_to_golden(tmp_path):
    """A snapshot written while each lifespan-aware MAC still held the
    ``w_u`` TTL (``_w_u_ttl_s``) resumes to the pinned digests; the
    resumed run ages weights by the config's ``w_u_ttl_s``."""
    path, sim, header = _newest_exact_faults_snapshot(tmp_path)
    assert sim.nodes and sim.config.w_u_ttl_s is not None
    for node in sim.nodes.values():
        node.mac._w_u_ttl_s = sim.config.w_u_ttl_s
    save_checkpoint(sim, os.path.dirname(path), header["time_s"], engine="exact")

    resumed, _ = resume(path)
    assert not any(hasattr(node.mac, "_w_u_ttl_s") for node in resumed.nodes.values())
    _assert_resumes_to_golden(resumed)


def _rewrite_as_pre_streaming_snapshot(tmp_path, incremental):
    """Save the exact-faults run's newest snapshot again as the code
    before the batch degradation refresh was retired pickled it: the
    config's two flags, each battery's ``incremental`` field (and, for a
    batch run, no accumulator).  Returns the snapshot's path."""
    path, sim, header = _newest_exact_faults_snapshot(tmp_path)
    object.__setattr__(sim.config, "incremental_degradation", incremental)
    object.__setattr__(sim.config, "compact_trace", False)
    assert sim.nodes
    for node in sim.nodes.values():
        node.battery.incremental = incremental
        if not incremental:
            node.battery._incremental = None
    save_checkpoint(sim, os.path.dirname(path), header["time_s"], engine="exact")
    return path


def test_snapshot_with_retired_refresh_flags_resumes_to_golden(tmp_path):
    """A snapshot written while ``incremental_degradation`` and
    ``compact_trace`` still existed (at their defaults) resumes to the
    pinned digests."""
    path = _rewrite_as_pre_streaming_snapshot(tmp_path, incremental=True)
    resumed, _ = resume(path)
    assert not hasattr(resumed.config, "incremental_degradation")
    _assert_resumes_to_golden(resumed)


def test_snapshot_of_batch_refresh_run_is_refused(tmp_path):
    """A snapshot of a run with ``incremental_degradation=False`` has
    batteries without a streaming accumulator; loading it fails with a
    message naming the retired flag instead of crashing at the first
    refresh after resume."""
    path = _rewrite_as_pre_streaming_snapshot(tmp_path, incremental=False)
    with pytest.raises(CheckpointError, match="incremental_degradation=False"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="incremental_degradation=False"):
        resume(path)


class _ScheduledEvent:
    """The pre-tuple heap entry, saved under its old global."""


_ScheduledEvent.__module__ = events.__name__


def test_snapshot_with_pre_tuple_heap_resumes_to_golden(tmp_path, monkeypatch):
    """A snapshot whose heap holds ``_ScheduledEvent`` objects (written
    before the heap held plain tuples) resumes to the pinned digests,
    and the resumed heap holds tuples."""
    path, sim, header = _newest_exact_faults_snapshot(tmp_path)
    # What the dataclass heap entry used to pickle: its seven fields.
    entries = []
    for time_s, priority, sequence, kind, args in sim.queue._heap:
        entry = _ScheduledEvent()
        entry.__dict__.update(
            time_s=time_s,
            priority=priority,
            sequence=sequence,
            callback=None,
            kind=kind,
            args=args,
            cancelled=False,
        )
        entries.append(entry)
    assert entries
    sim.queue._heap = entries
    with monkeypatch.context() as patch:
        patch.setattr(events, "_ScheduledEvent", _ScheduledEvent, raising=False)
        save_checkpoint(sim, os.path.dirname(path), header["time_s"], engine="exact")

    resumed, _ = resume(path)
    assert len(resumed.queue._heap) == len(entries)
    assert all(type(entry) is tuple for entry in resumed.queue._heap)
    _assert_resumes_to_golden(resumed)


class AdrController:
    """The retired ADR controller, saved under its old global."""


class DutyCycleLimiter:
    """The retired duty-cycle limiter, saved under its old global."""


def _rewrite_as_pre_adr_snapshot(directory, sim, header, monkeypatch, **fields):
    """Save ``sim`` into ``directory`` as the code before ADR and the
    duty-cycle limiter were retired pickled it: both config fields (at
    their defaults unless ``fields`` sets them), and the simulator's
    ``adr`` and ``duty_cycle``, None while off and otherwise an instance
    of the deleted class.  Returns the snapshot's path."""
    values = {"adr_enabled": False, "duty_cycle": 1.0, **fields}
    for field, value in values.items():
        object.__setattr__(sim.config, field, value)
    sim.adr = AdrController() if values["adr_enabled"] else None
    sim.duty_cycle = DutyCycleLimiter() if values["duty_cycle"] < 1.0 else None
    with monkeypatch.context() as patch:
        for cls, module in (
            (AdrController, "repro.lora.adr"),
            (DutyCycleLimiter, "repro.lora.dutycycle"),
        ):
            patch.setattr(cls, "__module__", module)
            patch.setitem(sys.modules, module, types.SimpleNamespace(**{cls.__name__: cls}))
        return save_checkpoint(sim, directory, header["time_s"], engine="exact")


def test_snapshot_with_retired_adr_fields_resumes_to_golden(tmp_path, monkeypatch):
    """A snapshot written while ADR and the duty-cycle limiter still
    existed (both off) resumes to the pinned digests, and the resumed
    simulator holds neither."""
    path, sim, header = _newest_exact_faults_snapshot(tmp_path)
    _rewrite_as_pre_adr_snapshot(os.path.dirname(path), sim, header, monkeypatch)

    resumed, _ = resume(path)
    assert not hasattr(resumed, "adr") and not hasattr(resumed, "duty_cycle")
    assert not hasattr(resumed.config, "adr_enabled")
    assert not hasattr(resumed.config, "duty_cycle")
    _assert_resumes_to_golden(resumed)


def test_snapshot_of_adr_or_duty_cycle_run_is_refused(tmp_path, monkeypatch):
    """A snapshot of a run with ADR on, or with a duty-cycle budget, is
    refused with a message naming the retired field.  The config
    unpickles first, so the refusal comes before the lookup of the
    deleted class the simulator holds."""
    _, sim, header = _newest_exact_faults_snapshot(tmp_path)
    for field, value in (("adr_enabled", True), ("duty_cycle", 0.01)):
        directory = tmp_path / field
        directory.mkdir()
        path = _rewrite_as_pre_adr_snapshot(
            str(directory), sim, header, monkeypatch, **{field: value}
        )
        for load in (load_checkpoint, resume):
            with pytest.raises(CheckpointError, match=f"retired {field}={value!r}"):
                load(path)
