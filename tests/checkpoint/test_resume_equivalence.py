"""Bit-identical resume equivalence: engines × fault plans × cadences.

The contract: a run checkpointed at time *t* and resumed produces
byte-identical packet logs, metric summaries, manifests (modulo
wall-clock fields) and trace files versus the *same* run left
uninterrupted.  The reference is always the checkpointed-but-
uninterrupted run — cadence checkpointing itself must not perturb
results either, which ``test_checkpointing_does_not_change_results``
pins against a checkpoint-free run.
"""

import _random
import os
import random
import shutil

import pytest

from repro.checkpoint import (
    assert_equivalent,
    assert_trace_files_identical,
    load_checkpoint,
    resume,
    save_checkpoint,
)
from repro.constants import SECONDS_PER_DAY
from repro.exceptions import SimulationInterrupted
from repro.faults import FaultPlan
from repro.sim import (
    MesoscopicSimulator,
    SimulationConfig,
    Simulator,
    mesoscopic,
    mesoscopic_vec,
)

from tests.sim import golden
from tests.sim.golden import resume_config as meso_config

#: Cadences exercised: mid-day (no alignment with any period/window
#: boundary) and a clean period-boundary fraction of a day.
CADENCES = {
    "midday": 0.37 * SECONDS_PER_DAY,
    "boundary": 0.5 * SECONDS_PER_DAY,
}


def exact_config(**overrides):
    defaults = dict(
        node_count=4,
        duration_s=1.0 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=500.0,
        seed=11,
        record_packets=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def fault_plan():
    return FaultPlan(
        ack_loss_probability=0.1,
        clock_skew_s=5.0,
        forecast_corruption_sigma=0.1,
    )


def run_and_resume(make_sim, config, tmp_path, cadence_s, pick=0):
    """Full checkpointed run + resume from the ``pick``-th kept snapshot."""
    ckdir = str(tmp_path / "ckpts")
    shutil.rmtree(ckdir, ignore_errors=True)
    checkpointed = config.replace(
        checkpoint_every_s=cadence_s, checkpoint_dir=ckdir
    )
    reference = make_sim(checkpointed).run()
    kept = sorted(os.listdir(ckdir))
    assert kept, "run wrote no checkpoints"
    sim, header = resume(os.path.join(ckdir, kept[pick]))
    # cadence labels are clamped to the horizon, so the newest snapshot
    # may be stamped exactly duration_s while events remain in its heap
    assert 0.0 < header["time_s"] <= config.duration_s
    resumed = sim.run()
    return reference, resumed


class TestExactEngine:
    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_clean_run(self, tmp_path, cadence):
        reference, resumed = run_and_resume(
            Simulator, exact_config(), tmp_path, CADENCES[cadence]
        )
        assert_equivalent(reference, resumed)

    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_with_fault_plan(self, tmp_path, cadence):
        reference, resumed = run_and_resume(
            Simulator,
            exact_config(faults=fault_plan()),
            tmp_path,
            CADENCES[cadence],
        )
        assert_equivalent(reference, resumed)
        # fault counters are part of the compared summary, but make the
        # intent explicit: the plan actually fired on both runs
        assert resumed.metrics.summary().get("faults_total", 0) >= 0

    def test_trace_file_byte_identical(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        config = exact_config(trace=True, trace_path=trace_path)
        reference, resumed = run_and_resume(
            Simulator, config, tmp_path, CADENCES["midday"]
        )
        # snapshot the uninterrupted file before comparing: resume()
        # truncated and rewrote the same path in place
        assert_equivalent(reference, resumed)
        reference_copy = str(tmp_path / "trace_reference.jsonl")
        rerun_dir = tmp_path / "rerun"
        rerun_dir.mkdir()
        shutil.copyfile(trace_path, reference_copy)
        # replay once more: the file the resumed run produced must equal
        # a from-scratch traced run's file byte for byte
        Simulator(
            config.replace(
                checkpoint_every_s=CADENCES["midday"],
                checkpoint_dir=str(rerun_dir),
            )
        ).run()
        assert_trace_files_identical(trace_path, reference_copy)


def traced_run_and_resume(config, tmp_path, cadence_s, pick=0):
    """Traced checkpointed run, then a resume from the ``pick``-th kept
    snapshot; both trace files must match byte for byte (wall-clock
    fields masked).  The uninterrupted run's trace is kept as
    ``reference.jsonl``; returns that run's result."""
    trace_path = str(tmp_path / "trace.jsonl")
    ckdir = str(tmp_path / "ckpts")
    config = config.replace(
        trace=True,
        trace_path=trace_path,
        checkpoint_every_s=cadence_s,
        checkpoint_dir=ckdir,
    )
    reference = MesoscopicSimulator(config).run()
    reference_trace = str(tmp_path / "reference.jsonl")
    shutil.copyfile(trace_path, reference_trace)
    kept = sorted(os.listdir(ckdir))
    sim, _ = resume(os.path.join(ckdir, kept[pick]))
    resumed = sim.run()
    assert_equivalent(reference, resumed)
    assert_trace_files_identical(reference_trace, trace_path)
    return reference


class TestMesoscopicEngine:
    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_vectorized_sweep(self, tmp_path, cadence):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            meso_config(),
            tmp_path,
            CADENCES[cadence],
        )
        assert_equivalent(reference, resumed)

    def test_resume_from_newest_checkpoint(self, tmp_path):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            meso_config(),
            tmp_path,
            CADENCES["boundary"],
            pick=-1,
        )
        assert_equivalent(reference, resumed)

    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_traced_sweep(self, tmp_path, cadence):
        reference = traced_run_and_resume(meso_config(), tmp_path, CADENCES[cadence])
        if cadence == "midday":
            golden.assert_golden(
                "resume", reference, str(tmp_path / "reference.jsonl")
            )

    def test_traced_resume_from_newest_checkpoint(self, tmp_path):
        traced_run_and_resume(
            meso_config(), tmp_path, CADENCES["boundary"], pick=-1
        )

    def test_snapshot_with_retired_generators_resumes_to_golden(self, tmp_path):
        """A snapshot written when every node carried an ``rng`` and every
        harvester a ``_rng_scratch`` (pickled as None: a C generator does
        not pickle) resumes to the pinned digests; the retired attributes
        load as unread leftovers."""
        ckdir = str(tmp_path / "ckpts")
        config = meso_config(
            checkpoint_every_s=CADENCES["midday"], checkpoint_dir=ckdir
        )
        MesoscopicSimulator(config).run()
        sim, header = load_checkpoint(
            os.path.join(ckdir, sorted(os.listdir(ckdir))[0])
        )
        for node in sim.nodes.values():
            node.rng = random.Random(config.seed * 7919 + node.node_id)
            node.harvester._rng_scratch = None
        old_dir = str(tmp_path / "old")
        os.mkdir(old_dir)
        path = save_checkpoint(sim, old_dir, header["time_s"], engine="meso")

        resumed, _ = resume(path)
        nodes = list(resumed.nodes.values())
        assert all(isinstance(node.rng, random.Random) for node in nodes)
        assert all(hasattr(node.harvester, "_rng_scratch") for node in nodes)
        expected = golden.load()["resume"]
        assert golden.result_digests(resumed.run()) == {
            key: value for key, value in expected.items() if key != "trace"
        }


class TestDietShadingResume:
    """The vectorized sweep's shading table never enters a snapshot.

    A resumed run rebuilds it lazily from an empty table; the factors
    are pure functions of (node, grid index), so the resumed diet run —
    coarse 2-h shading grid, float32 factors — must still match the
    uninterrupted one bit for bit.
    """

    @pytest.mark.parametrize("pick", [0, -1])
    def test_diet_shaded_run_resumed_mid_sweep(self, tmp_path, pick):
        config = meso_config(
            memory_profile="diet",
            shading_sigma=0.3,
            sample_nodes=(0, 2),
            duration_s=3.0 * SECONDS_PER_DAY,
        )
        reference, resumed = run_and_resume(
            MesoscopicSimulator, config, tmp_path, CADENCES["midday"], pick=pick
        )
        assert_equivalent(reference, resumed)

    def test_snapshot_drops_shading_caches(self, tmp_path):
        # The noisy forecaster gathers through each harvester's private
        # table; the snapshot must not carry it, no harvester may hold a
        # generator (not even after drawing), and the shared solar model
        # must come back shared.
        ckdir = str(tmp_path / "ck")
        config = meso_config(
            forecaster="noisy",
            checkpoint_every_s=CADENCES["midday"],
            checkpoint_dir=ckdir,
        )
        MesoscopicSimulator(config).run()
        sim, _ = resume(os.path.join(ckdir, sorted(os.listdir(ckdir))[0]))
        harvesters = [node.harvester for node in sim.nodes.values()]
        assert all(h._table is None for h in harvesters)
        assert all(h.solar is sim.solar for h in harvesters)

        def generators():
            return [
                value
                for h in harvesters
                for value in vars(h).values()
                if isinstance(value, _random.Random)
            ]

        assert generators() == []
        sim.run()
        assert generators() == []


def telemetry_config(**overrides):
    """A run of the telemetry profile (4-8 h periods, diet)."""
    defaults = dict(
        node_count=30,
        radius_m=4000.0,
        period_range_s=(240 * 60.0, 480 * 60.0),
        window_s=300.0,
        solar_peak_transmissions=10.0,
        channel_count=8,
        omega=8,
        memory_profile="diet",
    )
    defaults.update(overrides)
    return meso_config(**defaults).as_h(0.5)


#: A cadence off the 300 s window grid (4000 / 300 is not whole).
OFF_GRID_CADENCE_S = 4000.0


@pytest.fixture
def held_at_save(monkeypatch):
    """Decided-but-unbooked period events held at each snapshot write.

    The vectorized sweep decides a period epoch's events ahead of their
    pops; every snapshot (cadence or rescue) must fall between epochs,
    so each entry of the returned list must be 0.
    """
    outstanding = set()
    held = []
    decide = mesoscopic_vec._decide_periods
    book = mesoscopic_vec._book_periods
    save = mesoscopic.save_checkpoint

    def tracking_decide(sim, batch, times, harvest):
        outstanding.update((node.node_id, t) for node, t in zip(batch, times))
        return decide(sim, batch, times, harvest)

    def tracking_book(sim, batch, now_s, *args):
        outstanding.difference_update((node.node_id, now_s) for node in batch)
        return book(sim, batch, now_s, *args)

    def tracking_save(sim, *args, **kwargs):
        held.append(len(outstanding))
        return save(sim, *args, **kwargs)

    monkeypatch.setattr(mesoscopic_vec, "_decide_periods", tracking_decide)
    monkeypatch.setattr(mesoscopic_vec, "_book_periods", tracking_book)
    monkeypatch.setattr(mesoscopic, "save_checkpoint", tracking_save)
    return held


class TestLookaheadEpochResume:
    """Period epochs never straddle a snapshot, cadence or rescue."""

    @pytest.mark.parametrize("pick", [0, -1])
    def test_off_grid_cadence(self, tmp_path, held_at_save, pick):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            telemetry_config(),
            tmp_path,
            OFF_GRID_CADENCE_S,
            pick=pick,
        )
        assert_equivalent(reference, resumed)
        assert held_at_save and not any(held_at_save)

    def test_pending_windows_survive_resume(self, tmp_path, monkeypatch, held_at_save):
        # 300 s windows on 16-20 min periods: from sunrise on, a snapshot
        # often holds a window resolving inside the next epoch, before
        # its node's next period start, so the resumed sweep must
        # rebuild that pending resolve time from the window buckets.
        # Every snapshot is kept and resumed from a copy.
        save = mesoscopic.save_checkpoint
        monkeypatch.setattr(
            mesoscopic,
            "save_checkpoint",
            lambda *args, **kwargs: save(*args, keep_last=10**6, **kwargs),
        )
        config = meso_config(
            node_count=10,
            radius_m=4000.0,
            window_s=300.0,
            duration_s=SECONDS_PER_DAY,
            checkpoint_every_s=OFF_GRID_CADENCE_S,
            checkpoint_dir=str(tmp_path / "ck"),
        )
        reference = MesoscopicSimulator(config).run()
        shutil.copytree(tmp_path / "ck", tmp_path / "snapshots")
        names = sorted(os.listdir(tmp_path / "snapshots"))
        assert len(names) == int(SECONDS_PER_DAY // OFF_GRID_CADENCE_S)
        for name in names:
            sim, _ = resume(str(tmp_path / "snapshots" / name))
            assert_equivalent(reference, sim.run())
        assert held_at_save and not any(held_at_save)

    def test_interrupt_requested_mid_epoch(self, tmp_path, monkeypatch, held_at_save):
        config = telemetry_config()

        def checkpointed(name):
            return config.replace(
                checkpoint_every_s=OFF_GRID_CADENCE_S,
                checkpoint_dir=str(tmp_path / name),
            )

        reference = MesoscopicSimulator(checkpointed("reference")).run()

        # Ask to stop as soon as an epoch spanning several instants has
        # been decided half a day in; the sweep must drain it first.
        epoch_last = []
        decide = mesoscopic_vec._decide_periods

        def requesting_decide(sim, batch, times, harvest):
            if not epoch_last and len(set(times)) > 1 and min(times) > 43200.0:
                epoch_last.append(max(times))
            return decide(sim, batch, times, harvest)

        monkeypatch.setattr(mesoscopic_vec, "_decide_periods", requesting_decide)
        monkeypatch.setattr(mesoscopic_vec, "stop_requested", lambda: bool(epoch_last))
        with pytest.raises(SimulationInterrupted) as stopped:
            MesoscopicSimulator(checkpointed("interrupted")).run()
        assert stopped.value.checkpoint_path is not None
        assert stopped.value.time_s >= epoch_last[0]
        assert stopped.value.time_s < config.duration_s

        monkeypatch.setattr(mesoscopic_vec, "stop_requested", lambda: False)
        sim, header = resume(stopped.value.checkpoint_path)
        assert header["time_s"] == stopped.value.time_s
        resumed = sim.run()
        assert_equivalent(reference, resumed)
        assert held_at_save and not any(held_at_save)


    def test_traced_interrupt_requested_mid_epoch(self, tmp_path, monkeypatch, held_at_save):
        # The stop-request rescue path with tracing on: the resumed
        # run's trace continues the interrupted one's file exactly.
        trace_path = str(tmp_path / "trace.jsonl")
        config = telemetry_config(trace=True, trace_path=trace_path)

        def checkpointed(name):
            return config.replace(
                checkpoint_every_s=OFF_GRID_CADENCE_S,
                checkpoint_dir=str(tmp_path / name),
            )

        reference = MesoscopicSimulator(checkpointed("reference")).run()
        reference_trace = str(tmp_path / "reference.jsonl")
        shutil.copyfile(trace_path, reference_trace)

        decided = []
        decide = mesoscopic_vec._decide_periods

        def requesting_decide(sim, batch, times, harvest):
            if min(times) > 43200.0:
                decided.append(max(times))
            return decide(sim, batch, times, harvest)

        monkeypatch.setattr(mesoscopic_vec, "_decide_periods", requesting_decide)
        monkeypatch.setattr(mesoscopic_vec, "stop_requested", lambda: bool(decided))
        with pytest.raises(SimulationInterrupted) as stopped:
            MesoscopicSimulator(checkpointed("interrupted")).run()
        assert stopped.value.checkpoint_path is not None

        monkeypatch.setattr(mesoscopic_vec, "stop_requested", lambda: False)
        sim, _ = resume(stopped.value.checkpoint_path)
        resumed = sim.run()
        assert_equivalent(reference, resumed)
        assert_trace_files_identical(reference_trace, trace_path)
        assert held_at_save and not any(held_at_save)


class TestCheckpointingIsObservationOnly:
    def test_checkpointing_does_not_change_results(self, tmp_path):
        config = meso_config()
        plain = MesoscopicSimulator(config).run()
        checkpointed = MesoscopicSimulator(
            config.replace(
                checkpoint_every_s=CADENCES["boundary"],
                checkpoint_dir=str(tmp_path / "ck"),
            )
        ).run()
        assert plain.metrics.summary() == checkpointed.metrics.summary()
        assert list(plain.packet_log) == list(checkpointed.packet_log)
