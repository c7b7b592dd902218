"""Exact-engine outputs pinned by golden digests.

Each scenario of :data:`tests.sim.golden.EXACT_SCENARIOS` runs traced,
untraced, and untraced without packets (checkpointed scenarios also
resume from their newest snapshot); every run must agree, and the
traced run — metrics, network counters, packet log, masked trace, heap
counters — must reproduce the committed digests.
"""

import pytest

from repro.checkpoint import latest_checkpoint, load_checkpoint, resume, save_checkpoint
from repro.sim import run_simulation
from tests.sim import golden


@pytest.mark.parametrize("name", golden.EXACT_SCENARIOS)
def test_exact_scenario_matches_golden(name, tmp_path):
    result, trace_path = golden.run_scenario(name, str(tmp_path))
    golden.assert_golden(name, result, trace_path)


def test_snapshot_with_retired_flag_resumes_to_golden(tmp_path):
    """A snapshot whose config holds ``exact_batched=False`` (written
    before the flag was retired) resumes to the pinned digests.
    Unpickling skips ``__post_init__``, so the stale value loads."""
    every_s = golden.EXACT_CHECKPOINT_EVERY_S["exact-faults"]
    config = golden.with_checkpoints(
        golden.exact_faults_config(), str(tmp_path), every_s
    )
    run_simulation(config)
    path = latest_checkpoint(config.checkpoint_dir)
    sim, header = load_checkpoint(path)
    # What the one-at-a-time drain used to pickle.
    object.__setattr__(sim.config, "exact_batched", False)
    sim.queue.batch_kinds = frozenset()
    save_checkpoint(sim, config.checkpoint_dir, header["time_s"], engine="exact")

    resumed, _ = resume(path)
    assert resumed.config.exact_batched is False
    assert resumed.queue.batch_kinds == frozenset({"period"})
    expected = golden.load()["exact-faults-resumed"]
    assert golden.exact_digests(resumed.run()) == {
        key: value for key, value in expected.items() if key != "trace"
    }
