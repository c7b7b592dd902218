"""Exact-engine outputs pinned by golden digests.

Each scenario of :data:`tests.sim.golden.EXACT_SCENARIOS` runs traced
and untraced, with packets on the one-at-a-time drain and without
packets on both drains (checkpointed scenarios also resume from their
newest snapshot); every run must agree, and the traced run — metrics,
network counters, packet log, masked trace, heap counters — must
reproduce the committed digests.
"""

import pytest

from tests.sim import golden


@pytest.mark.parametrize("name", golden.EXACT_SCENARIOS)
def test_exact_scenario_matches_golden(name, tmp_path):
    result, trace_path = golden.run_scenario(name, str(tmp_path))
    golden.assert_golden(name, result, trace_path)
