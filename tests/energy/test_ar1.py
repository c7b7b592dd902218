"""Tests for the checkpointed AR(1) chain and the weather-model caches.

The regression pinned here: :class:`CloudProcess` must return
*identical* states for any access order — sequential, jump-ahead, or
rewind — while storing only O(max_index / checkpoint_every) state.  Before this subsystem the per-index cache
grew with every distinct index touched.
"""

import random

import pytest

from repro.energy import CheckpointedAR1, CloudProcess, SolarModel
from repro.exceptions import ConfigurationError


def _reference_chain(seed_base, persistence, sigma, upto):
    """The defining recurrence, replayed start-to-finish."""
    states = [0.0]
    state = 0.0
    for i in range(1, upto + 1):
        state = persistence * state + random.Random(seed_base ^ i).gauss(0.0, sigma)
        states.append(state)
    return states


class TestCheckpointedAR1:
    def test_sequential_access_matches_reference(self):
        chain = CheckpointedAR1(12345, 0.9, 0.3)
        reference = _reference_chain(12345, 0.9, 0.3, 300)
        for i in range(301):
            assert chain.state(i) == reference[i]

    def test_random_access_order_is_bit_identical(self):
        reference = _reference_chain(777, 0.85, 0.5, 2000)
        chain = CheckpointedAR1(777, 0.85, 0.5, checkpoint_every=64)
        rng = random.Random(5)
        indices = [rng.randrange(0, 2001) for _ in range(400)]
        for index in indices:
            assert chain.state(index) == reference[index], f"index {index}"

    def test_jump_then_rewind(self):
        reference = _reference_chain(1, 0.9, 0.2, 5000)
        chain = CheckpointedAR1(1, 0.9, 0.2, checkpoint_every=128)
        assert chain.state(5000) == reference[5000]
        assert chain.state(3) == reference[3]  # far rewind
        assert chain.state(4999) == reference[4999]
        assert chain.state(5000) == reference[5000]

    def test_negative_and_zero_index(self):
        chain = CheckpointedAR1(9, 0.9, 0.2)
        assert chain.state(0) == 0.0
        assert chain.state(-5) == 0.0

    def test_checkpoint_memory_is_bounded(self):
        chain = CheckpointedAR1(42, 0.9, 0.2, checkpoint_every=100)
        chain.state(10_000)
        # One checkpoint per `every` indices plus the index-0 anchor —
        # not one entry per index touched like the old dict cache.
        assert chain.checkpoint_count <= 10_000 // 100 + 1

    def test_rejects_bad_checkpoint_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointedAR1(1, 0.9, 0.2, checkpoint_every=0)


class TestCloudProcessAccessOrder:
    def test_sequential_vs_jump_access_identical(self):
        sequential = CloudProcess(seed=11)
        jumpy = CloudProcess(seed=11)
        times = [i * 60.0 for i in range(500)]
        expected = [sequential.factor(t) for t in times]
        shuffled = list(enumerate(times))
        random.Random(2).shuffle(shuffled)
        for i, t in shuffled:
            assert jumpy.factor(t) == expected[i], f"t={t}"

    def test_revisiting_past_times_is_stable(self):
        cloud = CloudProcess(seed=3)
        first = cloud.factor(1234.0)
        cloud.factor(9_999_999.0)  # advance far ahead
        assert cloud.factor(1234.0) == first

    def test_factors_stay_in_unit_interval(self):
        cloud = CloudProcess(seed=8)
        for i in range(0, 100_000, 977):
            assert 0.0 < cloud.factor(float(i)) < 1.0


class TestSolarModelCaches:
    def test_power_memo_matches_fresh_model(self):
        cached = SolarModel(clouds=CloudProcess(seed=5))
        fresh = SolarModel(clouds=CloudProcess(seed=5))
        times = [i * 137.0 for i in range(2000)]
        for t in times:
            cached.power_watts(t)
        for t in reversed(times):  # second pass hits the memo
            assert cached.power_watts(t) == fresh.power_watts(t)

    def test_window_energies_memo_returns_copies(self):
        model = SolarModel(clouds=CloudProcess(seed=6))
        first = model.window_energies(start_s=40_000.0, window_s=60.0, count=5)
        first[0] = -1.0  # mutating the returned list must not poison the cache
        again = model.window_energies(start_s=40_000.0, window_s=60.0, count=5)
        assert again == SolarModel(clouds=CloudProcess(seed=6)).window_energies(
            start_s=40_000.0, window_s=60.0, count=5
        )
        assert again[0] != -1.0
