"""Tests for the US-915 channel plan and channel hopping."""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.lora import (
    BANDWIDTH_125K,
    BANDWIDTH_500K,
    Channel,
    ChannelHopper,
    ChannelPlan,
    us915_downlink_channels,
    us915_uplink_channels,
)


class TestUs915Plan:
    def test_uplink_has_64_plus_8_channels(self):
        channels = us915_uplink_channels()
        assert len(channels) == 72
        assert sum(1 for c in channels if c.bandwidth_hz == BANDWIDTH_125K) == 64
        assert sum(1 for c in channels if c.bandwidth_hz == BANDWIDTH_500K) == 8

    def test_downlink_has_8_channels_of_500k(self):
        channels = us915_downlink_channels()
        assert len(channels) == 8
        assert all(c.bandwidth_hz == BANDWIDTH_500K for c in channels)
        assert all(not c.uplink for c in channels)

    def test_frequencies_inside_ism_band(self):
        for channel in us915_uplink_channels() + us915_downlink_channels():
            assert 902e6 < channel.center_hz < 928e6

    def test_125k_channels_do_not_overlap(self):
        channels = [
            c for c in us915_uplink_channels() if c.bandwidth_hz == BANDWIDTH_125K
        ]
        for a, b in zip(channels, channels[1:]):
            assert not a.overlaps(b)

    def test_overlap_is_symmetric(self):
        a = Channel(0, 902.3e6, BANDWIDTH_125K)
        b = Channel(1, 902.35e6, BANDWIDTH_125K)
        assert a.overlaps(b) and b.overlaps(a)


class TestChannelPlan:
    def test_single_channel_plan(self):
        plan = ChannelPlan().subset(1)
        assert plan.uplink_count == 1

    def test_subset_limits_channels(self):
        assert ChannelPlan().subset(3).uplink_count == 3

    def test_subset_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            ChannelPlan().subset(0)

    def test_rejects_empty_uplink(self):
        with pytest.raises(ConfigurationError):
            ChannelPlan(uplink=[])

    def test_rejects_duplicate_indices(self):
        c = Channel(0, 902.3e6, BANDWIDTH_125K)
        with pytest.raises(ConfigurationError):
            ChannelPlan(uplink=[c, c])


class TestChannelHopper:
    def test_only_returns_enabled_channels(self):
        plan = ChannelPlan().subset(4)
        hopper = ChannelHopper(plan, rng=random.Random(1))
        allowed = {c.index for c in plan.uplink}
        for _ in range(100):
            assert hopper.next_channel().index in allowed

    def test_avoids_immediate_repeat(self):
        plan = ChannelPlan().subset(4)
        hopper = ChannelHopper(plan, rng=random.Random(2))
        previous = hopper.next_channel()
        for _ in range(50):
            current = hopper.next_channel()
            assert current.index != previous.index
            previous = current

    def test_single_channel_plan_always_repeats(self):
        hopper = ChannelHopper(ChannelPlan().subset(1), rng=random.Random(3))
        indices = {hopper.next_channel().index for _ in range(10)}
        assert len(indices) == 1

    def test_roughly_uniform_over_channels(self):
        plan = ChannelPlan().subset(8)
        hopper = ChannelHopper(plan, rng=random.Random(4), avoid_repeat=False)
        counts = {}
        for _ in range(8000):
            idx = hopper.next_channel().index
            counts[idx] = counts.get(idx, 0) + 1
        assert len(counts) == 8
        for count in counts.values():
            assert 800 < count < 1200

