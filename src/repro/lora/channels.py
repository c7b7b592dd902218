"""US-915 channel plan and pseudo-random channel hopping.

Section II-A: in the US, LoRa operates in the 902–928 MHz ISM band with
64 uplink channels of 125 kHz, 8 uplink channels of 500 kHz, and 8
downlink channels of 500 kHz.  LoRaWAN nodes transmit using pure ALOHA
with pseudo-random channel hopping over the enabled uplink channels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..exceptions import ConfigurationError
from .params import BANDWIDTH_125K, BANDWIDTH_500K


@dataclass(frozen=True)
class Channel:
    """A single LoRa channel: index, center frequency, bandwidth, direction."""

    index: int
    center_hz: float
    bandwidth_hz: int
    uplink: bool = True

    def overlaps(self, other: "Channel") -> bool:
        """Whether two channels' occupied bands overlap in frequency."""
        half_self = self.bandwidth_hz / 2.0
        half_other = other.bandwidth_hz / 2.0
        return abs(self.center_hz - other.center_hz) < (half_self + half_other)


US915_UPLINK_125K_BASE_HZ = 902.3e6
US915_UPLINK_125K_SPACING_HZ = 200e3
US915_UPLINK_500K_BASE_HZ = 903.0e6
US915_UPLINK_500K_SPACING_HZ = 1.6e6
US915_DOWNLINK_500K_BASE_HZ = 923.3e6
US915_DOWNLINK_500K_SPACING_HZ = 600e3


def us915_uplink_channels() -> List[Channel]:
    """The 64 × 125 kHz + 8 × 500 kHz US-915 uplink channels."""
    channels = [
        Channel(
            index=i,
            center_hz=US915_UPLINK_125K_BASE_HZ + i * US915_UPLINK_125K_SPACING_HZ,
            bandwidth_hz=BANDWIDTH_125K,
        )
        for i in range(64)
    ]
    channels.extend(
        Channel(
            index=64 + i,
            center_hz=US915_UPLINK_500K_BASE_HZ + i * US915_UPLINK_500K_SPACING_HZ,
            bandwidth_hz=BANDWIDTH_500K,
        )
        for i in range(8)
    )
    return channels


def us915_downlink_channels() -> List[Channel]:
    """The 8 × 500 kHz US-915 downlink channels."""
    return [
        Channel(
            index=i,
            center_hz=US915_DOWNLINK_500K_BASE_HZ + i * US915_DOWNLINK_500K_SPACING_HZ,
            bandwidth_hz=BANDWIDTH_500K,
            uplink=False,
        )
        for i in range(8)
    ]


@dataclass
class ChannelPlan:
    """A set of enabled uplink channels plus the downlink channels.

    The evaluation uses sub-band 2 style deployments (8 × 125 kHz uplink
    channels) for the large-scale runs and a single channel for the
    testbed, both of which :meth:`subset` can express.
    """

    uplink: List[Channel] = field(default_factory=us915_uplink_channels)
    downlink: List[Channel] = field(default_factory=us915_downlink_channels)

    def __post_init__(self) -> None:
        if not self.uplink:
            raise ConfigurationError("a channel plan needs at least one uplink channel")
        seen = set()
        for channel in self.uplink:
            if channel.index in seen:
                raise ConfigurationError(f"duplicate uplink channel index {channel.index}")
            seen.add(channel.index)

    def subset(self, count: int) -> "ChannelPlan":
        """Restrict the plan to the first ``count`` uplink channels."""
        if not 1 <= count <= len(self.uplink):
            raise ConfigurationError(
                f"count must be in [1, {len(self.uplink)}], got {count}"
            )
        return ChannelPlan(uplink=self.uplink[:count], downlink=self.downlink)

    @property
    def uplink_count(self) -> int:
        """Number of enabled uplink channels."""
        return len(self.uplink)


class ChannelHopper:
    """Pseudo-random uplink channel selection, as LoRaWAN mandates.

    Each call to :meth:`next_channel` draws a uniformly random enabled
    uplink channel, optionally avoiding an immediate repeat (real stacks
    rotate through a shuffled list; uniform choice is statistically
    equivalent for collision modelling).
    """

    def __init__(
        self,
        plan: ChannelPlan,
        rng: Optional[random.Random] = None,
        avoid_repeat: bool = True,
    ) -> None:
        self._plan = plan
        self._rng = rng or random.Random()
        self._avoid_repeat = avoid_repeat and plan.uplink_count > 1
        self._last: Optional[Channel] = None

    @property
    def plan(self) -> ChannelPlan:
        """The channel plan being hopped over."""
        return self._plan

    def next_channel(self) -> Channel:
        """Draw the uplink channel for the next transmission attempt."""
        choices: Sequence[Channel] = self._plan.uplink
        if self._avoid_repeat and self._last is not None:
            choices = [c for c in choices if c.index != self._last.index]
        channel = self._rng.choice(list(choices))
        self._last = channel
        return channel
