"""Tests for the collision/capture model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.lora import (
    CollisionDetector,
    SpreadingFactor,
    Transmission,
    survives_capture,
)


def tx(node=0, start=0.0, dur=0.25, ch=0, sf=SpreadingFactor.SF10, rssi=-100.0, attempt=0):
    return Transmission(
        node_id=node,
        start_s=start,
        duration_s=dur,
        channel_index=ch,
        spreading_factor=sf,
        rssi_dbm=rssi,
        attempt=attempt,
    )


class TestTransmission:
    def test_rejects_non_positive_duration(self):
        with pytest.raises(ConfigurationError):
            tx(dur=0.0)

    def test_time_overlap_strict(self):
        a, b = tx(start=0.0, dur=1.0), tx(node=1, start=1.0, dur=1.0)
        assert not a.overlaps_in_time(b)

    def test_overlapping_same_channel_same_sf_interferes(self):
        assert tx().interferes_with(tx(node=1, start=0.1))

    def test_different_channel_does_not_interfere(self):
        assert not tx().interferes_with(tx(node=1, ch=1, start=0.1))

    def test_different_sf_does_not_interfere(self):
        # Spreading factors are quasi-orthogonal.
        assert not tx().interferes_with(tx(node=1, sf=SpreadingFactor.SF9, start=0.1))


class TestCapture:
    def test_no_interferers_always_survives(self):
        assert survives_capture(tx(), [])

    def test_strong_signal_captures_over_weak(self):
        victim = tx(rssi=-80.0)
        weak = tx(node=1, start=0.1, rssi=-95.0)
        assert survives_capture(victim, [weak])

    def test_weak_signal_lost_to_strong(self):
        victim = tx(rssi=-95.0)
        strong = tx(node=1, start=0.1, rssi=-80.0)
        assert not survives_capture(victim, [strong])

    def test_equal_power_signals_both_lose(self):
        a, b = tx(rssi=-90.0), tx(node=1, start=0.1, rssi=-90.0)
        assert not survives_capture(a, [b])
        assert not survives_capture(b, [a])

    def test_margin_exactly_at_threshold_survives(self):
        victim = tx(rssi=-84.0)
        other = tx(node=1, start=0.1, rssi=-90.0)
        assert survives_capture(victim, [other], capture_threshold_db=6.0)

    def test_aggregate_interference_defeats_capture(self):
        # Two interferers each 7 dB below sum to ~4 dB below: capture fails.
        victim = tx(rssi=-83.0)
        others = [
            tx(node=1, start=0.1, rssi=-90.0),
            tx(node=2, start=0.05, rssi=-90.0),
        ]
        assert not survives_capture(victim, others)


class TestCollisionDetector:
    def test_lone_transmission_survives(self):
        det = CollisionDetector()
        t = tx()
        det.begin(t)
        assert det.end(t) is True

    def test_two_equal_overlapping_both_lost(self):
        det = CollisionDetector()
        a, b = tx(), tx(node=1, start=0.1)
        det.begin(a)
        det.begin(b)
        assert det.end(a) is False
        assert det.end(b) is False

    def test_capture_lets_strong_one_survive(self):
        det = CollisionDetector()
        strong, weak = tx(rssi=-70.0), tx(node=1, start=0.1, rssi=-95.0)
        det.begin(strong)
        det.begin(weak)
        assert det.end(strong) is True
        assert det.end(weak) is False

    def test_capture_disabled_kills_both(self):
        det = CollisionDetector(capture_effect=False)
        strong, weak = tx(rssi=-70.0), tx(node=1, start=0.1, rssi=-95.0)
        det.begin(strong)
        det.begin(weak)
        assert det.end(strong) is False

    def test_sequential_non_overlapping_survive(self):
        det = CollisionDetector()
        a = tx(start=0.0, dur=0.2)
        det.begin(a)
        assert det.end(a) is True
        b = tx(node=1, start=0.5, dur=0.2)
        det.begin(b)
        assert det.end(b) is True

    def test_end_unregistered_raises(self):
        det = CollisionDetector()
        with pytest.raises(ConfigurationError):
            det.end(tx())

    def test_active_count_tracks(self):
        det = CollisionDetector()
        a, b = tx(), tx(node=1, ch=1)
        det.begin(a)
        det.begin(b)
        assert det._active == [a, b]
        det.end(a)
        assert det._active == [b]

