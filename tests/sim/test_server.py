"""Tests for the network-server model."""

import pytest

from repro.battery import TransitionReport
from repro.constants import SECONDS_PER_DAY
from repro.sim import NetworkServer


class TestNetworkServer:
    def test_first_uplink_gets_w_byte(self):
        server = NetworkServer()
        payload = server.handle_uplink(1, now_s=10.0)
        assert payload.w_byte is not None
        assert payload.extra_bytes == 1

    def test_same_day_uplinks_carry_no_overhead(self):
        server = NetworkServer()
        server.handle_uplink(1, now_s=10.0)
        payload = server.handle_uplink(1, now_s=3600.0)
        assert payload.w_byte is None
        assert payload.extra_bytes == 0

    def test_next_day_disseminates_again(self):
        server = NetworkServer()
        server.handle_uplink(1, now_s=10.0)
        payload = server.handle_uplink(1, now_s=SECONDS_PER_DAY + 20.0)
        assert payload.w_byte is not None

    def test_w_u_decoded_from_byte(self):
        server = NetworkServer()
        server.publish_degradation(1, 0.1)
        server.publish_degradation(2, 0.2)
        payload = server.handle_uplink(1, now_s=5.0)
        assert payload.w_u == pytest.approx(0.5, abs=0.01)

    def test_reports_feed_degradation_service(self):
        server = NetworkServer()
        for period in range(48):
            server.handle_uplink(
                1,
                now_s=period * 1800.0,
                report=TransitionReport(0, 0.45, 5, 0.5),
                period_start_s=period * 1800.0,
                window_s=60.0,
            )
        server.recompute_degradations(age_s=SECONDS_PER_DAY)
        assert server.service._nodes[1].degradation > 0

    def test_counters(self):
        server = NetworkServer()
        server.handle_uplink(1, now_s=1.0)
        server.handle_uplink(1, now_s=2.0)
        assert server.uplinks_received == 2
        assert server.disseminations_sent == 1
