"""Tests for the uplink payload sizing of the piggybacked battery report."""

import pytest

from repro.battery import TransitionReport
from repro.exceptions import ConfigurationError
from repro.lora import uplink_payload_bytes


class TestPaperFrames:
    def test_uplink_without_report(self):
        assert uplink_payload_bytes(10) == 10

    def test_uplink_with_report_costs_four_bytes(self):
        assert uplink_payload_bytes(10, with_report=True) == 14
        assert TransitionReport.WIRE_SIZE_BYTES == 4

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            uplink_payload_bytes(-1)
