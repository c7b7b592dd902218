"""Tests for the gateway-side degradation service."""

import pytest

from repro.battery import TransitionReport
from repro.core import DegradationService, dequantize_w, quantize_w
from repro.constants import SECONDS_PER_DAY
from repro.exceptions import ConfigurationError


class TestQuantization:
    def test_round_trip_accuracy(self):
        for value in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert dequantize_w(quantize_w(value)) == pytest.approx(value, abs=1 / 255)

    def test_single_byte_range(self):
        assert quantize_w(1.0) == 255
        assert quantize_w(0.0) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            quantize_w(1.5)
        with pytest.raises(ConfigurationError):
            dequantize_w(300)


class TestDegradationService:
    def test_empty_network_w_is_zero(self):
        service = DegradationService()
        assert service.normalized_degradation(1) == 0.0

    def test_normalization_against_max(self):
        service = DegradationService()
        service.set_degradation(1, 0.10)
        service.set_degradation(2, 0.05)
        assert service.normalized_degradation(1) == pytest.approx(1.0)
        assert service.normalized_degradation(2) == pytest.approx(0.5)
        assert service.max_degradation() == pytest.approx(0.10)

    def test_pristine_network_all_zero(self):
        service = DegradationService()
        service.set_degradation(1, 0.0)
        service.set_degradation(2, 0.0)
        assert service.normalized_degradation(1) == 0.0

    def test_ingest_reports_build_trace(self):
        service = DegradationService()
        for period in range(48):
            report = TransitionReport(0, 0.45, 5, 0.5)
            service.ingest_report(1, report, period * 1800.0, 60.0)
        degradation = service.recompute(1, age_s=SECONDS_PER_DAY)
        assert 0 < degradation < 0.01

    def test_recompute_all(self):
        service = DegradationService()
        for node in (1, 2):
            service.ingest_report(node, TransitionReport(0, 0.4, 5, 0.6), 0.0, 60.0)
            service.ingest_report(node, TransitionReport(0, 0.4, 5, 0.6), 1800.0, 60.0)
        service.recompute_all(age_s=SECONDS_PER_DAY)
        assert service._nodes[1].degradation > 0
        assert service.node_count == 2

    def test_dissemination_respects_interval(self):
        service = DegradationService(dissemination_interval_s=SECONDS_PER_DAY)
        service.set_degradation(1, 0.1)
        first = service.ack_payload_byte(1, now_s=0.0)
        assert first is not None
        # Within the same day: no byte piggybacked.
        assert service.ack_payload_byte(1, now_s=3600.0) is None
        # Next day: disseminated again.
        assert service.ack_payload_byte(1, now_s=SECONDS_PER_DAY + 1.0) is not None

    def test_dissemination_per_node_independent(self):
        service = DegradationService()
        service.set_degradation(1, 0.1)
        service.set_degradation(2, 0.1)
        assert service.ack_payload_byte(1, 0.0) is not None
        assert service.ack_payload_byte(2, 0.0) is not None

    def test_disseminated_byte_encodes_w(self):
        service = DegradationService()
        service.set_degradation(1, 0.2)
        service.set_degradation(2, 0.1)
        byte = service.ack_payload_byte(2, 0.0)
        assert dequantize_w(byte) == pytest.approx(0.5, abs=0.01)

    def test_ingest_direct_soc_samples(self):
        service = DegradationService()
        for hour in range(48):
            service.ingest_soc_sample(3, hour * 3600.0, 0.5 + 0.3 * (hour % 2))
        assert service.recompute(3, age_s=2 * SECONDS_PER_DAY) > 0

    def test_recompute_unknown_node_is_noop(self):
        service = DegradationService()
        assert service.recompute(42, age_s=1.0) == 0.0

    def test_set_degradation_validates(self):
        with pytest.raises(ConfigurationError):
            DegradationService().set_degradation(1, 1.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            DegradationService(dissemination_interval_s=0.0)
