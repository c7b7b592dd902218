"""Tests for confirmed-uplink retry/backoff, stale-``w_u`` decay and reboots."""

import random

import pytest

from repro.core import BatteryLifespanAwareMac, ConfirmedUplinkRetrier
from repro.exceptions import ConfigurationError, ProtocolError
from repro.faults.staleness import effective_degradation, weight_is_stale
from repro.obs import TraceBus
from repro.sim import SimulationConfig, Simulator


class TestConfirmedUplinkRetrier:
    def test_exponential_growth_up_to_cap(self):
        retrier = ConfirmedUplinkRetrier(
            base_s=2.0, factor=2.0, cap_s=16.0, jitter_s=(0.0, 0.0)
        )
        assert [retrier.backoff_s(a) for a in range(1, 6)] == [
            2.0,
            4.0,
            8.0,
            16.0,
            16.0,  # capped
        ]

    def test_jitter_within_bounds(self):
        retrier = ConfirmedUplinkRetrier(jitter_s=(1.0, 3.0))
        rng = random.Random(1)
        for attempt in range(1, 9):
            exponential = min(
                retrier.cap_s, retrier.base_s * retrier.factor ** (attempt - 1)
            )
            backoff = retrier.backoff_s(attempt, rng)
            assert exponential + 1.0 <= backoff <= exponential + 3.0

    def test_deterministic_given_rng(self):
        retrier = ConfirmedUplinkRetrier()
        a = [retrier.backoff_s(n, random.Random(7)) for n in range(1, 9)]
        b = [retrier.backoff_s(n, random.Random(7)) for n in range(1, 9)]
        assert a == b

    def test_exhausted_budget_raises_protocol_error(self):
        retrier = ConfirmedUplinkRetrier(max_retransmissions=3)
        retrier.backoff_s(3, random.Random(0))
        with pytest.raises(ProtocolError):
            retrier.backoff_s(4, random.Random(0))

    def test_attempt_numbering_starts_at_one(self):
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier().backoff_s(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier(base_s=0.0)
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier(factor=0.5)
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier(cap_s=1.0, base_s=2.0)
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier(jitter_s=(3.0, 1.0))
        with pytest.raises(ConfigurationError):
            ConfirmedUplinkRetrier(max_retransmissions=-1)


class TestStaleWeightDecay:
    """The ``w_u`` TTL of :mod:`repro.faults.staleness`."""

    def make_mac(self):
        return BatteryLifespanAwareMac(soc_cap=0.5)

    def test_fresh_weight_used_as_is(self):
        mac = self.make_mac()
        mac.set_normalized_degradation(0.8, received_at_s=0.0)
        assert not weight_is_stale(mac, 100.0, 100.0)
        assert effective_degradation(mac, 100.0, 50.0) == pytest.approx(0.8)
        assert effective_degradation(mac, 100.0, 100.0) == pytest.approx(0.8)

    def test_stale_weight_halves_every_ttl(self):
        mac = self.make_mac()
        mac.set_normalized_degradation(0.8, received_at_s=0.0)
        assert weight_is_stale(mac, 100.0, 150.0)
        bus = TraceBus()
        assert effective_degradation(mac, 100.0, 200.0, bus, 4) == pytest.approx(0.4)
        assert effective_degradation(mac, 100.0, 300.0) == pytest.approx(0.2)
        # The held weight is untouched; only the scored one decays.
        assert mac.normalized_degradation == 0.8
        (event,) = bus.select(name="wu.stale_decay")
        assert (event.time_s, event.node_id) == (200.0, 4)
        assert event.fields == {
            "held_w_u": 0.8,
            "effective_w_u": pytest.approx(0.4),
            "age_s": 200.0,
            "ttl_s": 100.0,
        }

    def test_no_ttl_trusts_weight_forever(self):
        mac = self.make_mac()
        mac.set_normalized_degradation(0.8, received_at_s=0.0)
        assert not weight_is_stale(mac, None, 1e9)
        assert effective_degradation(mac, None, 1e9) == pytest.approx(0.8)

    def test_unstamped_weight_never_goes_stale(self):
        mac = self.make_mac()
        mac.set_normalized_degradation(0.8)
        assert not weight_is_stale(mac, 100.0, 1e9)
        assert effective_degradation(mac, 100.0, 1e9) == pytest.approx(0.8)

    def test_zero_ttl_rejected(self):
        for ttl_s in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                SimulationConfig(w_u_ttl_s=ttl_s)


class TestReboot:
    """A reboot boots a fresh MAC (``Simulator._reboot_node``)."""

    def make_node(self):
        simulator = Simulator(
            SimulationConfig(node_count=2, duration_s=3600.0, seed=3).as_h(0.5)
        )
        return simulator, simulator.nodes[0]

    def test_reboot_wipes_weight_and_stamp(self):
        simulator, node = self.make_node()
        node.mac.set_normalized_degradation(0.8, received_at_s=0.0)
        simulator._reboot_node(node)
        assert node.mac.normalized_degradation == 0.0
        assert node.mac.weight_received_at_s is None
        assert effective_degradation(node.mac, 100.0, 500.0) == 0.0
        assert node.needs_weight_refresh

    def test_reboot_resets_estimators(self):
        simulator, node = self.make_node()
        booted = node.mac
        nominal = booted.tx_energy_estimate_j
        booted.observe_result(
            window_index=0, retransmissions=5, actual_tx_energy_j=0.5
        )
        assert booted.tx_energy_estimate_j > nominal
        assert booted.retransmission_estimator.expected_retransmissions(0) > 0.0
        simulator._reboot_node(node)
        assert node.mac is not booted
        assert node.mac.tx_energy_estimate_j == nominal
        assert node.mac.retransmission_estimator.expected_retransmissions(0) == 0.0
