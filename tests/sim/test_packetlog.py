"""Tests for per-packet logging."""

import csv
import io

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import (
    PacketLog,
    PacketRecord,
    SimulationConfig,
    run_mesoscopic,
    run_simulation,
)


def record(node=0, delivered=True, attempts=1, window=0, **kwargs):
    defaults = dict(
        node_id=node,
        generated_at_s=0.0,
        window_index=window,
        attempts=attempts,
        delivered=delivered,
        latency_s=2.0,
        utility=1.0,
    )
    defaults.update(kwargs)
    return PacketRecord(**defaults)


class TestPacketLog:
    def test_append_and_iterate(self):
        log = PacketLog()
        log.append(record(0))
        log.append(record(1))
        assert len(log) == 2
        assert [r.node_id for r in log] == [0, 1]

    def test_capacity_evicts_oldest(self):
        log = PacketLog(capacity=2)
        for i in range(4):
            log.append(record(i))
        assert len(log) == 2
        assert log.dropped == 2
        assert [r.node_id for r in log] == [2, 3]

    def test_held_records_wait_for_reappend(self):
        log = PacketLog()
        log.append(record(0))
        log.hold()
        log.append(record(1, delivered=False, attempts=0, energy_drop=True))
        assert (len(log), log.generated, log.energy_drops) == (1, 1, 0)
        held = log.release()
        log.append(record(2))
        for held_record in held:
            log.append(held_record)
        assert [r.node_id for r in log] == [0, 2, 1]
        assert (log.generated, log.energy_drops) == (3, 1)

    def test_for_node(self):
        log = PacketLog()
        log.append(record(0))
        log.append(record(1))
        log.append(record(0))
        assert len(log.for_node(0)) == 2

    def test_failures_filter(self):
        log = PacketLog()
        log.append(record(0, delivered=True))
        log.append(record(1, delivered=False))
        failures = log.failures()
        assert len(failures) == 1
        assert failures[0].node_id == 1

    def test_where_predicate(self):
        log = PacketLog()
        log.append(record(0, attempts=1))
        log.append(record(1, attempts=5))
        heavy = log.where(lambda r: r.retransmissions >= 2)
        assert [r.node_id for r in heavy] == [1]

    def test_retransmissions_property(self):
        assert record(attempts=3).retransmissions == 2
        assert record(attempts=0).retransmissions == 0

    def test_csv_round_shape(self):
        log = PacketLog()
        log.append(record(0))
        lines = log.to_csv().splitlines()
        assert lines[0].startswith("node_id,")
        assert len(lines) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PacketLog(capacity=0)

    def test_no_drop_until_exactly_capacity(self):
        log = PacketLog(capacity=3)
        for i in range(3):
            log.append(record(i))
        assert log.dropped == 0
        assert len(log) == 3
        log.append(record(3))
        assert log.dropped == 1
        assert len(log) == 3

    def test_heavy_eviction_keeps_newest_in_order(self):
        log = PacketLog(capacity=5)
        for i in range(100):
            log.append(record(i))
        assert log.dropped == 95
        assert [r.node_id for r in log] == [95, 96, 97, 98, 99]

    def test_filters_see_only_retained_records(self):
        log = PacketLog(capacity=2)
        log.append(record(0, delivered=False))
        log.append(record(1, delivered=False))
        log.append(record(2, delivered=True))
        assert log.for_node(0) == []
        assert [r.node_id for r in log.failures()] == [1]
        assert [r.node_id for r in log.where(lambda r: True)] == [1, 2]

    def test_csv_round_trip(self):
        log = PacketLog()
        original = record(
            7,
            delivered=False,
            attempts=3,
            window=2,
            generated_at_s=120.5,
            latency_s=600.0,
            utility=0.0,
            energy_drop=True,
        )
        log.append(original)
        rows = list(csv.DictReader(io.StringIO(log.to_csv())))
        assert len(rows) == 1
        row = rows[0]
        rebuilt = PacketRecord(
            node_id=int(row["node_id"]),
            generated_at_s=float(row["generated_at_s"]),
            window_index=int(row["window_index"]),
            attempts=int(row["attempts"]),
            delivered=row["delivered"] == "True",
            latency_s=float(row["latency_s"]),
            utility=float(row["utility"]),
            energy_drop=row["energy_drop"] == "True",
        )
        assert rebuilt == original


@pytest.fixture(scope="module")
def logged_config():
    return SimulationConfig(
        node_count=4,
        duration_s=4 * 3600.0,
        period_range_s=(600.0, 600.0),
        radius_m=100.0,
        record_packets=True,
        seed=3,
    )


class TestEngineIntegration:
    def test_disabled_by_default(self, logged_config):
        result = run_simulation(logged_config.replace(record_packets=False).as_h(0.5))
        assert result.packet_log is None

    def test_exact_engine_logs_every_packet(self, logged_config):
        result = run_simulation(logged_config.as_h(0.5))
        generated = sum(
            n.packets_generated for n in result.metrics.nodes.values()
        )
        assert len(result.packet_log) == generated

    def test_mesoscopic_logs_every_packet(self, logged_config):
        result = run_mesoscopic(logged_config.as_h(0.5))
        generated = sum(
            n.packets_generated for n in result.metrics.nodes.values()
        )
        assert len(result.packet_log) == generated

    def test_log_consistent_with_metrics(self, logged_config):
        result = run_mesoscopic(logged_config.as_lorawan())
        delivered_log = sum(1 for r in result.packet_log if r.delivered)
        delivered_metrics = sum(
            n.packets_delivered for n in result.metrics.nodes.values()
        )
        assert delivered_log == delivered_metrics

    def test_windows_recorded_in_log(self, logged_config):
        result = run_mesoscopic(logged_config.as_lorawan())
        assert all(r.window_index == 0 for r in result.packet_log)
