"""Tests for gateway-cell sharding (``repro.sim.sharded``).

The load-bearing property is *shard-count invariance*: results depend
only on the gateway-cell decomposition (``gateway_count``), never on how
cells are packed into shard processes, so 1, 2, and 4 shards of the
same topology must produce bit-identical metrics, packet logs, and
manifests (modulo wall-clock fields).
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.constants import SECONDS_PER_DAY
from repro.sim import SimulationConfig, run_mesoscopic
from repro.sim.sharded import run_sharded
from repro.sweep.executor import CrashSpec
from repro.sweep.spec import VOLATILE_MANIFEST_KEYS

from tests.sim import golden


def sharded_config(**overrides):
    defaults = dict(
        node_count=36,
        gateway_count=4,
        duration_s=1 * SECONDS_PER_DAY,
        period_range_s=(960.0, 1200.0),
        radius_m=2000.0,
        record_packets=True,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def fingerprint(result):
    """Everything a shard repacking could possibly perturb."""
    nodes = {
        nid: dataclasses.astuple(m)
        for nid, m in sorted(result.metrics.nodes.items())
    }
    monthly = [
        (s.month, s.max_degradation, s.mean_degradation)
        for s in result.monthly
    ]
    packets = None
    counters = None
    if result.packet_log is not None:
        packets = sorted(dataclasses.astuple(r) for r in result.packet_log)
        log = result.packet_log
        counters = (log.generated, log.delivered, log.attempts, log.energy_drops)
    return (nodes, monthly, sorted(result.linear_rates.items()), packets, counters)


def manifest_core(result):
    doc = {
        k: v
        for k, v in result.manifest.to_dict().items()
        if k not in VOLATILE_MANIFEST_KEYS
    }
    doc.pop("events_executed", None)  # summed per-cell, order-free anyway
    return doc


class TestShardCountInvariance:
    def test_one_two_four_shards_identical(self):
        results = {
            shards: run_sharded(sharded_config(shards=shards))
            for shards in (1, 2, 4)
        }
        base = fingerprint(results[1])
        assert fingerprint(results[2]) == base
        assert fingerprint(results[4]) == base

    def test_manifests_identical_modulo_volatile(self):
        results = [
            run_sharded(sharded_config(shards=shards)) for shards in (1, 4)
        ]
        assert manifest_core(results[0]) == manifest_core(results[1])
        for result in results:
            assert result.manifest.to_dict()["engine"] == "mesoscopic-sharded"

    def test_config_hash_ignores_shard_count(self):
        hashes = {
            run_sharded(sharded_config(shards=s)).manifest.to_dict()["config_hash"]
            for s in (1, 2, 4)
        }
        assert len(hashes) == 1

    def test_run_mesoscopic_dispatches_to_sharded(self):
        config = sharded_config(shards=2)
        via_dispatch = run_mesoscopic(config)
        direct = run_sharded(config)
        assert fingerprint(via_dispatch) == fingerprint(direct)

    def test_diet_profile_stays_invariant(self):
        results = [
            run_sharded(sharded_config(shards=s, memory_profile="diet"))
            for s in (1, 4)
        ]
        assert fingerprint(results[0]) == fingerprint(results[1])

    def test_sharded_matches_golden_digests(self):
        golden.assert_golden("sharded", run_sharded(sharded_config(shards=2)))


class TestShardFaultTolerance:
    def test_crash_injected_shard_retries_bitwise(self, tmp_path):
        clean = run_sharded(sharded_config(shards=2))
        crashed = run_sharded(
            sharded_config(
                shards=2,
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_every_s=6 * 3600.0,
            ),
            max_retries=2,
            crash_spec=CrashSpec(index=0, attempts=1, after_checkpoints=1),
        )
        assert fingerprint(crashed) == fingerprint(clean)

    def test_fault_plan_via_cli_is_shard_invariant(self, capsys):
        # A fault plan forces the exact engine, which has no cell
        # decomposition: --shards must be ignored, not change results.
        argv = [
            "simulate", "--nodes", "8", "--days", "1", "--gateways", "2",
            "--seed", "3", "--faults", "ack_loss=0.2,seed=7", "--json",
        ]
        assert main(argv) == 0
        without = json.loads(capsys.readouterr().out)
        assert main(argv + ["--shards", "2"]) == 0
        with_shards = json.loads(capsys.readouterr().out)
        for doc in (without, with_shards):
            doc["manifest"] = {
                k: v
                for k, v in doc["manifest"].items()
                if k not in VOLATILE_MANIFEST_KEYS
            }
        assert with_shards == without


class TestShardValidation:
    def test_shards_require_mesoscopic_tracing_off(self):
        config = sharded_config(shards=2, trace=True)
        with pytest.raises(Exception):
            run_sharded(config)

    def test_more_shards_than_gateways_rejected(self):
        with pytest.raises(Exception):
            sharded_config(gateway_count=2, shards=3)

    def test_unsharded_config_rejected(self):
        with pytest.raises(Exception):
            run_sharded(sharded_config(shards=None))

    def test_non_empty_fault_plan_rejected(self):
        from repro.exceptions import ConfigurationError
        from repro.faults import FaultPlan

        config = sharded_config(
            shards=2, faults=FaultPlan(ack_loss_probability=0.2)
        )
        with pytest.raises(ConfigurationError, match="exact engine"):
            run_sharded(config)

    def test_w_u_ttl_rejected(self):
        from repro.exceptions import ConfigurationError

        config = sharded_config(shards=2, w_u_ttl_s=3600.0)
        with pytest.raises(ConfigurationError, match="w_u_ttl_s needs the exact engine"):
            run_sharded(config)

    def test_empty_fault_plan_allowed(self):
        from repro.faults import FaultPlan

        config = sharded_config(shards=2, duration_s=0.25 * SECONDS_PER_DAY)
        plain = run_sharded(config)
        empty = run_sharded(config.replace(faults=FaultPlan()))
        assert fingerprint(empty) == fingerprint(plain)


class TestLocalDispatchOrder:
    def test_largest_shard_is_submitted_first(self, tmp_path):
        # Cells of 3, 5, 5 and 1 nodes are leased by descending node
        # count, ties by cell index, whichever agents run them.
        from repro.dist.coordinator import CellWork
        from repro.obs import MetricsRegistry
        from repro.sim.sharded import RoundRequest

        from tests.dist.test_fault_matrix import CellKind, ScriptClient, drive

        sizes = {0: 3, 1: 5, 2: 5, 3: 1}
        cells = sorted(sizes)
        work = CellWork(
            RoundRequest(
                round_no=1,
                config=sharded_config(shards=4),
                cell_ids=cells,
                placements_by_cell={c: [None] * n for c, n in sizes.items()},
                export_by_cell={},
                foreign_by_cell={},
                spill_by_cell={c: str(tmp_path / f"cell{c}.jsonl") for c in cells},
                ckpt_by_cell={},
                registry=MetricsRegistry(),
            )
        )
        leased = []

        def one_slot_worker(server):
            client = ScriptClient(server, "w", slots=1)

            def on_lease(lease):
                leased.append(lease["cell"])
                CellKind.complete(client, lease)

            client.serve(on_lease)

        drive(work, [one_slot_worker])
        assert leased == [1, 2, 0, 3]
        assert sorted(work.outcomes) == cells
