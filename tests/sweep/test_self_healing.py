"""Self-healing sweep execution: crashes, timeouts, retries, resume.

Sweep points run on forked local agents. Worker crashes are injected
deterministically through :class:`~repro.sweep.CrashSpec` (the lease
subprocess SIGKILLs itself right after writing a checkpoint), so these
tests exercise the real supervision path — a lease that ends without a
record, retry from the newest snapshot — without OS-level fault
injection. The scripted-worker faults shared with gateway cells live in
``tests/dist/test_fault_matrix.py``.
"""

import json

import pytest

from repro.constants import SECONDS_PER_DAY
from repro.sim import SimulationConfig
from repro.sweep import (
    SCHEMA,
    CrashSpec,
    RunRecord,
    build_grid,
    run_sweep,
)

#: Keys that legitimately differ between attempts/runs of one config.
TIMING_KEYS = (
    "wall_s",
    "sim_s_per_wall_s",
    "phase_timings_s",
    "python",
    "git_rev",
)

RETRIES_HELP = "Sweep run attempts retried after a crash or timeout"


def _base(days=0.5, nodes=6):
    return SimulationConfig(
        node_count=nodes, duration_s=days * SECONDS_PER_DAY, seed=1
    ).as_h(0.5)


def _comparable(record):
    """Record dict with timing noise and retry bookkeeping removed."""
    data = record.to_dict()
    data["wall_s"] = 0.0
    data["attempts"] = 1
    data["peak_rss_kb"] = None
    data["status"] = "completed" if record.ok else record.status
    if data["manifest"]:
        manifest = dict(data["manifest"])
        for key in TIMING_KEYS:
            manifest.pop(key, None)
        data["manifest"] = manifest
    return data


class TestCrashRecovery:
    def test_injected_crash_is_retried_from_checkpoint(self, tmp_path):
        points = build_grid([("", _base())], [1, 2])
        clean = run_sweep(points, engine="meso", workers=1)
        healed = run_sweep(
            points,
            engine="meso",
            workers=1,
            max_retries=1,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every_s=0.2 * SECONDS_PER_DAY,
            crash_spec=CrashSpec(index=1, after_checkpoints=1),
        )
        crashed = healed.records[1]
        assert crashed.status == "resumed"
        assert crashed.attempts == 2
        assert healed.records[0].status == "completed"
        assert healed.ok_count == 2
        # the crash must not change any simulation result
        assert [_comparable(r) for r in healed.records] == [
            _comparable(r) for r in clean.records
        ]
        retried = healed.metrics.counter("sweep_retries_total", RETRIES_HELP)
        assert retried.value == 1.0

    def test_exhausted_retries_record_failure(self, tmp_path):
        points = build_grid([("", _base())], [1])
        result = run_sweep(
            points,
            engine="meso",
            workers=1,
            max_retries=0,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every_s=0.2 * SECONDS_PER_DAY,
            crash_spec=CrashSpec(index=0, after_checkpoints=1, attempts=99),
        )
        record = result.records[0]
        assert record.status == "failed"
        assert record.attempts == 1
        assert "died without returning a record" in record.error
        assert result.error_count == 1
        assert result.ok_count == 0


class TestTimeouts:
    def test_stuck_run_times_out(self):
        # a run far longer than the budget; the deadline revokes it (its
        # subprocess is SIGTERMed) and, with no retries left, the
        # timeout is recorded
        config = SimulationConfig(
            node_count=30, duration_s=30.0 * SECONDS_PER_DAY, seed=3
        ).as_h(0.5)
        points = build_grid([("", config)], [3])
        result = run_sweep(
            points, engine="exact", workers=1, timeout_s=0.2, max_retries=0
        )
        record = result.records[0]
        assert record.status == "timeout"
        assert "timeout" in record.error
        assert result.error_count == 1

    def test_timeout_must_be_positive(self):
        points = build_grid([("", _base())], [1])
        with pytest.raises(Exception, match="timeout"):
            run_sweep(points, timeout_s=0.0)


class TestResume:
    def test_existing_records_are_not_rerun(self, monkeypatch):
        import repro.sim

        real = repro.sim.run_mesoscopic
        calls = []

        def counting(config):
            calls.append(config.seed)
            return real(config)

        monkeypatch.setattr(repro.sim, "run_mesoscopic", counting)
        points = build_grid([("", _base())], [1, 2, 3])
        first = run_sweep(points, engine="meso", workers=1)
        assert len(calls) == 3
        existing = {r.index: r for r in first.records if r.index != 1}
        calls.clear()
        resumed = run_sweep(
            points, engine="meso", workers=1, existing=existing
        )
        assert calls == [2]  # only the missing cell ran
        assert [r.index for r in resumed.records] == [0, 1, 2]
        assert [_comparable(r) for r in resumed.records] == [
            _comparable(r) for r in first.records
        ]

    def test_report_roundtrips_records(self, tmp_path):
        points = build_grid([("", _base())], [1, 2])
        result = run_sweep(
            points, engine="meso", workers=1, spec={"seeds": 2}
        )
        path = tmp_path / "SWEEP.json"
        result.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["interrupted"] is False
        assert doc["spec"] == {"seeds": 2}
        rebuilt = [RunRecord.from_dict(run) for run in doc["runs"]]
        assert [_comparable(r) for r in rebuilt] == [
            _comparable(r) for r in result.records
        ]
