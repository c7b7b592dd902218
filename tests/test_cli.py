"""Tests for the command-line interface."""

import json
import time

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_mesoscopic_run_prints_metrics(self, capsys):
        code = main(["simulate", "--nodes", "5", "--days", "1", "--policy", "h"])
        assert code == 0
        out = capsys.readouterr().out
        assert "H-50" in out
        assert "lifespan_days" in out
        assert "avg_prr" in out

    def test_lorawan_policy(self, capsys):
        main(["simulate", "--nodes", "5", "--days", "1", "--policy", "lorawan"])
        assert "LoRaWAN" in capsys.readouterr().out

    def test_hc_policy_with_theta(self, capsys):
        main(
            [
                "simulate",
                "--nodes",
                "5",
                "--days",
                "1",
                "--policy",
                "hc",
                "--theta",
                "0.25",
            ]
        )
        assert "H-25C" in capsys.readouterr().out

    def test_exact_engine(self, capsys):
        code = main(
            ["simulate", "--nodes", "4", "--days", "0.5", "--engine", "exact"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: exact" in out
        assert "lifespan_days" not in out  # no extrapolation on exact runs

    def test_seed_changes_output(self, capsys):
        main(["simulate", "--nodes", "5", "--days", "1", "--seed", "1"])
        first = capsys.readouterr().out
        main(["simulate", "--nodes", "5", "--days", "1", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestObservabilityFlags:
    def test_json_output_parses(self, capsys):
        code = main(["simulate", "--nodes", "4", "--days", "0.5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "H-50"
        assert payload["engine"] == "meso"
        assert "avg_prr" in payload["metrics"]
        assert payload["manifest"]["engine"] == "mesoscopic"
        assert "config_hash" in payload["manifest"]

    def test_trace_out_writes_jsonl_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "simulate", "--nodes", "4", "--days", "0.5",
                "--engine", "exact", "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)
        manifest_path = tmp_path / "run.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"] == "exact"
        assert manifest["trace_events"] == len(lines)

    def test_metrics_out_prometheus_and_json(self, tmp_path):
        prom = tmp_path / "m.prom"
        main(["simulate", "--nodes", "4", "--days", "0.5",
              "--metrics-out", str(prom)])
        assert "# TYPE repro_avg_prr gauge" in prom.read_text()
        as_json = tmp_path / "m.json"
        main(["simulate", "--nodes", "4", "--days", "0.5",
              "--metrics-out", str(as_json)])
        assert json.loads(as_json.read_text())["namespace"] == "repro"

    def test_trace_categories_filter(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        main(
            [
                "simulate", "--nodes", "4", "--days", "0.5",
                "--engine", "exact", "--trace-out", str(trace_path),
                "--trace-categories", "packet,engine",
            ]
        )
        categories = {
            json.loads(line)["category"]
            for line in trace_path.read_text().splitlines()
        }
        assert categories <= {"packet", "engine"}


class TestKernelFlags:
    def test_profile_hot_prints_ranked_table(self, capsys):
        code = main(["simulate", "--nodes", "4", "--days", "1",
                     "--profile-hot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hot-loop kernels" in out
        assert "shading.gather" in out

    def test_profile_hot_json_payload(self, capsys):
        code = main(["simulate", "--nodes", "4", "--days", "1",
                     "--profile-hot", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        hot = payload["hot_kernels"]
        assert set(hot) == {"kernels"}
        assert hot["kernels"]["shading.gather"]["calls"] > 0

    def test_profile_hot_metrics_export(self, tmp_path):
        out = tmp_path / "m.json"
        main(["simulate", "--nodes", "4", "--days", "1",
              "--profile-hot", "--metrics-out", str(out)])
        names = {
            metric["name"]
            for metric in json.loads(out.read_text())["metrics"]
        }
        assert "repro_kernel_backend_info" not in names
        assert "repro_kernel_calls_total" in names
        assert "repro_kernel_wall_seconds_total" in names


class TestDietNeedsMesoscopicEngine:
    """The exact engine has no diet profile: the CLI refuses up front."""

    def test_exact_engine_with_diet_exits_2(self, capsys):
        code = main(["simulate", "--nodes", "4", "--days", "0.25",
                     "--engine", "exact", "--memory-profile", "diet"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--memory-profile diet needs the meso engine" in captured.err
        assert captured.out == ""

    def test_faults_switching_to_exact_with_diet_exits_2(self, capsys):
        code = main(["simulate", "--nodes", "4", "--days", "0.25",
                     "--memory-profile", "diet", "--faults", "ack_loss=0.2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "a --faults spec selects it" in err

    def test_exact_sweep_with_diet_exits_2(self, capsys):
        code = main(["sweep", "--nodes", "4", "--days", "0.25", "--seeds", "1",
                     "--engine", "exact", "--memory-profile", "diet"])
        assert code == 2
        assert "needs the meso engine" in capsys.readouterr().err


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        main(["simulate", "--nodes", "4", "--days", "0.5",
              "--engine", "exact", "--trace-out", str(path)])
        return path

    def test_pretty_print_with_filters(self, trace_file, capsys):
        capsys.readouterr()  # drop the simulate output
        code = main(["trace", str(trace_file), "--category", "packet",
                     "--limit", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "packet." in out
        assert "event(s)" in out

    def test_jsonl_reemission(self, trace_file, capsys):
        capsys.readouterr()
        main(["trace", str(trace_file), "--min-severity", "info", "--json"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["severity"] != "debug" for line in lines)

    def test_follow_streams_events_appended_after_start(self, tmp_path, capsys):
        import threading

        path = tmp_path / "live.jsonl"
        first = {"time_s": 0.0, "category": "engine", "severity": "info",
                 "name": "engine.run_started", "fields": {}}
        path.write_text(json.dumps(first) + "\n")
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(["trace", str(path), "--follow", "--json",
                      "--limit", "2", "--poll-interval", "0.05"])
            )
        )
        thread.start()
        # the second event only exists after the follower is already
        # tailing, so seeing it proves tail -f semantics
        time.sleep(0.3)
        second = dict(first, time_s=1.0, name="engine.run_finished")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(second) + "\n")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes == [0]
        out_lines = capsys.readouterr().out.strip().splitlines()
        names = [json.loads(line)["name"] for line in out_lines]
        assert names == ["engine.run_started", "engine.run_finished"]


class TestFigureCommand:
    def test_fig3_fast_and_exact(self, capsys):
        code = main(["figure", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p28" in out and "p29" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "42"])


class TestReplicatesCommand:
    def test_paired_gain_over_one_grid(self, capsys):
        code = main(["replicates", "--nodes", "4", "--days", "0.5", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "running 2 seeds × 2 policies" in out
        assert "LoRaWAN  lifespan" in out and "H-50     lifespan" in out
        assert "paired lifespan gain:" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestSweepCommand:
    def test_sweep_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "SWEEP.json"
        code = main(
            [
                "sweep",
                "--nodes", "5",
                "--days", "0.5",
                "--policies", "lorawan,h",
                "--seeds", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "4 runs" in text
        assert "ok: 4" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.sweep/3"
        assert doc["run_count"] == 4
        assert doc["ok_count"] == 4
        assert doc["error_count"] == 0
        assert [run["index"] for run in doc["runs"]] == [0, 1, 2, 3]
        assert [run["label"] for run in doc["runs"]] == [
            "policy=lorawan,seed=1",
            "policy=lorawan,seed=2",
            "policy=h0.5,seed=1",
            "policy=h0.5,seed=2",
        ]

    def test_sweep_json_output(self, capsys):
        code = main(
            ["sweep", "--nodes", "4", "--days", "0.5", "--seeds", "1", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.sweep/3"
        assert doc["runs"][0]["status"] == "completed"
        assert doc["runs"][0]["summary"]["avg_prr"] >= 0.0

    def test_sweep_axis_override(self, capsys):
        code = main(
            [
                "sweep",
                "--nodes", "4",
                "--days", "0.5",
                "--seeds", "1",
                "--axis", "w_b=0.5,1.0",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_count"] == 2
        labels = [run["label"] for run in doc["runs"]]
        assert labels == ["policy=h0.5,w_b=0.5,seed=1", "policy=h0.5,w_b=1.0,seed=1"]

    def test_sweep_seed_list(self, capsys):
        code = main(
            [
                "sweep",
                "--nodes", "4",
                "--days", "0.5",
                "--seed-list", "7,11",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [run["seed"] for run in doc["runs"]] == [7, 11]

    def test_sweep_rejects_unknown_policy(self, capsys):
        assert main(["sweep", "--policies", "carrier-pigeon"]) == 2

    def test_sweep_rejects_bad_axis(self, capsys):
        assert main(["sweep", "--axis", "nonsense"]) == 2
        assert main(["sweep", "--axis", "no_such_field=1"]) == 2


class TestCheckpointFlags:
    def test_checkpoint_every_requires_dir(self, capsys):
        assert main(["simulate", "--checkpoint-every", "0.5"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_simulate_writes_checkpoints(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        code = main(
            [
                "simulate", "--nodes", "4", "--days", "1",
                "--engine", "exact",
                "--checkpoint-dir", str(ckdir),
                "--checkpoint-every", "0.4",
            ]
        )
        assert code == 0
        names = sorted(p.name for p in ckdir.iterdir())
        assert names and all(n.endswith(".ckpt") for n in names)


class TestResumeCommand:
    def test_resume_reproduces_uninterrupted_summary(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        argv = [
            "simulate", "--nodes", "4", "--days", "1",
            "--engine", "exact", "--seed", "9", "--json",
        ]
        assert main(argv) == 0
        reference = json.loads(capsys.readouterr().out)
        assert main(argv + ["--checkpoint-dir", str(ckdir),
                            "--checkpoint-every", "0.4"]) == 0
        capsys.readouterr()
        newest = sorted(ckdir.iterdir())[-1]
        assert main(["resume", str(newest), "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["metrics"] == reference["metrics"]
        assert resumed["resumed_from_s"] > 0.0

    def test_resume_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.ckpt")]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_corrupted_checkpoint_fails_cleanly(self, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        main(["simulate", "--nodes", "4", "--days", "0.5", "--engine", "exact",
              "--checkpoint-dir", str(ckdir), "--checkpoint-every", "0.25"])
        capsys.readouterr()
        victim = sorted(ckdir.iterdir())[-1]
        data = bytearray(victim.read_bytes())
        data[-5] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert main(["resume", str(victim)]) == 2
        assert "cannot resume" in capsys.readouterr().err


class TestSweepResume:
    def test_resume_skips_finished_cells(self, tmp_path, capsys):
        out = tmp_path / "SWEEP.json"
        argv = ["sweep", "--nodes", "4", "--days", "0.5", "--seeds", "2",
                "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # drop one finished cell, as an interrupted sweep would
        finished = doc["runs"][0]
        doc["runs"] = [finished]
        out.write_text(json.dumps(doc))
        assert main(["sweep", "--resume", str(out)]) == 0
        capsys.readouterr()
        redone = json.loads(out.read_text())
        assert redone["run_count"] == 2
        assert [run["index"] for run in redone["runs"]] == [0, 1]
        # the kept cell is byte-for-byte the original record
        assert redone["runs"][0] == finished

    def test_resume_reads_v2_report(self, tmp_path, capsys):
        out = tmp_path / "SWEEP.json"
        argv = ["sweep", "--nodes", "4", "--days", "0.5", "--seeds", "2",
                "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        fresh = doc["runs"][1]
        # the report as the v2 layout wrote it: no v3 record fields, one
        # cell left unfinished
        v3_fields = ("linear_rates", "simulated_s", "window_histogram",
                     "mean_calendar_aging", "mean_cycle_aging",
                     "total_cycle_aging")
        finished = {k: v for k, v in doc["runs"][0].items() if k not in v3_fields}
        doc["schema"] = "repro.sweep/2"
        doc["runs"] = [finished]
        out.write_text(json.dumps(doc))
        assert main(["sweep", "--resume", str(out)]) == 0
        capsys.readouterr()
        redone = json.loads(out.read_text())
        assert redone["schema"] == "repro.sweep/3"
        assert [run["index"] for run in redone["runs"]] == [0, 1]
        # the kept cell keeps every v2 field and reads None for the rest
        kept = redone["runs"][0]
        assert {k: kept[k] for k in finished} == finished
        assert all(kept[k] is None for k in v3_fields)
        # the re-run cell carries the v3 fields
        assert redone["runs"][1]["linear_rates"] == fresh["linear_rates"]
        assert redone["runs"][1]["window_histogram"] == fresh["window_histogram"]

    def test_resume_rejects_report_without_spec(self, tmp_path, capsys):
        report = tmp_path / "SWEEP.json"
        report.write_text(json.dumps({"schema": "repro.sweep/2", "runs": []}))
        assert main(["sweep", "--resume", str(report)]) == 2
        assert "no embedded grid spec" in capsys.readouterr().err

    def test_resume_rejects_old_schema(self, tmp_path, capsys):
        report = tmp_path / "SWEEP.json"
        report.write_text(json.dumps({"schema": "repro.sweep/1", "runs": []}))
        assert main(["sweep", "--resume", str(report)]) == 2
        assert "schema" in capsys.readouterr().err
