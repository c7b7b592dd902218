"""Placement invariance: local agents == 1 remote worker == 2 workers.

The dist plane's load-bearing contract — where a cell runs must not be
observable in the merged result.  These tests run the same topology
through forked local agents and through real ``repro worker`` agent
subprocesses over TCP, and compare fingerprints (node metrics, packet
logs, monthly series, linear rates) bitwise, in the exact profile, the
diet profile, under crash-injected lease failures and under the loss
of a whole agent.
"""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.dist.coordinator import DistServer, DistTransport
from repro.obs import Observability
from repro.sim.sharded import run_sharded
from repro.sweep.executor import CrashSpec

from tests.sim.test_sharded import fingerprint, manifest_core, sharded_config


def dist_config(**overrides):
    defaults = dict(node_count=24, gateway_count=3, shards=3)
    defaults.update(overrides)
    return sharded_config(**defaults)


def _spawn_workers(port, count):
    env = dict(os.environ)
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--name",
                f"test-worker-{index}",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for index in range(count)
    ]


def run_dist(config, n_workers, min_workers=None, **transport_kwargs):
    """One distributed run; returns (result, worker exit codes, obs)."""
    obs = Observability()
    server = DistServer()
    workers = []
    try:
        workers = _spawn_workers(server.bound_port, n_workers)
        transport = DistTransport(
            server,
            min_workers=min_workers if min_workers is not None else n_workers,
            **transport_kwargs,
        )
        result = run_sharded(config, obs=obs, transport=transport)
    finally:
        server.shutdown()
        codes = []
        for process in workers:
            try:
                codes.append(process.wait(timeout=30))
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                codes.append(process.wait())
    return result, codes, obs


@pytest.fixture(scope="module")
def local_result():
    return run_sharded(dist_config())


class TestPlacementInvariance:
    def test_one_remote_worker_matches_local(self, local_result):
        result, codes, _obs = run_dist(dist_config(), n_workers=1)
        assert fingerprint(result) == fingerprint(local_result)
        assert manifest_core(result) == manifest_core(local_result)
        assert codes == [0]

    def test_two_remote_workers_match_local(self, local_result):
        result, codes, obs = run_dist(dist_config(), n_workers=2)
        assert fingerprint(result) == fingerprint(local_result)
        assert manifest_core(result) == manifest_core(local_result)
        assert codes == [0, 0]
        text = obs.metrics.to_prometheus()
        assert "dist_cells_total" in text
        assert "dist_workers" in text

    def test_diet_profile_invariant(self):
        local = run_sharded(dist_config(memory_profile="diet"))
        remote, codes, _obs = run_dist(
            dist_config(memory_profile="diet"), n_workers=2
        )
        assert fingerprint(remote) == fingerprint(local)
        assert codes == [0, 0]


class TestCrashInjectedWorkerLoss:
    def test_killed_worker_costs_at_most_one_cell(self, local_result, tmp_path):
        """SIGKILL-ing the lease subprocess simulating cell 0 (via the
        deterministic crash hook) must cost at most that one cell's
        progress: the cell resumes from its checkpoints and the merged
        result stays bitwise identical."""
        config = dist_config(
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every_s=6 * 3600.0,
        )
        result, codes, obs = run_dist(
            config,
            n_workers=2,
            min_workers=1,
            max_retries=2,
            crash_spec=CrashSpec(index=0, attempts=1, after_checkpoints=1),
        )
        assert fingerprint(result) == fingerprint(local_result)
        # A dead lease subprocess is a failed attempt, not a lost agent:
        # both agents keep serving and shut down cleanly.
        assert sorted(codes) == [0, 0]
        text = obs.metrics.to_prometheus()
        assert 'status="resumed"' in text

    def test_killed_local_agent_is_redispatched(
        self, local_result, tmp_path, monkeypatch
    ):
        """SIGKILL one forked local agent once the first cell checkpoint
        lands: its cell is re-dispatched to the surviving agent, which
        resumes it, and the merged result stays bitwise identical."""
        from repro.checkpoint import core

        marker = str(tmp_path / "killed")

        def kill_agent_once(path, time_s):
            # Runs in a lease subprocess (the hook is inherited through
            # the forks); its parent is the agent holding the lease.
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return
            os.kill(os.getppid(), signal.SIGKILL)

        monkeypatch.setattr(core, "_post_save_hook", kill_agent_once)
        obs = Observability()
        result = run_sharded(
            dist_config(
                checkpoint_dir=str(tmp_path / "ckpt"),
                checkpoint_every_s=6 * 3600.0,
            ),
            obs=obs,
            workers=2,
        )
        assert os.path.exists(marker)
        assert fingerprint(result) == fingerprint(local_result)
        assert 'status="redispatched"' in obs.metrics.to_prometheus()
