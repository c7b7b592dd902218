"""Checkpoint saves and loads build no payload-sized buffer.

The benchmark's ``exact_faults`` workload (100 nodes, half a day, a
snapshot every 3 simulated hours) is run to its 9-h snapshot, and
saving and loading that state must stay within 2.5 MiB of tracemalloc
peak above the heap they start from or return.  Before snapshots
streamed and packed their generators, both peaks were about 6.6 MiB
and the file was 1.05 MiB.
"""

import gc
import importlib.util
import os
import sys
import tracemalloc

import pytest

from repro.checkpoint import latest_checkpoint, load_checkpoint, save_checkpoint
from repro.constants import SECONDS_PER_DAY
from repro.sim import SimulationConfig, Simulator

MIB = 1 << 20

WORKLOADS_FILE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "perfbench", "workloads.py"
)


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclass looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def snapshot_at_9h(tmp_path_factory):
    workloads = _workloads()
    config = workloads.WORKLOADS["exact_faults"].config("default", 1)
    config = config.replace(
        checkpoint_every_s=workloads.CHECKPOINT_EVERY_S,
        checkpoint_dir=str(tmp_path_factory.mktemp("exact_faults")),
    )
    Simulator(config).run()
    path = latest_checkpoint(config.checkpoint_dir)
    assert os.path.basename(path) == "ckpt-0000000032400.000.ckpt"
    return path


def _traced(call):
    """``call()``'s result and its tracemalloc peak above the heap it
    started from."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def _traced_load(path):
    """The loaded simulator and the load's tracemalloc peak above what
    the simulator keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        sim, _ = load_checkpoint(path)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return sim, peak - live


def test_save_peak_and_file_size_at_9h(snapshot_at_9h, tmp_path):
    sim, header = load_checkpoint(snapshot_at_9h)
    path, transient = _traced(
        lambda: save_checkpoint(sim, str(tmp_path), header["time_s"], engine="exact")
    )
    assert transient <= 2.5 * MIB
    assert os.path.getsize(path) <= 0.9 * MIB


def test_load_peak_at_9h(snapshot_at_9h):
    sim, transient = _traced_load(snapshot_at_9h)
    assert transient <= 2.5 * MIB
    assert sim.queue.now_s == 9 * 3600.0


def test_payload_size_does_not_reach_the_peak(tmp_path):
    """8 MiB of state raises neither peak: the save streams it to the
    file and the load reads it straight into the restored object."""
    sim = Simulator(SimulationConfig(node_count=2, duration_s=0.1 * SECONDS_PER_DAY, seed=3))
    sim.ballast = os.urandom(8 * MIB)
    path, transient = _traced(lambda: save_checkpoint(sim, str(tmp_path), 0.0, engine="exact"))
    assert os.path.getsize(path) > 8 * MIB
    assert transient <= 2 * MIB
    del sim
    restored, transient = _traced_load(path)
    assert len(restored.ballast) == 8 * MIB
    assert transient <= 2 * MIB
