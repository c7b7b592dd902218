"""Random generators survive snapshots draw for draw.

Snapshot payloads reduce every exact ``random.Random`` to its packed
Mersenne Twister words (``repro.checkpoint.core._reduce_random``).
These tests check that every generator a snapshot holds resumes to the
same draws as its uninterrupted twin, that snapshots written with
pickle's default reduction still resume to the golden digests, and that
pickles made outside snapshots do not change.
"""

import copyreg
import hashlib
import json
import pickle
import random

from repro.checkpoint import latest_checkpoint, load_checkpoint, resume, save_checkpoint
from repro.constants import SECONDS_PER_DAY
from repro.sim import SimulationConfig, Simulator, run_simulation
from tests.sim import golden

DRAWS = 1000


class _NullSink:
    def write(self, data):
        pass


class _GeneratorCollector(pickle.Pickler):
    """Walks an object the way its snapshot does and lists, in pickling
    order, every exact ``random.Random`` the snapshot holds."""

    def __init__(self):
        super().__init__(_NullSink(), protocol=pickle.HIGHEST_PROTOCOL)
        self.generators = []

    def reducer_override(self, obj):
        if type(obj) is random.Random:
            self.generators.append(obj)
        return NotImplemented


def snapshot_generators(sim):
    collector = _GeneratorCollector()
    collector.dump(sim)
    return collector.generators


def test_every_resumed_generator_draws_like_its_twin(tmp_path, monkeypatch):
    """Runs ``exact-faults``, recording every snapshot generator's state
    (by ``getstate``, not pickle) as each snapshot is taken, and checks
    the generators of the resumed newest snapshot against those."""
    every_s = golden.EXACT_CHECKPOINT_EVERY_S["exact-faults"]
    config = golden.with_checkpoints(golden.exact_faults_config(), str(tmp_path), every_s)
    states = {}

    def recording_save(sim, directory, time_s, engine):
        states[time_s] = [rng.getstate() for rng in snapshot_generators(sim)]
        return save_checkpoint(sim, directory, time_s, engine=engine)

    monkeypatch.setattr("repro.sim.engine.save_checkpoint", recording_save)
    run_simulation(config)
    sim, header = resume(latest_checkpoint(config.checkpoint_dir))
    generators = snapshot_generators(sim)
    twins = states[header["time_s"]]
    assert len(generators) == len(twins)

    held = {id(rng) for rng in generators}
    assert id(sim.rng) in held
    assert all(id(node.rng) in held for node in sim.nodes.values())
    fault_streams = sim.injector._ack_channel._rngs
    assert fault_streams
    assert all(id(rng) in held for rng in fault_streams.values())

    for rng, state in zip(generators, twins):
        twin = random.Random()
        twin.setstate(state)
        assert [rng.random() for _ in range(DRAWS)] == [
            twin.random() for _ in range(DRAWS)
        ]


def test_generator_with_pending_gauss_round_trips(tmp_path):
    sim = Simulator(SimulationConfig(node_count=2, duration_s=0.1 * SECONDS_PER_DAY, seed=3))
    sim.rng.gauss(0.0, 1.0)
    assert sim.rng.gauss_next is not None
    twin = random.Random()
    twin.setstate(sim.rng.getstate())
    path = save_checkpoint(sim, str(tmp_path), 0.0, engine="exact")
    restored, _ = load_checkpoint(path)
    assert restored.rng.gauss_next == twin.gauss_next
    assert [restored.rng.gauss(0.0, 1.0) for _ in range(DRAWS)] == [
        twin.gauss(0.0, 1.0) for _ in range(DRAWS)
    ]


def test_snapshot_with_default_generator_pickles_resumes_to_golden(tmp_path):
    """A snapshot whose generators were pickled by the default reduction
    (``getstate()`` tuples, as written before snapshots packed them)
    resumes to the pinned digests."""
    every_s = golden.EXACT_CHECKPOINT_EVERY_S["exact-faults"]
    config = golden.with_checkpoints(
        golden.exact_faults_config(), str(tmp_path), every_s
    )
    run_simulation(config)
    path = latest_checkpoint(config.checkpoint_dir)
    assert b"_restore_random" in open(path, "rb").read()
    sim, header = load_checkpoint(path)
    # The envelope exactly as it was written before generator packing.
    payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"_restore_random" not in payload
    header.update(
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_bytes=len(payload),
    )
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        handle.write(payload)

    resumed, _ = resume(path)
    expected = golden.load()["exact-faults-resumed"]
    assert golden.exact_digests(resumed.run()) == {
        key: value for key, value in expected.items() if key != "trace"
    }


def test_pickles_outside_snapshots_keep_the_default_reduction(tmp_path):
    sim = Simulator(SimulationConfig(node_count=2, duration_s=0.1 * SECONDS_PER_DAY, seed=3))
    save_checkpoint(sim, str(tmp_path), 0.0, engine="exact")
    assert random.Random not in copyreg.dispatch_table
    # ``pickle.dumps(random.Random(5), protocol=4)`` (4 is the default
    # protocol from Python 3.8 to 3.13) as it was before snapshots
    # packed generators.
    assert hashlib.sha256(pickle.dumps(random.Random(5), protocol=4)).hexdigest() == (
        "e2711b364f8ef14c764368190ca90944a04d962c72cb970deb256f59b7e2a38a"
    )
    assert b"_restore_random" not in pickle.dumps(random.Random(5))
