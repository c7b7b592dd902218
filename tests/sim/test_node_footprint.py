"""Per-node state of the mesoscopic engine holds no random generator.

No draw of a mesoscopic node needs generator state of its own: shading
factors reseed the calling thread's scratch generator
(:mod:`repro.energy.harvester`) and contention draws come from the
simulator's cell stream.  These checks keep it that way: no
``random.Random`` is reachable from a node of a run cell, a snapshot
stays small per node, and two threads drawing shading factors at once
get the serial bits.
"""

import _random
import gc
import pickle
import sys
import threading
import types

from repro.constants import SECONDS_PER_DAY
from repro.energy.harvester import Harvester
from repro.energy.solar import SolarModel
from repro.sim import MesoscopicSimulator
from repro.sim.topology import build_topology, partition_cells

from tests.sim.golden import telemetry_config

#: Pickled ``MesoscopicSimulator`` bytes per node of the run cell below.
#: Measured 2,898 B; one pickled generator per node adds about 3,800 B.
BYTES_PER_NODE_CEILING = 3_500

#: Objects a walk does not descend into: their referents (class and
#: module dicts, function globals) lead to module-level state such as
#: :mod:`random`'s shared instance, which no node owns.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
)


def run_cell() -> MesoscopicSimulator:
    """The largest cell of a 200-node, 4-gateway telemetry run, run."""
    config = telemetry_config(
        node_count=200, gateway_count=4, duration_s=SECONDS_PER_DAY, seed=1
    )
    cells = partition_cells(build_topology(config))
    cell, placements = max(cells.items(), key=lambda item: len(item[1]))
    sim = MesoscopicSimulator(config, placements=placements, cell_index=cell)
    sim.run()
    return sim


def reachable_generators(roots) -> list:
    """Every generator reachable from ``roots`` through instance state."""
    found = []
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _random.Random):
            found.append(obj)
        elif not isinstance(obj, _OPAQUE):
            stack.extend(gc.get_referents(obj))
    return found


def test_no_generator_reachable_from_a_node():
    sim = run_cell()
    assert len(sim.nodes) > 50
    assert reachable_generators(sim.nodes.values()) == []
    # The walk does find a generator where one is held.
    assert reachable_generators([sim]) == [sim.rng]


def test_snapshot_bytes_per_node():
    sim = run_cell()
    size = len(pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL))
    assert size / len(sim.nodes) < BYTES_PER_NODE_CEILING


def test_concurrent_shading_draws_equal_serial_draws():
    solar = SolarModel(peak_watts=1.0)
    harvesters = [
        Harvester(solar=solar, node_seed=seed, shading_sigma=0.3)
        for seed in (3, 10_007, 123_456_789)
    ]
    indices = range(4_000)

    def draws(order):
        return [h._shading_at(i) for i in indices for h in order]

    serial = draws(harvesters), draws(harvesters[::-1])
    results = [None, None]
    barrier = threading.Barrier(2)

    def worker(slot, order):
        barrier.wait()
        results[slot] = draws(order)

    threads = [
        threading.Thread(target=worker, args=(0, harvesters)),
        threading.Thread(target=worker, args=(1, harvesters[::-1])),
    ]
    interval = sys.getswitchinterval()
    # Switch threads as often as the interpreter allows, so a shared
    # generator would be reseeded between a seed and its draws.
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert tuple(results) == serial
