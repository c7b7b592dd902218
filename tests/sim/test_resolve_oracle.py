"""The sweep's window resolver against the scalar reference resolver.

:func:`repro.sim.mesoscopic.resolve_window` (every contended window) and
``mesoscopic_vec._resolve_single`` (a lone entry with no statics) must
return the same outcomes as the pairwise oracle in
:mod:`tests.sim.resolve_oracle` and leave the generator in the same
state, on windows with mixed spreading factors, one to three gateways,
tied and below-sensitivity RSSI, and static border interferers.
"""

import copy
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import CloudProcess
from repro.lora import LogDistanceLink, SpreadingFactor
from repro.sim import SimulationConfig, mesoscopic_vec, resolve_window
from repro.sim.mesoscopic import MesoNode, StaticAttempt, WindowEntry
from repro.sim.topology import build_topology

from tests.sim import resolve_oracle

MAX_ENTRIES = 12
SFS = (SpreadingFactor.SF7, SpreadingFactor.SF10)
#: Few distinct levels, so exact RSSI ties and capture margins near the
#: 6 dB threshold both occur; -140 dBm is below every SF's sensitivity,
#: and each node may also sit exactly at its own.
RSSI_LEVELS = (-140.0, -125.0, -110.0, -100.0, -96.0, -94.0, -90.0)


def _pool(gateway_count):
    config = SimulationConfig(
        node_count=MAX_ENTRIES,
        gateway_count=gateway_count,
        period_range_s=(960.0, 960.0),
        # Wide enough for SF7-SF12 and some nodes out of range.
        radius_m=12000.0,
        fixed_sf=None,
        seed=gateway_count,
    )
    link = LogDistanceLink(path_loss_exponent=config.path_loss_exponent)
    clouds = CloudProcess(seed=0)
    return [MesoNode(p, config, clouds, link) for p in build_topology(config, link)]


POOLS = {gateways: _pool(gateways) for gateways in (1, 2, 3)}


@st.composite
def windows(draw):
    gateways = draw(st.integers(min_value=1, max_value=3))
    window_s = draw(st.sampled_from((10.0, 60.0, 600.0)))
    count = draw(st.integers(min_value=1, max_value=MAX_ENTRIES))
    entries = []
    for node in POOLS[gateways][:count]:
        node = copy.copy(node)
        if draw(st.booleans()):
            levels = st.sampled_from((*RSSI_LEVELS, node.sensitivity_dbm))
            rssi = draw(st.lists(levels, min_size=gateways, max_size=gateways))
            node.rssi_by_gateway = rssi
            node.rssi_dbm = max(rssi)
        sf = draw(st.none() | st.sampled_from(SFS))
        if sf is not None:
            node.tx_params = node.tx_params.with_spreading_factor(sf)
        immediate = draw(st.booleans())
        offset = draw(st.sampled_from((0.0, 0.1, window_s / 2)) | st.floats(0.0, window_s))
        entries.append(
            WindowEntry(
                node=node,
                immediate=immediate,
                window_index_in_period=0,
                period_start_s=0.0,
                offset_in_window_s=offset,
            )
        )
    channels = draw(st.integers(min_value=1, max_value=8))
    statics = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        start = draw(st.floats(0.0, window_s))
        statics.append(
            StaticAttempt(
                start,
                start + draw(st.sampled_from((0.05, 0.4, 1.5))),
                draw(st.integers(min_value=0, max_value=channels - 1)),
                draw(st.sampled_from(SFS)),
                [10.0 ** (draw(st.sampled_from(RSSI_LEVELS)) / 10.0) for _ in range(gateways)],
            )
        )
    return dict(
        entries=entries,
        window_s=window_s,
        channel_count=channels,
        omega=draw(st.integers(min_value=1, max_value=8)),
        max_retransmissions=draw(st.integers(min_value=0, max_value=8)),
        static_attempts=statics,
    )


def _oracle(seed, **window):
    rng = random.Random(seed)
    return resolve_oracle.resolve_window(rng=rng, **window), rng.getstate()


@given(window=windows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_resolve_window_matches_the_scalar_oracle(window, seed):
    expected, state = _oracle(seed, **window)
    rng = random.Random(seed)
    assert resolve_window(rng=rng, **window) == expected
    assert rng.getstate() == state


@given(window=windows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_single_entry_path_matches_the_scalar_oracle(window, seed):
    entry = window["entries"][0]
    window = dict(window, entries=[entry], static_attempts=[])
    expected, state = _oracle(seed, **window)
    config = SimpleNamespace(
        channel_count=window["channel_count"],
        max_retransmissions=window["max_retransmissions"],
    )
    rng = random.Random(seed)
    outcome = mesoscopic_vec._resolve_single(entry, window["window_s"], config, rng)
    assert {entry.node.node_id: outcome} == expected
    assert rng.getstate() == state
