"""Shading-table gather ≡ the scalar per-index expression.

Each factor is a pure function of its node seed and grid index (seeded
``random.Random`` draw), so every gather from a :class:`ShadingTable`
must hand back the exact float :meth:`Harvester._shading_at` computes —
under both memory profiles (float64 exact / float32 diet), for
duplicates, same-slot collisions inside one call, evictions across
calls, and repeat gathers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import Harvester, SolarModel
from repro.exceptions import ConfigurationError
from repro.kernels import shading


def _harvester(seed=42, **kwargs):
    return Harvester(solar=SolarModel(), node_seed=seed, **kwargs)


def _table(count=1, width=8, **kwargs):
    harvesters = [_harvester(seed=42 + row, **kwargs) for row in range(count)]
    return harvesters, shading.ShadingTable(harvesters, width)


def _scalar_factors(harvesters, indices, rows):
    return [
        harvesters[int(row)]._shading_at(int(index))
        for row, index in zip(rows, indices)
    ]


def _count_draws(monkeypatch):
    drawn = []
    original = Harvester._shading_at

    def counting(self, index):
        drawn.append((self.node_seed, index))
        return original(self, index)

    monkeypatch.setattr(Harvester, "_shading_at", counting)
    return drawn


class TestGatherEquivalence:
    @pytest.mark.parametrize("diet", [False, True])
    def test_matches_scalar_expression(self, diet):
        harvesters, table = _table(count=3, diet=diet)
        indices = np.array([3, 7, 7, 11, 3, 200, 199, 15], dtype=np.int64)
        rows = np.array([0, 1, 1, 2, 0, 2, 0, 1], dtype=np.int64)
        gathered = shading.gather(table, indices, rows)
        assert gathered.dtype == np.float64
        assert gathered.tolist() == _scalar_factors(harvesters, indices, rows)

    @pytest.mark.parametrize("diet", [False, True])
    def test_matches_scalar_cache_path(self, diet):
        # The scalar engine reads through _shading_factor (per-index
        # dict cache); the batch path must hold the same number.
        harvester = _harvester(diet=diet)
        times = np.arange(20) * harvester.shading_step_s + 7.0
        gathered = harvester.shading_factors_batch(times)
        scalar = [harvester._shading_factor(t) for t in times]
        assert gathered.tolist() == scalar

    def test_repeat_gathers_are_stable(self, monkeypatch):
        _, table = _table(width=64)
        indices = np.arange(50, dtype=np.int64)
        first = shading.gather(table, indices, 0)
        drawn = _count_draws(monkeypatch)
        second = shading.gather(table, indices, 0)
        assert first.tolist() == second.tolist()
        assert drawn == []  # every index was a table hit

    def test_window_trim_preserves_values(self):
        # Marching far past the table width evicts early indices; an
        # evicted index is redrawn, never read back corrupted.
        harvesters, table = _table(diet=True)
        early = np.arange(10, dtype=np.int64)
        expected_early = _scalar_factors(harvesters, early, [0] * 10)
        shading.gather(table, early, 0)
        far = np.arange(table.width * 3, table.width * 3 + 10, dtype=np.int64)
        shading.gather(table, far, 0)
        again = shading.gather(table, early, 0)
        assert again.tolist() == expected_early

    def test_zero_sigma_is_all_ones_without_draws(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        _, table = _table(shading_sigma=0.0)
        gathered = shading.gather(table, np.arange(8, dtype=np.int64), 0)
        assert gathered.tolist() == [1.0] * 8
        assert drawn == []

    def test_empty_gather(self):
        _, table = _table()
        empty = np.empty(0, dtype=np.int64)
        assert shading.gather(table, empty, empty).size == 0

    def test_diet_values_are_float32_rounded(self):
        _, exact = _table(diet=False)
        _, diet = _table(diet=True)
        indices = np.arange(16, dtype=np.int64)
        exact_vals = shading.gather(exact, indices, 0)
        diet_vals = shading.gather(diet, indices, 0)
        assert diet.values.dtype == np.float32
        assert diet_vals.tolist() == [
            float(np.float32(value)) for value in exact_vals
        ]


class TestShadingTable:
    def test_same_slot_collisions_in_one_call(self):
        # Indices 1, 9, 17 all map to slot 1 of an 8-wide row; each
        # must come back with its own value, duplicates included.
        harvesters, table = _table(count=2)
        indices = np.array([1, 9, 17, 9, 1, 17, 1], dtype=np.int64)
        rows = np.array([0, 0, 0, 0, 1, 1, 0], dtype=np.int64)
        gathered = shading.gather(table, indices, rows)
        assert gathered.tolist() == _scalar_factors(harvesters, indices, rows)
        # Whatever survived in the slot is a consistent (tag, value) pair.
        for row in range(2):
            tag = int(table.tags[row, 1])
            value = float(table.values[row, 1])
            assert value == harvesters[row]._shading_at(tag)

    def test_duplicates_draw_once(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        _, table = _table(count=2, width=16)
        indices = np.array([4, 4, 4, 5, 4, 5], dtype=np.int64)
        rows = np.array([0, 0, 1, 0, 1, 0], dtype=np.int64)
        shading.gather(table, indices, rows)
        assert sorted(drawn) == [(42, 4), (42, 5), (43, 4)]

    def test_night_slots_are_never_drawn(self, monkeypatch):
        # The sweep masks night points out of its gathers; only the
        # daytime indices it passes may ever be drawn.
        from repro.sim import SimulationConfig
        from repro.sim.mesoscopic import MesoscopicSimulator
        from repro.sim.mesoscopic_vec import _Harvest

        sim = MesoscopicSimulator(SimulationConfig(node_count=3, seed=5))
        harvest = _Harvest(sim)
        drawn = _count_draws(monkeypatch)
        mids = np.arange(0.0, 86400.0, 600.0) + 300.0
        solar = harvest.solar.power_watts_batch(mids)
        rows = np.zeros(mids.size, dtype=np.int64)
        shade = harvest.shading(mids, solar, rows)
        night = solar == 0.0
        assert night.any() and (~night).any()
        assert (shade[night] == 1.0).all()
        day_indices = set(
            np.floor_divide(mids[~night], harvest.step_s).astype(int).tolist()
        )
        assert drawn and {index for _, index in drawn} <= day_indices

    def test_memory_is_bounded_by_rows_times_width(self):
        harvesters, table = _table(count=5, width=16)
        for start in range(0, 10_000, 97):
            indices = np.arange(start, start + 40, dtype=np.int64)
            shading.gather(table, indices, np.arange(40) % 5)
        assert table.tags.shape == table.values.shape == (5, 16)

    def test_width_must_be_a_power_of_two(self):
        with pytest.raises(ConfigurationError):
            shading.ShadingTable([_harvester()], 12)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 300)),
            min_size=1,
            max_size=60,
        ),
        width=st.sampled_from([1, 2, 8, 32]),
        diet=st.booleans(),
        sigma=st.sampled_from([0.0, 0.2, 0.6]),
        calls=st.integers(1, 3),
    )
    def test_gather_equals_scalar_for_random_multisets(
        self, pairs, width, diet, sigma, calls
    ):
        harvesters, table = _table(
            count=4, width=width, diet=diet, shading_sigma=sigma
        )
        rows = np.array([row for row, _ in pairs], dtype=np.int64)
        indices = np.array([index for _, index in pairs], dtype=np.int64)
        expected = _scalar_factors(harvesters, indices, rows)
        for call in range(calls):
            # Later calls see the table the earlier ones left behind.
            order = np.roll(np.arange(len(pairs)), call)
            gathered = shading.gather(table, indices[order], rows[order])
            assert gathered.tolist() == [expected[k] for k in order]
