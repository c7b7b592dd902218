"""AirtimeTable / memoized-PHY bit-identity guarantees.

The table and the ``lru_cache`` layers exist purely for speed: every
entry must be the *exact* float the underlying Eq. (6)/(7) formulas
produce, because both engines compare energies and airtimes against
values computed elsewhere from the same formulas.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lora import CodingRate, EnergyModel, SpreadingFactor, TxParams, airtime_table
from repro.lora.params import SUPPORTED_BANDWIDTHS, low_data_rate_optimize
from repro.lora.phy import time_on_air, tx_energy
from repro.lora.tables import AirtimeTable


def all_params():
    for sf in SpreadingFactor:
        for payload in (12, 32, 51):
            yield TxParams(spreading_factor=sf, payload_bytes=payload)


class TestEntryBitIdentity:
    def test_entries_match_direct_phy_calls(self):
        model = EnergyModel()
        table = AirtimeTable(energy_model=model)
        profile = model.power_profile
        for params in all_params():
            entry = table.entry(params)
            assert entry.airtime_s == time_on_air(params)
            assert entry.tx_energy_j == tx_energy(params, profile)
            assert entry.attempt_energy_j == (
                tx_energy(params, profile) + model.rx_window_overhead()
            )
            assert entry.max_tx_energy_j == model.max_tx_energy(params)
            assert entry.sensitivity_dbm == params.sensitivity_dbm

    def test_datasheet_formula_variant(self):
        model = EnergyModel()
        table = AirtimeTable(energy_model=model, use_datasheet_formula=True)
        params = TxParams(spreading_factor=SpreadingFactor.SF9)
        entry = table.entry(params)
        assert entry.airtime_s == time_on_air(params, use_datasheet_formula=True)
        assert entry.tx_energy_j == tx_energy(
            params, model.power_profile, use_datasheet_formula=True
        )

    def test_lru_cache_returns_exact_uncached_floats(self):
        # A cache hit must hand back the same value a cold computation
        # produces; clear the memoization and compare.
        params = TxParams(spreading_factor=SpreadingFactor.SF12, payload_bytes=51)
        profile = EnergyModel().power_profile
        cached_toa = time_on_air(params)
        cached_energy = tx_energy(params, profile)
        time_on_air.cache_clear()
        tx_energy.cache_clear()
        assert time_on_air(params) == cached_toa
        assert tx_energy(params, profile) == cached_energy


class TestTableBehaviour:
    def test_entry_identity_on_repeat_lookup(self):
        table = AirtimeTable()
        params = TxParams()
        assert table.entry(params) is table.entry(params)

    def test_prebuild_covers_all_spreading_factors(self):
        table = AirtimeTable()
        table.prebuild(payload_bytes=32)
        assert len(table) == len(SpreadingFactor)
        for sf in SpreadingFactor:
            params = TxParams().with_payload(32).with_spreading_factor(sf)
            assert table.entry(params).params.spreading_factor is sf
        # Already-built entries are not recomputed into new objects.
        before = table.entry(TxParams().with_payload(32))
        table.prebuild(payload_bytes=32)
        assert table.entry(TxParams().with_payload(32)) is before

    def test_shared_table_reused_per_energy_model(self):
        model = EnergyModel()
        assert airtime_table(model) is airtime_table(model)
        assert airtime_table() is airtime_table(EnergyModel())

    def test_engines_see_identical_constants(self):
        # MesoNode and EndDevice both read airtime/energy constants from
        # the shared table; a direct lookup must agree with both.
        from repro.sim import SimulationConfig

        config = SimulationConfig(node_count=1, duration_s=60.0, seed=1)
        params = config.tx_params(SpreadingFactor.SF9)
        entry = airtime_table(config.energy_model()).entry(params)
        assert entry.airtime_s == time_on_air(params)
        assert entry.attempt_energy_j > entry.tx_energy_j > 0.0
        assert entry.airtime_s > 0.0


# Full TxParams grid: every knob that feeds Eq. (6)/(7).  TX powers are
# drawn from a discrete set so each float input is representable exactly
# and equality below is a statement about the formulas, not rounding.
tx_params_grid = st.builds(
    TxParams,
    spreading_factor=st.sampled_from(list(SpreadingFactor)),
    bandwidth_hz=st.sampled_from(SUPPORTED_BANDWIDTHS),
    coding_rate=st.sampled_from(list(CodingRate)),
    tx_power_dbm=st.sampled_from([-4.0, 2.0, 8.0, 14.0, 17.0, 20.0, 30.0]),
    preamble_symbols=st.integers(min_value=6, max_value=16),
    payload_bytes=st.integers(min_value=0, max_value=255),
    explicit_header=st.booleans(),
    crc=st.booleans(),
)


class TestFullGridBitIdentity:
    """Table entries ≡ cold formula evaluations over the whole grid.

    The AirtimeTable backs the vectorized engines' kernel layer, so a
    single drifting entry would silently break the scalar ≡ vec
    equivalence suites; every cached float must equal the value a fresh
    (un-memoized) ``time_on_air``/``tx_energy`` call produces.
    """

    @settings(max_examples=200, deadline=None)
    @given(params=tx_params_grid, datasheet=st.booleans())
    def test_entry_equals_uncached_formulas(self, params, datasheet):
        model = EnergyModel()
        table = AirtimeTable(energy_model=model, use_datasheet_formula=datasheet)
        entry = table.entry(params)
        # Drop the lru_cache memoization so the reference evaluation is
        # genuinely cold, then demand exact float equality.
        time_on_air.cache_clear()
        tx_energy.cache_clear()
        cold_toa = time_on_air(params, use_datasheet_formula=datasheet)
        cold_energy = tx_energy(
            params, model.power_profile, use_datasheet_formula=datasheet
        )
        assert entry.airtime_s == cold_toa
        assert entry.tx_energy_j == cold_energy
        assert entry.attempt_energy_j == cold_energy + model.rx_window_overhead()
        assert entry.max_tx_energy_j == model.max_tx_energy(params)
        assert entry.sensitivity_dbm == params.sensitivity_dbm

    def test_low_data_rate_optimization_boundaries(self):
        # DE flips exactly where the symbol time crosses 16 ms: between
        # SF10 and SF11 at 125 kHz and between SF11 and SF12 at 250 kHz;
        # 500 kHz never mandates it.  The airtime discontinuity at each
        # boundary must round-trip through the table bit-for-bit.
        boundaries = [
            (125_000, SpreadingFactor.SF10, SpreadingFactor.SF11),
            (250_000, SpreadingFactor.SF11, SpreadingFactor.SF12),
        ]
        table = AirtimeTable()
        for bandwidth, below, above in boundaries:
            assert not low_data_rate_optimize(below, bandwidth)
            assert low_data_rate_optimize(above, bandwidth)
            for sf in (below, above):
                params = TxParams(
                    spreading_factor=sf, bandwidth_hz=bandwidth, payload_bytes=51
                )
                assert params.low_data_rate_optimized is low_data_rate_optimize(
                    sf, bandwidth
                )
                time_on_air.cache_clear()
                assert table.entry(params).airtime_s == time_on_air(params)
        for sf in SpreadingFactor:
            assert not low_data_rate_optimize(sf, 500_000)
