"""Tests for the software-defined battery switch (Eq. 5 / Eq. 21)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import Battery
from repro.battery.rainflow import StreamingRainflow
from repro.core import LorawanAlohaMac, WindowDecision
from repro.energy import Harvester, OracleForecaster, SoftwareDefinedSwitch, SolarModel
from repro.exceptions import ConfigurationError
from repro.lora import (
    ChannelHopper,
    ChannelPlan,
    EnergyModel,
    SpreadingFactor,
    TxParams,
)
from repro.sim import EndDevice, NodePlacement
from repro.sim.node import PacketState


def make_battery(capacity=10.0, soc=0.5):
    return Battery(capacity_j=capacity, initial_soc=soc)


class TestSwitch:
    def test_green_covers_demand_first(self):
        battery = make_battery()
        switch = SoftwareDefinedSwitch()
        result = switch.apply_window(battery, harvested_j=2.0, demand_j=1.5, window_end_s=60.0)
        assert result.green_used_j == pytest.approx(1.5)
        assert result.battery_used_j == 0.0
        assert result.charged_j == pytest.approx(0.5)
        assert result.balanced

    def test_deficit_drawn_from_battery(self):
        battery = make_battery()
        switch = SoftwareDefinedSwitch()
        result = switch.apply_window(battery, harvested_j=0.5, demand_j=2.0, window_end_s=60.0)
        assert result.green_used_j == pytest.approx(0.5)
        assert result.battery_used_j == pytest.approx(1.5)
        assert battery.stored_j == pytest.approx(3.5)

    def test_soc_cap_limits_charging(self):
        battery = make_battery(soc=0.45)
        switch = SoftwareDefinedSwitch(soc_cap=0.5)
        result = switch.apply_window(battery, harvested_j=5.0, demand_j=0.0, window_end_s=60.0)
        assert battery.soc == pytest.approx(0.5)
        assert result.charged_j == pytest.approx(0.5)
        assert result.spilled_j == pytest.approx(4.5)

    def test_shortfall_when_battery_empty(self):
        battery = make_battery(soc=0.0)
        switch = SoftwareDefinedSwitch()
        result = switch.apply_window(battery, harvested_j=0.0, demand_j=1.0, window_end_s=60.0)
        assert result.shortfall_j == pytest.approx(1.0)
        assert not result.balanced

    def test_partial_shortfall(self):
        battery = make_battery(soc=0.05)  # 0.5 J stored
        switch = SoftwareDefinedSwitch()
        result = switch.apply_window(battery, harvested_j=0.0, demand_j=2.0, window_end_s=60.0)
        assert result.battery_used_j == pytest.approx(0.5)
        assert result.shortfall_j == pytest.approx(1.5)
        assert battery.stored_j == pytest.approx(0.0)

    def test_exact_balance_settles_time_only(self):
        battery = make_battery()
        switch = SoftwareDefinedSwitch()
        result = switch.apply_window(battery, harvested_j=1.0, demand_j=1.0, window_end_s=60.0)
        assert result.charged_j == 0.0
        assert result.battery_used_j == 0.0
        assert battery.trace.last_time == 60.0

    def test_energy_conservation(self):
        battery = make_battery()
        before = battery.stored_j
        switch = SoftwareDefinedSwitch(soc_cap=0.8)
        harvested, demand = 3.0, 1.2
        result = switch.apply_window(battery, harvested, demand, 60.0)
        delta = battery.stored_j - before
        assert harvested - demand == pytest.approx(
            delta + result.spilled_j - result.shortfall_j
        )

    def test_can_sustain_is_eq20(self):
        battery = make_battery()  # 5 J stored
        switch = SoftwareDefinedSwitch()
        assert switch.can_sustain(battery, harvested_j=1.0, demand_j=6.0)
        assert not switch.can_sustain(battery, harvested_j=0.5, demand_j=6.0)

    def test_rejects_negative_energies(self):
        switch = SoftwareDefinedSwitch()
        with pytest.raises(ConfigurationError):
            switch.apply_window(make_battery(), -1.0, 0.0, 60.0)

    def test_rejects_bad_cap(self):
        with pytest.raises(ConfigurationError):
            SoftwareDefinedSwitch(soc_cap=0.0)

    def test_repeated_windows_build_daily_cycle(self):
        """A day of surplus then deficit produces a charge/discharge swing."""
        battery = make_battery(soc=0.5, capacity=10.0)
        switch = SoftwareDefinedSwitch(soc_cap=1.0)
        for i in range(10):  # morning: surplus
            switch.apply_window(battery, 1.0, 0.2, (i + 1) * 60.0)
        top = battery.soc
        for i in range(10, 20):  # night: deficit
            switch.apply_window(battery, 0.0, 0.3, (i + 1) * 60.0)
        assert top > 0.5
        assert battery.soc < top


# ------------------------------------------------- the fused settle pass


class _Recorder:
    """Trace-bus stand-in recording every emission."""

    def __init__(self):
        self.events = []

    def emit(self, *args, **fields):
        self.events.append((args, fields))


def _reference_window(switch, battery, harvested, demand, end):
    """One window through ``Battery.charge``/``discharge``/``settle``:
    the chunk-by-chunk accounting the fused pass must reproduce."""
    green = min(harvested, demand)
    surplus = harvested - green
    deficit = demand - green
    charged = shortfall = 0.0
    if surplus > 0.0:
        charged = battery.charge(surplus, end, soc_cap=switch.soc_cap)
    elif deficit > 0.0:
        used = min(deficit, battery.stored_j)
        shortfall = deficit - used
        battery.discharge(used, end)
    else:
        battery.settle(end)
    return charged, shortfall


def _rig(capacity, soc, theta, degradation):
    battery = Battery(capacity_j=capacity, initial_soc=soc)
    if degradation:
        # What a refresh leaves behind: a smaller ψ_max, stored clipped.
        battery._degradation = degradation
        battery.stored_j = min(battery.stored_j, battery.current_max_capacity_j)
    calls = []
    switch = SoftwareDefinedSwitch(soc_cap=theta, on_brownout=calls.append)
    bus = _Recorder()
    switch.bind_trace(bus, node_id=4)
    return battery, switch, calls, bus


def _state(battery):
    stream = battery._incremental._stream
    inc = battery._incremental
    trace = battery.trace
    return (
        battery.stored_j,
        battery.now_s,
        trace.times,
        trace.socs,
        trace._weighted_integral,
        trace._last_time,
        trace._last_soc,
        stream._stack,
        stream._prev,
        stream._tail,
        stream._have_prev,
        inc._closed_count,
        inc._weight_sum,
        inc._depth_sum,
        inc._soc_sum,
        inc._aging_sum,
    )


_energy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-18, max_value=1e-13),  # sub-ulp / float dust
    st.floats(min_value=0.0, max_value=3.0),
)


class _ReferenceTrace:
    """``SocTrace.append``'s rule written out once more, as the oracle.

    Starts from a copy of a real trace's state; each :meth:`append`
    validates, clamps, adds one trapezoid and merges one sample.
    """

    def __init__(self, trace):
        self.times = list(trace.times)
        self.socs = list(trace.socs)
        self.integral = trace._weighted_integral
        self.last_time = trace._last_time
        self.last_soc = trace._last_soc

    def append(self, time_s, soc):
        assert 0.0 <= soc <= 1.0 + 1e-9
        soc = min(soc, 1.0)
        if self.last_time is not None:
            assert time_s >= self.last_time
            self.integral += (time_s - self.last_time) * (soc + self.last_soc) / 2.0
        merge = False
        if len(self.socs) >= 2:
            prev, last = self.socs[-2], self.socs[-1]
            if last > prev:
                merge = soc >= last
            elif last < prev:
                merge = soc <= last
            else:
                merge = soc == last
        if merge:
            self.times[-1], self.socs[-1] = time_s, soc
        else:
            self.times.append(time_s)
            self.socs.append(soc)
        self.last_time, self.last_soc = time_s, soc


class _Log:
    """Trace bus and brown-out hook writing into one ordered log."""

    def __init__(self):
        self.entries = []

    def emit(self, *args, **fields):
        self.entries.append(("event", args, fields))

    def brownout(self, unmet):
        self.entries.append(("on_brownout", unmet))


def _reference_settle(battery, theta, chunks, node_id=4):
    """Settle ``chunks`` one at a time: ``Battery.charge``/``discharge``/
    ``settle``, ``SocTrace.append`` (the oracle copy) and
    ``StreamingRainflow.push`` per chunk.  Returns the oracle trace, the
    oracle stream, the last charged chunk, the shortfalls and the log."""
    trace = _ReferenceTrace(battery.trace)
    stream = StreamingRainflow()
    # Replay the battery's history so far into the oracle stream.
    stream.extend(battery.trace.socs)
    log = _Log()
    last, short = -1, []
    for i, (harvested, demand, end) in enumerate(chunks):
        green = min(harvested, demand)
        surplus = harvested - green
        deficit = demand - green
        unmet = 0.0
        if surplus > 0.0:
            if battery.charge(surplus, end, soc_cap=theta) > 0.0:
                last = i
        elif deficit > 0.0:
            used = min(deficit, battery.stored_j)
            unmet = deficit - used
            battery.discharge(used, end)
        else:
            battery.settle(end)
        soc = battery.stored_j / battery.capacity_j
        trace.append(end, soc)
        stream.push(min(soc, 1.0))
        if unmet > 1e-12:
            short.append((i, unmet))
            log.emit(
                end,
                "energy",
                "energy.brownout",
                severity="warning",
                node_id=node_id,
                shortfall_j=unmet,
                demand_j=demand,
                harvested_j=harvested,
                soc=soc,
            )
            log.brownout(unmet)
    return trace, stream, last, short, log


def _stream_state(stream):
    return stream._stack, stream._prev, stream._tail, stream._have_prev


def _fresh_battery(capacity, soc, degradation, history):
    battery = Battery(capacity_j=capacity, initial_soc=soc)
    if degradation:
        battery._degradation = degradation
        battery.stored_j = min(battery.stored_j, battery.current_max_capacity_j)
    # A short prior history, so the pass starts mid-run on a trace with
    # turning points and a rainflow stack.
    t = 0.0
    for delta in history:
        t += 30.0
        if delta >= 0:
            battery.charge(delta, t)
        else:
            battery.discharge(min(-delta, battery.stored_j), t)
    return battery


_chunk_energy = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-18, max_value=1e-13),  # float dust
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=5.0, max_value=40.0),  # hits θ or empties the battery
)


def _device(capacity, soc, peak_watts, sigma, log):
    harvester = Harvester(
        solar=SolarModel(peak_watts=peak_watts), node_seed=3, shading_sigma=sigma
    )
    device = EndDevice(
        placement=NodePlacement(
            node_id=4,
            x_m=100.0,
            y_m=0.0,
            distance_m=100.0,
            spreading_factor=SpreadingFactor.SF10,
            period_s=3600.0,
            start_offset_s=0.0,
        ),
        tx_params=TxParams(),
        battery=Battery(capacity_j=capacity, initial_soc=soc),
        harvester=harvester,
        forecaster=OracleForecaster(harvester),
        mac=LorawanAlohaMac(),
        hopper=ChannelHopper(ChannelPlan().subset(1), rng=random.Random(1)),
        window_s=60.0,
        energy_model=EnergyModel(),
        rng=random.Random(1),
        on_brownout=log.brownout,
    )
    device.switch.bind_trace(log, node_id=4)
    return device


class TestFusedSettle:
    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.floats(min_value=0.5, max_value=50.0),
        soc=st.floats(min_value=0.0, max_value=1.0),
        theta=st.sampled_from([0.05, 0.5, 0.8, 1.0]),
        degradation=st.sampled_from([0.0, 0.1, 0.35]),
        chunks=st.lists(
            st.tuples(_energy, _energy, st.sampled_from([0.0, 0.5, 60.0, 61.3])),
            max_size=30,
        ),
    )
    def test_matches_chunk_by_chunk(self, capacity, soc, theta, degradation, chunks):
        harvested = [h for h, _, _ in chunks]
        demands = [d for _, d, _ in chunks]
        ends, t = [], 0.0
        for _, _, duration in chunks:
            t += duration
            ends.append(t)

        fused_rig = _rig(capacity, soc, theta, degradation)
        chain_rig = _rig(capacity, soc, theta, degradation)
        ref_rig = _rig(capacity, soc, theta, degradation)

        battery, switch, calls, bus = fused_rig
        result = switch.apply_chunks(battery, harvested, demands, ends)

        battery, switch, calls, bus = chain_rig
        last, short = -1, []
        for i, (h, d, end) in enumerate(zip(harvested, demands, ends)):
            window = switch.apply_window(battery, h, d, end)
            if window.charged_j > 0:
                last = i
            if not window.balanced:
                short.append((i, window.shortfall_j))
        assert result.last_charged == last
        assert result.shortfalls == short

        battery, switch, calls, bus = ref_rig
        ref_last, ref_short, ref_events = -1, [], []
        for i, (h, d, end) in enumerate(zip(harvested, demands, ends)):
            charged, shortfall = _reference_window(switch, battery, h, d, end)
            if charged > 0:
                ref_last = i
            if shortfall > 1e-12:
                ref_short.append((i, shortfall))
                ref_events.append(
                    (
                        (end, "energy", "energy.brownout"),
                        dict(
                            severity="warning",
                            node_id=4,
                            shortfall_j=shortfall,
                            demand_j=d,
                            harvested_j=h,
                            soc=battery.soc,
                        ),
                    )
                )
        assert (ref_last, ref_short) == (last, short)

        for rig in (chain_rig, ref_rig):
            assert _state(rig[0]) == _state(fused_rig[0])
        assert fused_rig[2] == chain_rig[2] == [unmet for _, unmet in short]
        assert fused_rig[3].events == chain_rig[3].events == ref_events

    def test_totals_sum_the_chunks(self):
        battery, switch, _, _ = _rig(10.0, 0.45, 0.5, 0.0)
        result = switch.apply_chunks(
            battery, [2.0, 0.0, 0.5], [0.5, 6.0, 0.5], [60.0, 120.0, 180.0]
        )
        totals = result.totals
        assert totals.green_used_j == pytest.approx(1.0)
        assert totals.charged_j == pytest.approx(0.5)
        assert totals.spilled_j == pytest.approx(1.0)
        assert totals.battery_used_j == pytest.approx(5.0)
        assert totals.shortfall_j == pytest.approx(1.0)
        assert result.last_charged == 0
        assert result.shortfalls == [(1, pytest.approx(1.0))]

    def test_empty_settle_changes_nothing(self):
        battery, switch, calls, bus = _rig(10.0, 0.3, 0.5, 0.0)
        before = _state(battery)
        result = switch.apply_chunks(battery, [], [], [])
        assert result.last_charged == -1
        assert result.shortfalls == []
        assert result.totals.balanced
        assert _state(battery) == before
        assert calls == [] and bus.events == []

    def test_sub_ulp_charge_still_counts(self):
        # 1e-17 J vanishes when added to 3 J, but the battery accepted
        # it: the chunk is a recharge all the same.
        battery, switch, _, _ = _rig(10.0, 0.3, 1.0, 0.0)
        stored = battery.stored_j
        result = switch.apply_chunks(
            battery, [0.0, 1e-17, 0.0], [0.0, 0.0, 0.0], [60.0, 120.0, 180.0]
        )
        assert battery.stored_j == stored
        assert result.last_charged == 1

    def test_rejects_negative_energies_before_any_change(self):
        battery, switch, _, _ = _rig(10.0, 0.3, 1.0, 0.0)
        before = _state(battery)
        with pytest.raises(ConfigurationError):
            switch.apply_chunks(battery, [1.0, -1.0], [0.0, 0.0], [60.0, 120.0])
        assert _state(battery) == before

    @settings(max_examples=400, deadline=None)
    @given(
        capacity=st.floats(min_value=0.5, max_value=20.0),
        soc=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        theta=st.sampled_from([0.05, 0.3, 0.8, 1.0]),
        degradation=st.sampled_from([0.0, 0.2]),
        history=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=6),
        chunks=st.lists(
            st.tuples(
                _chunk_energy,
                _chunk_energy,
                st.sampled_from([0.0, 0.0, 0.25, 60.0, 61.3]),
            ),
            max_size=25,
        ),
    )
    def test_matches_reference_model(
        self, capacity, soc, theta, degradation, history, chunks
    ):
        """The pass ≡ the chunk-by-chunk model of ``_reference_settle``,
        over θ-cap hits, empty batteries, zero-length chunks and
        brown-outs, mid-history."""
        ends, t = [], 10_000.0
        for _, _, duration in chunks:
            t += duration  # zero-length chunks share their end
            ends.append(t)
        triples = [(h, d, end) for (h, d, _), end in zip(chunks, ends)]

        fused = _fresh_battery(capacity, soc, degradation, history)
        reference = _fresh_battery(capacity, soc, degradation, history)
        log = _Log()
        switch = SoftwareDefinedSwitch(soc_cap=theta, on_brownout=log.brownout)
        switch.bind_trace(log, node_id=4)
        result = switch.apply_chunks(
            fused, [h for h, _, _ in triples], [d for _, d, _ in triples], ends
        )
        trace, stream, last, short, ref_log = _reference_settle(
            reference, theta, triples
        )

        assert fused.stored_j == reference.stored_j
        assert fused.now_s == reference.now_s
        assert fused.trace.times == trace.times
        assert fused.trace.socs == trace.socs
        assert fused.trace._weighted_integral == trace.integral
        assert fused.trace.last_time == trace.last_time
        assert fused.trace.last_soc == trace.last_soc
        assert _stream_state(fused._incremental._stream) == _stream_state(stream)
        assert result.last_charged == last
        assert result.shortfalls == short
        assert log.entries == ref_log.entries

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.sampled_from([0.05, 0.5, 12.0]),
        soc=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        peak_watts=st.sampled_from([1e-6, 2e-3, 0.5]),
        sigma=st.sampled_from([0.0, 0.3]),
        settled=st.floats(min_value=0.0, max_value=86_400.0),
        period_back=st.sampled_from([None, 0.0, 30.0, 3_000.0]),
        gap=st.one_of(
            st.sampled_from([0.0, 1e-10, 0.4, 60.0]),
            st.floats(min_value=0.0, max_value=4_000.0),
        ),
    )
    def test_folded_attempt_matches_settle_then_window(
        self, capacity, soc, peak_watts, sigma, settled, period_back, gap
    ):
        """``draw_attempt_energy`` ≡ ``settle_to`` then a one-window draw:
        balanced flag, recharge window, event order and battery state."""
        logs = _Log(), _Log()
        devices = [_device(capacity, soc, peak_watts, sigma, log) for log in logs]
        for device in devices:
            device.settle_to(settled)
            if period_back is not None:
                start = settled - period_back
                device.packet = PacketState(
                    generated_at_s=start,
                    period_start_s=start,
                    decision=WindowDecision(True, 0, [0.0], [0.0], [0.0]),
                )
        now = settled + gap
        folded, split = devices
        balanced = folded.draw_attempt_energy(now)
        split.settle_to(now)
        reference = split.switch.apply_window(
            split.battery, 0.0, split.attempt_energy_j, now
        ).balanced

        assert balanced == reference
        if period_back is not None:
            assert (
                folded.packet.last_recharge_window
                == split.packet.last_recharge_window
            )
        assert logs[0].entries == logs[1].entries
        assert folded.battery.stored_j == split.battery.stored_j
        assert folded.battery.trace.times == split.battery.trace.times
        assert folded.battery.trace.socs == split.battery.trace.socs
        assert (
            folded.battery.trace._weighted_integral
            == split.battery.trace._weighted_integral
        )
        assert _stream_state(folded.battery._incremental._stream) == _stream_state(
            split.battery._incremental._stream
        )

    def test_folded_attempt_brownout_is_unbalanced(self):
        log = _Log()
        device = _device(12.0, 0.0, 2e-3, 0.0, log)  # midnight: no harvest
        assert device.draw_attempt_energy(120.0) is False
        # Two sleep chunks and the attempt brown out, in chunk order.
        assert [entry[1][0] for entry in log.entries if entry[0] == "event"] == [
            60.0,
            120.0,
            120.0,
        ]
