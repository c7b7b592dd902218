"""Batch ingestion APIs are state-identical to sequential pushes.

``SocTrace.merge_samples``, ``StreamingRainflow.extend_batch`` and
``IncrementalDegradation.push_batch`` exist so the settle passes of both
engines can hand over whole runs of settle chunks at once; their
contract is that the final object state — not just derived summaries —
matches feeding the same samples one at a time.  These property-style
tests sweep randomized SoC series (plateaus, monotone runs, reversals,
clamped 1.0 samples) through both routes and compare everything.
``merge_samples`` trusts its caller to have validated, clamped and
integrated the samples; the switch's settle pass does that, and a run it
rejects leaves the trace untouched.
"""

import random

import pytest

from repro.battery import Battery
from repro.battery.incremental import IncrementalDegradation
from repro.battery.rainflow import StreamingRainflow, count_cycles
from repro.battery.soc_trace import SocTrace
from repro.energy import SoftwareDefinedSwitch
from repro.exceptions import ConfigurationError


def random_series(rng, n):
    """A SoC walk with plateaus, long monotone runs, and sharp reversals."""
    soc = rng.uniform(0.2, 0.9)
    series = [soc]
    while len(series) < n:
        kind = rng.random()
        if kind < 0.2:  # plateau
            series.extend([soc] * rng.randint(1, 4))
        elif kind < 0.8:  # monotone run
            step = rng.uniform(0.005, 0.05) * rng.choice((-1.0, 1.0))
            for _ in range(rng.randint(1, 6)):
                soc = min(1.0, max(0.0, soc + step))
                series.append(soc)
        else:  # sharp reversal
            soc = min(1.0, max(0.0, soc + rng.uniform(-0.4, 0.4)))
            series.append(soc)
    return series[:n]


def merge_batch(trace, times, socs):
    """Extend ``trace`` by a run through ``merge_samples``.

    Clamps the samples and accumulates the integral with ``append``'s
    per-sample expression, the preparation the settle passes do in
    their own loops.
    """
    clamped = [min(soc, 1.0) for soc in socs]
    integral = trace._weighted_integral
    prev_t, prev_s = trace._last_time, trace._last_soc
    for t, s in zip(times, clamped):
        if prev_t is not None:
            integral += (t - prev_t) * (s + prev_s) / 2.0
        prev_t, prev_s = t, s
    trace.merge_samples(times, clamped, integral)


def trace_state(trace):
    return (
        trace.times,
        trace.socs,
        trace._weighted_integral,
        trace._start_time,
        trace._last_time,
        trace._last_soc,
    )


class TestSocTraceExtendBatch:
    """A run of samples extends a trace through ``merge_samples``."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_state_identical_to_sequential_append(self, seed):
        rng = random.Random(seed)
        socs = random_series(rng, 120)
        times = [i * 600.0 for i in range(len(socs))]

        sequential = SocTrace()
        for t, s in zip(times, socs):
            sequential.append(t, s)
        batched = SocTrace()
        merge_batch(batched, times, socs)

        assert trace_state(batched) == trace_state(sequential)

    def test_batch_after_appends_continues_state(self):
        rng = random.Random(7)
        socs = random_series(rng, 60)
        times = [i * 300.0 for i in range(len(socs))]
        split = 25

        sequential = SocTrace()
        for t, s in zip(times, socs):
            sequential.append(t, s)
        mixed = SocTrace()
        for t, s in zip(times[:split], socs[:split]):
            mixed.append(t, s)
        merge_batch(mixed, times[split:], socs[split:])

        assert trace_state(mixed) == trace_state(sequential)

    def test_empty_batch_is_noop(self):
        trace = SocTrace()
        trace.append(0.0, 0.5)
        before = trace_state(trace)
        trace.merge_samples([], [], 123.0)
        assert trace_state(trace) == before

    def test_invalid_soc_rejects_batch(self):
        battery = Battery(capacity_j=10.0, initial_soc=0.5)
        switch = SoftwareDefinedSwitch()
        switch.apply_window(battery, 0.0, 0.0, 60.0)
        before = trace_state(battery.trace)
        battery.stored_j = 15.0  # SoC 1.5: only a corrupted battery holds it
        with pytest.raises(ConfigurationError):
            switch.apply_chunks(battery, [0.0, 0.0], [0.0, 0.0], [120.0, 180.0])
        assert trace_state(battery.trace) == before

    def test_decreasing_times_reject_batch(self):
        battery = Battery(capacity_j=10.0, initial_soc=0.5)
        switch = SoftwareDefinedSwitch()
        before = trace_state(battery.trace)
        with pytest.raises(ConfigurationError):
            switch.apply_chunks(battery, [0.0, 0.0], [0.1, 0.1], [10.0, 5.0])
        assert trace_state(battery.trace) == before
        assert battery.stored_j == 5.0


class TestStreamingRainflowExtendBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_state_identical_to_sequential_push(self, seed):
        rng = random.Random(seed)
        series = random_series(rng, 150)

        sequential = StreamingRainflow()
        for value in series:
            sequential.push(value)
        batched = StreamingRainflow()
        batched.extend_batch(series)

        assert batched._stack == sequential._stack
        assert batched._prev == sequential._prev
        assert batched._tail == sequential._tail
        assert batched._have_prev == sequential._have_prev
        assert batched.closed == sequential.closed
        assert batched.pending_cycles() == sequential.pending_cycles()

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_closed_plus_pending_matches_count_cycles(self, seed):
        rng = random.Random(seed)
        series = random_series(rng, 100)
        stream = StreamingRainflow()
        stream.extend_batch(series)
        assert stream.closed + stream.pending_cycles() == count_cycles(series)

    def test_short_prefixes(self):
        # The warm-up branch (tail unset / first point unconfirmed) must
        # hand off to the run-collapsing loop at any boundary.
        series = [0.5, 0.5, 0.7, 0.6, 0.8, 0.4]
        for cut in range(len(series) + 1):
            sequential = StreamingRainflow()
            for value in series[:cut]:
                sequential.push(value)
            batched = StreamingRainflow()
            batched.extend_batch(series[:cut])
            assert batched._stack == sequential._stack
            assert batched._tail == sequential._tail
            assert batched.closed == sequential.closed


class TestIncrementalPushBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_breakdown_identical_to_sequential_push(self, seed):
        rng = random.Random(seed)
        series = random_series(rng, 200)
        age_s = 86_400.0

        sequential = IncrementalDegradation(temperature_c=25.0)
        for value in series:
            sequential.push(value)
        batched = IncrementalDegradation(temperature_c=25.0)
        batched.push_batch(series)

        assert batched.closed_cycle_count == sequential.closed_cycle_count
        a = sequential.breakdown(age_s)
        b = batched.breakdown(age_s)
        for key, value in vars(a).items():
            assert vars(b)[key] == value, key
