"""Compressed state-of-charge traces and node→gateway transition reports.

Storing every per-window SoC sample for multi-year simulations would be
prohibitive, and the paper observes it is also unnecessary: *"the SoC at
the forecast window when the battery transitions from charging to
discharging and vice-versa are sufficient to generate the entire trace"*
(Section III-B).  :class:`SocTrace` therefore keeps only turning points
(plus a bounded sampling of time for the time-weighted mean), and
:class:`TransitionReport` models the 4-byte per-packet report each node
piggybacks (discharge window + SoC, last recharge window + SoC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class TransitionReport:
    """The per-sampling-period battery report a node appends to a packet.

    Per Section III-B the node reports two forecast windows: the one where
    it (significantly) discharged for its transmission and the last one
    where it recharged, each with the SoC at that time.  Encoded size is
    2 bytes per window index + 2 bytes per quantized SoC = 4 bytes total
    as stated in the paper ("2 × 2 bytes for t and ψ_u[t]").
    """

    discharge_window: Optional[int]
    discharge_soc: Optional[float]
    recharge_window: Optional[int]
    recharge_soc: Optional[float]

    #: Wire size in bytes of one report (paper: 4 bytes, 41 ms extra
    #: airtime at SF10/125 kHz).
    WIRE_SIZE_BYTES = 4

    def encode(self) -> bytes:
        """Pack the report into its 4-byte wire format.

        Window indices use 1 byte each (windows per period ≤ 255 in all
        realistic configurations); SoC is quantized to 1 byte (1/255
        resolution).  ``None`` fields encode as 0xFF sentinels.
        """
        def _window_byte(w: Optional[int]) -> int:
            if w is None:
                return 0xFF
            if not 0 <= w < 0xFF:
                raise ConfigurationError(f"window index {w} not encodable")
            return w

        def _soc_byte(s: Optional[float]) -> int:
            if s is None:
                return 0xFF
            if not 0.0 <= s <= 1.0:
                raise ConfigurationError(f"SoC {s} outside [0, 1]")
            return min(254, round(s * 254))

        return bytes(
            [
                _window_byte(self.discharge_window),
                _soc_byte(self.discharge_soc),
                _window_byte(self.recharge_window),
                _soc_byte(self.recharge_soc),
            ]
        )

    @classmethod
    def decode(cls, payload: bytes) -> "TransitionReport":
        """Inverse of :meth:`encode`."""
        if len(payload) != cls.WIRE_SIZE_BYTES:
            raise ConfigurationError(
                f"transition report must be {cls.WIRE_SIZE_BYTES} bytes"
            )
        dw, ds, rw, rs = payload
        return cls(
            discharge_window=None if dw == 0xFF else dw,
            discharge_soc=None if ds == 0xFF else ds / 254.0,
            recharge_window=None if rw == 0xFF else rw,
            recharge_soc=None if rs == 0xFF else rs / 254.0,
        )


@dataclass
class SocTrace:
    """A turning-point-compressed SoC history with time-weighted statistics.

    ``append(time_s, soc)`` records a sample; interior samples that keep
    the current monotone run are merged so memory stays proportional to
    the number of charge/discharge direction changes, not to simulated
    time.  The running time-weighted SoC integral is maintained exactly
    (trapezoidal) regardless of compression.
    """

    times: List[float] = field(default_factory=list)
    socs: List[float] = field(default_factory=list)
    _weighted_integral: float = 0.0
    _start_time: Optional[float] = None
    _last_time: Optional[float] = None
    _last_soc: Optional[float] = None

    def append(self, time_s: float, soc: float) -> None:
        """Record that the SoC was ``soc`` at absolute time ``time_s``."""
        if not 0.0 <= soc <= 1.0 + 1e-9:
            raise ConfigurationError(f"SoC {soc} outside [0, 1]")
        soc = min(soc, 1.0)
        integral = self._weighted_integral
        if self._last_time is not None:
            if time_s < self._last_time:
                raise ConfigurationError("trace times must be non-decreasing")
            dt = time_s - self._last_time
            integral += dt * (soc + self._last_soc) / 2.0
        self.merge_samples((time_s,), (soc,), integral)

    def merge_samples(
        self, times_s: Sequence[float], socs: Sequence[float], integral: float
    ) -> None:
        """Store samples the caller has already validated and clamped.

        ``socs[i]`` is the SoC at ``times_s[i]``, in [0, 1]; the times
        are non-decreasing and none precedes :attr:`last_time`.
        ``integral`` is the time-weighted integral after the last
        sample, accumulated with :meth:`append`'s per-sample expression
        in sample order.  A sample continuing the monotone run of the
        last two stored points moves the last point in place; any other
        is stored.  State-identical to one :meth:`append` per sample;
        this is the one copy of the merge rule, which the exact
        engine's switch and the mesoscopic sweep both commit through.
        An empty run changes nothing.
        """
        count = len(socs)
        if not count:
            return
        ts, ss = self.times, self.socs
        i = 0
        while len(ss) < 2 and i < count:
            ts.append(times_s[i])
            ss.append(socs[i])
            i += 1
        if i < count:
            # ``prev`` and ``last`` mirror the two stored tail points.
            prev, last = ss[-2], ss[-1]
            for i in range(i, count):
                soc = socs[i]
                if last > prev:
                    continues = soc >= last
                elif last < prev:
                    continues = soc <= last
                else:
                    continues = soc == last
                if continues:
                    ts[-1] = times_s[i]
                    ss[-1] = soc
                else:
                    ts.append(times_s[i])
                    ss.append(soc)
                    prev = last
                last = soc
        if self._start_time is None:
            self._start_time = times_s[0]
        self._weighted_integral = integral
        self._last_time = times_s[count - 1]
        self._last_soc = socs[count - 1]

    def extend(self, samples: Sequence[Tuple[float, float]]) -> None:
        """Append many ``(time_s, soc)`` samples."""
        for time_s, soc in samples:
            self.append(time_s, soc)

    @property
    def turning_points(self) -> List[float]:
        """The compressed SoC sequence (input for rainflow counting)."""
        return list(self.socs)

    @property
    def duration_s(self) -> float:
        """Time spanned by the trace since its first sample (0 if empty)."""
        if self._start_time is None or self._last_time is None:
            return 0.0
        return self._last_time - self._start_time

    def time_weighted_mean_soc(self) -> float:
        """Trapezoidal time-weighted average SoC across the whole trace.

        Exact regardless of turning-point compression or
        :meth:`compact_tail`, because the integral is maintained online.
        """
        if self._last_time is None:
            raise ConfigurationError("cannot average an empty trace")
        duration = self._last_time - self._start_time
        if duration <= 0.0:
            return self._last_soc
        return self._weighted_integral / duration

    @property
    def last_soc(self) -> Optional[float]:
        """Most recent SoC sample (None for an empty trace)."""
        return self._last_soc

    @property
    def last_time(self) -> Optional[float]:
        """Time of the most recent sample (None for an empty trace)."""
        return self._last_time

    def __len__(self) -> int:
        return len(self.socs)

    def compact_tail(self, keep_last: int = 2) -> None:
        """Drop stored turning points, keeping aggregate statistics.

        After degradation has been computed up to now, callers may trim
        the stored points to bound memory over decades-long simulations.
        The time-weighted integral is preserved.
        """
        if keep_last < 1:
            raise ConfigurationError("keep_last must be >= 1")
        if len(self.socs) > keep_last:
            self.times = self.times[-keep_last:]
            self.socs = self.socs[-keep_last:]


def reconstruct_trace(
    reports: Sequence[TransitionReport],
    period_s: float,
    window_s: float,
    initial_soc: float = 1.0,
) -> SocTrace:
    """Rebuild an approximate SoC trace from piggybacked reports.

    This is the gateway-side counterpart of :class:`TransitionReport`:
    given one report per sampling period, it reconstructs the turning
    points the rainflow algorithm needs.  Report ``i`` describes period
    ``i`` (absolute time ``i * period_s``); window indices are offsets of
    ``window_s`` within the period.
    """
    if period_s <= 0 or window_s <= 0:
        raise ConfigurationError("period and window must be positive")
    trace = SocTrace()
    trace.append(0.0, initial_soc)
    for index, report in enumerate(reports):
        base = index * period_s
        events = []
        if report.discharge_window is not None and report.discharge_soc is not None:
            events.append((base + report.discharge_window * window_s, report.discharge_soc))
        if report.recharge_window is not None and report.recharge_soc is not None:
            events.append((base + report.recharge_window * window_s, report.recharge_soc))
        for time_s, soc in sorted(events):
            if trace.last_time is not None and time_s <= trace.last_time:
                time_s = trace.last_time + 1e-6
            trace.append(time_s, soc)
    return trace
