"""Uplink payload sizing for the paper's piggybacked battery report.

The node's 4-byte battery **transition report** rides at the end of the
uplink FRMPayload (Section III-B puts the packet-size increase at
exactly 4 bytes ≈ 41 ms extra airtime at SF10/125 kHz); the gateway's
1-byte normalized-degradation ``w_u`` rides in the downlink ACK
(:meth:`~repro.core.degradation_service.DegradationService
.ack_payload_byte`).  Only the sizes matter to the simulation, so no
frame codec is modelled.
"""

from __future__ import annotations

from ..battery import TransitionReport
from ..exceptions import ConfigurationError


def uplink_payload_bytes(
    sensor_payload_bytes: int, with_report: bool = False
) -> int:
    """FRMPayload size of an uplink, optionally with the 4-byte report.

    A report-bearing uplink is exactly ``TransitionReport.WIRE_SIZE_BYTES``
    (4) bytes longer than a plain one (Section III-B's overhead
    accounting).  Neither engine calls this yet: both time and cost
    every uplink at ``SimulationConfig.payload_bytes``, report or not.
    """
    if sensor_payload_bytes < 0:
        raise ConfigurationError("payload size cannot be negative")
    if with_report:
        return sensor_payload_bytes + TransitionReport.WIRE_SIZE_BYTES
    return sensor_payload_bytes
