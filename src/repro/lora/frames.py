"""LoRaWAN 1.0.x frame encoding/decoding.

Implements the PHYPayload structure (MHDR | MACPayload | MIC) with the
uplink/downlink FHDR fields, enough to represent the paper's wire-level
protocol concretely:

* the node's 4-byte battery **transition report** rides at the end of the
  uplink FRMPayload (Section III-B puts the packet-size increase at
  exactly 4 bytes ≈ 41 ms extra airtime at SF10/125 kHz);
* the gateway's 1-byte normalized-degradation ``w_u`` rides in the
  downlink **FOpts** field of the ACK, so a plain ACK carries zero
  overhead and a dissemination ACK exactly one extra byte.

The MIC is a keyed, truncated SHA-256 rather than LoRaWAN's AES-CMAC
(the standard library has no AES); it preserves the frame structure,
the 4-byte length, and tamper detection for simulation purposes.  Do
not use this codec for interoperating with real LoRaWAN networks.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..battery import TransitionReport
from ..exceptions import ConfigurationError, ProtocolError

#: LoRaWAN major version bits (LoRaWAN R1).
LORAWAN_MAJOR = 0

MIC_LENGTH = 4
MAX_FOPTS_LENGTH = 15


class MType(enum.IntEnum):
    """LoRaWAN message types (MHDR bits 7..5)."""

    JOIN_REQUEST = 0b000
    JOIN_ACCEPT = 0b001
    UNCONFIRMED_UP = 0b010
    UNCONFIRMED_DOWN = 0b011
    CONFIRMED_UP = 0b100
    CONFIRMED_DOWN = 0b101
    PROPRIETARY = 0b111


@dataclass(frozen=True)
class FCtrl:
    """The frame-control octet."""

    adr: bool = False
    adr_ack_req: bool = False
    ack: bool = False
    class_b: bool = False
    fopts_length: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.fopts_length <= MAX_FOPTS_LENGTH:
            raise ConfigurationError("FOpts length must be in [0, 15]")

    def encode(self) -> int:
        """Pack the flags into the FCtrl octet."""
        return (
            (self.adr << 7)
            | (self.adr_ack_req << 6)
            | (self.ack << 5)
            | (self.class_b << 4)
            | self.fopts_length
        )

    @classmethod
    def decode(cls, octet: int) -> "FCtrl":
        """Parse the FCtrl octet into flags."""
        return cls(
            adr=bool(octet & 0x80),
            adr_ack_req=bool(octet & 0x40),
            ack=bool(octet & 0x20),
            class_b=bool(octet & 0x10),
            fopts_length=octet & 0x0F,
        )


def _mic(key: bytes, data: bytes) -> bytes:
    """Keyed 4-byte integrity code (SHA-256 stand-in for AES-CMAC)."""
    return hashlib.sha256(key + data).digest()[:MIC_LENGTH]


@dataclass(frozen=True)
class Frame:
    """A LoRaWAN data frame (uplink or downlink).

    ``fopts`` carries MAC commands (and, in this system, the downlink
    ``w_u`` byte); ``payload`` is the application FRMPayload.
    """

    mtype: MType
    dev_addr: int
    fcnt: int
    payload: bytes = b""
    fport: Optional[int] = 1
    fctrl: FCtrl = field(default_factory=FCtrl)
    fopts: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.dev_addr <= 0xFFFFFFFF:
            raise ConfigurationError("DevAddr must fit in 32 bits")
        if not 0 <= self.fcnt <= 0xFFFF:
            raise ConfigurationError("FCnt must fit in 16 bits (no rollover here)")
        if len(self.fopts) > MAX_FOPTS_LENGTH:
            raise ConfigurationError("FOpts cannot exceed 15 bytes")
        if self.fport is None and self.payload:
            raise ConfigurationError("payload requires an FPort")
        if self.fport is not None and not 0 <= self.fport <= 255:
            raise ConfigurationError("FPort must fit in one byte")
        if self.fctrl.fopts_length != len(self.fopts):
            object.__setattr__(
                self,
                "fctrl",
                FCtrl(
                    adr=self.fctrl.adr,
                    adr_ack_req=self.fctrl.adr_ack_req,
                    ack=self.fctrl.ack,
                    class_b=self.fctrl.class_b,
                    fopts_length=len(self.fopts),
                ),
            )

    # ------------------------------------------------------------------ wire

    def encode(self, key: bytes = b"") -> bytes:
        """Serialize to PHYPayload bytes (MHDR | MACPayload | MIC)."""
        mhdr = (int(self.mtype) << 5) | LORAWAN_MAJOR
        fhdr = (
            struct.pack("<I", self.dev_addr)
            + bytes([self.fctrl.encode()])
            + struct.pack("<H", self.fcnt)
            + self.fopts
        )
        body = bytes([mhdr]) + fhdr
        if self.fport is not None:
            body += bytes([self.fport]) + self.payload
        return body + _mic(key, body)

    @classmethod
    def decode(cls, data: bytes, key: bytes = b"", verify: bool = True) -> "Frame":
        """Parse PHYPayload bytes; raises ProtocolError on malformed input."""
        minimum = 1 + 7 + MIC_LENGTH  # MHDR + FHDR + MIC
        if len(data) < minimum:
            raise ProtocolError(f"frame too short: {len(data)} bytes")
        body, mic = data[:-MIC_LENGTH], data[-MIC_LENGTH:]
        if verify and _mic(key, body) != mic:
            raise ProtocolError("MIC verification failed")
        mhdr = body[0]
        if mhdr & 0b11 != LORAWAN_MAJOR:
            raise ProtocolError("unsupported LoRaWAN major version")
        try:
            mtype = MType((mhdr >> 5) & 0b111)
        except ValueError as error:
            raise ProtocolError(f"unknown MType in MHDR 0x{mhdr:02x}") from error
        dev_addr = struct.unpack("<I", body[1:5])[0]
        fctrl = FCtrl.decode(body[5])
        fcnt = struct.unpack("<H", body[6:8])[0]
        fopts_end = 8 + fctrl.fopts_length
        if fopts_end > len(body):
            raise ProtocolError("FOpts length exceeds frame")
        fopts = body[8:fopts_end]
        rest = body[fopts_end:]
        if rest:
            fport: Optional[int] = rest[0]
            payload = rest[1:]
        else:
            fport, payload = None, b""
        return cls(
            mtype=mtype,
            dev_addr=dev_addr,
            fcnt=fcnt,
            payload=payload,
            fport=fport,
            fctrl=fctrl,
            fopts=fopts,
        )

    @property
    def wire_size(self) -> int:
        """Total PHYPayload size in bytes."""
        port = 0 if self.fport is None else 1
        return 1 + 7 + len(self.fopts) + port + len(self.payload) + MIC_LENGTH


# ------------------------------------------------------ paper-specific frames

#: FPort used for sensor data carrying a piggybacked transition report.
REPORT_FPORT = 10


def build_uplink(
    dev_addr: int,
    fcnt: int,
    sensor_payload: bytes,
    report: Optional[TransitionReport] = None,
    confirmed: bool = True,
) -> Frame:
    """An uplink data frame, optionally with the 4-byte battery report.

    The report is appended to the application payload, exactly the
    "appended to the subsequent packet" scheme of Section III-B; the
    FPort signals its presence so the network server knows to strip it.
    """
    payload = sensor_payload
    fport = 1
    if report is not None:
        payload = sensor_payload + report.encode()
        fport = REPORT_FPORT
    return Frame(
        mtype=MType.CONFIRMED_UP if confirmed else MType.UNCONFIRMED_UP,
        dev_addr=dev_addr,
        fcnt=fcnt,
        payload=payload,
        fport=fport,
    )


def uplink_payload_bytes(
    sensor_payload_bytes: int, with_report: bool = False
) -> int:
    """FRMPayload size of an uplink, optionally with the 4-byte report.

    The airtime/energy tables are keyed per payload size; a report-
    bearing uplink is exactly ``TransitionReport.WIRE_SIZE_BYTES`` (4)
    bytes longer than a plain one (Section III-B's overhead accounting),
    so the two variants get distinct :class:`~repro.lora.tables
    .AirtimeTable` entries.
    """
    if sensor_payload_bytes < 0:
        raise ConfigurationError("payload size cannot be negative")
    if with_report:
        return sensor_payload_bytes + TransitionReport.WIRE_SIZE_BYTES
    return sensor_payload_bytes


def parse_uplink(frame: Frame) -> tuple:
    """Split an uplink into (sensor_payload, report-or-None)."""
    if frame.fport != REPORT_FPORT:
        return frame.payload, None
    if len(frame.payload) < TransitionReport.WIRE_SIZE_BYTES:
        raise ProtocolError("report FPort set but payload too short")
    split = len(frame.payload) - TransitionReport.WIRE_SIZE_BYTES
    return frame.payload[:split], TransitionReport.decode(frame.payload[split:])


def build_ack(
    dev_addr: int, fcnt: int, w_byte: Optional[int] = None
) -> Frame:
    """The gateway's ACK, with the optional 1-byte ``w_u`` in FOpts.

    A plain ACK has empty FOpts (no overhead); a dissemination ACK grows
    by exactly one byte, matching the paper's overhead accounting.
    """
    fopts = b""
    if w_byte is not None:
        if not 0 <= w_byte <= 255:
            raise ConfigurationError("w byte out of range")
        fopts = bytes([w_byte])
    return Frame(
        mtype=MType.UNCONFIRMED_DOWN,
        dev_addr=dev_addr,
        fcnt=fcnt,
        fport=None,
        fctrl=FCtrl(ack=True, fopts_length=len(fopts)),
        fopts=fopts,
    )


def parse_ack(frame: Frame) -> Optional[int]:
    """Extract the disseminated ``w_u`` byte from an ACK, if present."""
    if not frame.fctrl.ack:
        raise ProtocolError("frame is not an ACK")
    if not frame.fopts:
        return None
    return frame.fopts[0]
