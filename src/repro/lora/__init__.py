"""LoRa physical-layer substrate: parameters, airtime/energy, channels,
propagation, and collisions.

This package reimplements the physical-layer facts the paper takes from
the SX1276 datasheet [23] and the NS-3 LoRaWAN module [25].
"""

from .channels import (
    Channel,
    ChannelHopper,
    ChannelPlan,
    us915_downlink_channels,
    us915_uplink_channels,
)
from .collision import CollisionDetector, Transmission, survives_capture
from .frames import uplink_payload_bytes
from .link import LogDistanceLink, free_space_path_loss_db, noise_floor_dbm
from .params import (
    BANDWIDTH_125K,
    BANDWIDTH_250K,
    BANDWIDTH_500K,
    CAPTURE_THRESHOLD_DB,
    DEFAULT_PREAMBLE_SYMBOLS,
    DEMODULATION_SNR_DB,
    SENSITIVITY_DBM,
    CodingRate,
    RadioPowerProfile,
    SpreadingFactor,
    TxParams,
    low_data_rate_optimize,
)
from .phy import (
    EnergyModel,
    bitrate,
    datasheet_symbol_count,
    rx_energy,
    sleep_energy,
    symbol_count,
    time_on_air,
    tx_energy,
)
from .tables import AirtimeEntry, AirtimeTable, airtime_table

__all__ = [
    "AirtimeEntry",
    "AirtimeTable",
    "airtime_table",
    "BANDWIDTH_125K",
    "BANDWIDTH_250K",
    "BANDWIDTH_500K",
    "CAPTURE_THRESHOLD_DB",
    "Channel",
    "ChannelHopper",
    "ChannelPlan",
    "CodingRate",
    "CollisionDetector",
    "DEFAULT_PREAMBLE_SYMBOLS",
    "DEMODULATION_SNR_DB",
    "EnergyModel",
    "LogDistanceLink",
    "RadioPowerProfile",
    "SENSITIVITY_DBM",
    "SpreadingFactor",
    "Transmission",
    "TxParams",
    "bitrate",
    "datasheet_symbol_count",
    "free_space_path_loss_db",
    "low_data_rate_optimize",
    "noise_floor_dbm",
    "rx_energy",
    "sleep_energy",
    "survives_capture",
    "symbol_count",
    "time_on_air",
    "tx_energy",
    "uplink_payload_bytes",
    "us915_downlink_channels",
    "us915_uplink_channels",
]
