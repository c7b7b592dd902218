"""Network-simulation substrate (NS-3 substitute).

Two engines share configuration, topology, and metrics:

* :mod:`repro.sim.engine` — exact event-driven simulation for
  testbed-scale scenarios (per-attempt airtime overlap, capture, ω
  demodulators, class-A timing).
* :mod:`repro.sim.mesoscopic` — period-granular runner with exact
  per-window contention for multi-year, hundreds-of-nodes horizons,
  plus principled degradation-rate extrapolation.
"""

from .config import SimulationConfig
from .engine import (
    SimulationResult,
    Simulator,
    build_forecaster,
    build_mac,
    run_simulation,
)
from .events import EventQueue
from .gateway import Gateway, GatewayStats, ReceptionToken
from .mesoscopic import (
    MesoscopicResult,
    MesoscopicSimulator,
    MonthlySample,
    resolve_window,
    run_mesoscopic,
)
from .metrics import NetworkMetrics, NodeMetrics, percentile
from .node import EndDevice, PacketState
from .packetlog import PacketLog, PacketRecord
from .server import AckPayload, NetworkServer
from .topology import (
    NodePlacement,
    gateway_positions,
    assign_spreading_factor,
    build_topology,
    sample_period_s,
    uniform_disk_point,
)

__all__ = [
    "AckPayload",
    "EndDevice",
    "EventQueue",
    "Gateway",
    "GatewayStats",
    "MesoscopicResult",
    "MesoscopicSimulator",
    "MonthlySample",
    "NetworkMetrics",
    "NetworkServer",
    "NodeMetrics",
    "NodePlacement",
    "PacketLog",
    "PacketRecord",
    "PacketState",
    "ReceptionToken",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "assign_spreading_factor",
    "build_forecaster",
    "build_mac",
    "build_topology",
    "gateway_positions",
    "resolve_window",
    "run_mesoscopic",
    "run_simulation",
    "percentile",
    "sample_period_s",
    "uniform_disk_point",
]
