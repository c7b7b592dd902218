"""Deterministic, seed-driven fault injection for the simulators.

BLAM's control loop is closed over the radio: degradation weights are
computed at the gateway and disseminated back in ACKs, so lost ACKs,
gateway outages, and node reboots silently break lifespan-aware
scheduling.  This package makes those failure modes first-class:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` data,
* :mod:`repro.faults.models` — the runtime loss/outage/corruption models,
* :mod:`repro.faults.injector` — the :class:`FaultInjector` the engine
  consults at every event boundary, plus the :class:`FaultCounters`
  surfaced in run metrics,
* :mod:`repro.faults.staleness` — the ``w_u`` TTL and its decay.

Everything is driven by a single seed: two runs of the same plan are
bit-identical, and an empty plan is bit-identical to no plan at all.
"""

from .injector import FaultCounters, FaultInjector
from .models import AckLossChannel, CorruptedForecaster, OutageSchedule
from .plan import BurstLoss, FaultPlan, GatewayOutage, NodeReboot

__all__ = [
    "AckLossChannel",
    "BurstLoss",
    "CorruptedForecaster",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "GatewayOutage",
    "NodeReboot",
    "OutageSchedule",
]
