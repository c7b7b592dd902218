"""Battery substrate: rainflow counting, the Xu et al. [13] degradation
model (Eq. 1-4), compressed SoC traces, and the battery state machine.
"""

from .battery import Battery
from .constants import DEFAULT_CONSTANTS, DegradationConstants
from .degradation import (
    depth_of_discharge_stress,
    DegradationBreakdown,
    DegradationModel,
    calendar_aging,
    cycle_aging,
    invert_nonlinear_degradation,
    linear_degradation,
    nonlinear_degradation,
    soc_stress,
    temperature_stress,
)
from .incremental import IncrementalDegradation, cached_temperature_stress
from .rainflow import (
    Cycle,
    StreamingRainflow,
    count_cycles,
    cycle_statistics,
    extract_reversals,
)
from .soc_trace import SocTrace, TransitionReport, reconstruct_trace

__all__ = [
    "Battery",
    "Cycle",
    "DEFAULT_CONSTANTS",
    "DegradationBreakdown",
    "DegradationConstants",
    "DegradationModel",
    "IncrementalDegradation",
    "SocTrace",
    "StreamingRainflow",
    "TransitionReport",
    "cached_temperature_stress",
    "calendar_aging",
    "count_cycles",
    "cycle_aging",
    "cycle_statistics",
    "depth_of_discharge_stress",
    "extract_reversals",
    "invert_nonlinear_degradation",
    "linear_degradation",
    "nonlinear_degradation",
    "reconstruct_trace",
    "soc_stress",
    "temperature_stress",
]
