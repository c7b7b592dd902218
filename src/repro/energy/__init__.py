"""Energy-harvesting substrate: synthetic solar model (NREL substitute),
per-node harvesters, very-short-term forecasters, the software-defined
battery switch (Eq. 5), and the supercapacitor hybrid storage extension.
"""

from .ar1 import CheckpointedAR1
from .forecast import (
    EnergyForecaster,
    NoisyForecaster,
    OracleForecaster,
    PersistenceForecaster,
)
from .harvester import Harvester
from .solar import (
    CloudProcess,
    SolarModel,
    clear_sky_factor,
    clear_sky_factor_batch,
)
from .storage import HybridStorage, Supercapacitor
from .switch import SoftwareDefinedSwitch, WindowEnergyResult

__all__ = [
    "CheckpointedAR1",
    "CloudProcess",
    "EnergyForecaster",
    "HybridStorage",
    "Harvester",
    "NoisyForecaster",
    "OracleForecaster",
    "PersistenceForecaster",
    "SoftwareDefinedSwitch",
    "SolarModel",
    "Supercapacitor",
    "WindowEnergyResult",
    "clear_sky_factor",
    "clear_sky_factor_batch",
]
