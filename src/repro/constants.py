"""Shared physical and temporal constants used across the library.

Everything is expressed in SI base units unless a suffix says otherwise:
energy in joules, power in watts, time in seconds, temperature in degrees
Celsius (the battery model's equations are written for Celsius and convert
to Kelvin internally).
"""

SECONDS_PER_DAY = 86400.0
DAYS_PER_YEAR = 365.0
SECONDS_PER_YEAR = SECONDS_PER_DAY * DAYS_PER_YEAR

#: Absolute-zero offset used by the degradation model (Eq. 1 and 2 use
#: ``273 + T`` with ``T`` in Celsius).
CELSIUS_TO_KELVIN_OFFSET = 273.0

#: Speed of light in m/s, used by the free-space path-loss reference term.
SPEED_OF_LIGHT = 299_792_458.0

#: Reference thermal noise floor for a 125 kHz LoRa channel at 290 K,
#: in dBm: ``-174 + 10*log10(BW)``.
THERMAL_NOISE_DBM_PER_HZ = -174.0
