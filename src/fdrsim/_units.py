"""Display-unit conversion factors and units.

Everything computational in this package is strict SI.  The factors below
exist only for the I/O boundary (command line flags, CSV columns, config
files, bundled measurement points) where flows are quoted in L/min,
pressures in kPa, and small lengths/areas in mm and mm^2.
"""

from __future__ import annotations

from typing import NamedTuple

M3S_PER_LPM = 1.0 / 60000.0     # volumetric flow, L/min -> m^3/s
PA_PER_KPA = 1.0e3              # pressure, kPa -> Pa
M_PER_MM = 1.0e-3               # length, mm -> m
M2_PER_MM2 = 1.0e-6             # area, mm^2 -> m^2
M2_PER_CM2 = 1.0e-4             # area, cm^2 -> m^2
N_PER_GF = 9.80665e-3           # force, gram-force -> N


class Unit(NamedTuple):
    """Name suffixes and scale of a quantity kind: ``q_in`` in ``FLOW`` is
    ``q_in_lpm`` in display units and ``q_in_m3s`` in SI.  Conversions
    divide or multiply by ``scale``, never by its reciprocal."""

    display: str            # display-unit suffix, "" when unitless
    si: str                 # SI suffix
    scale: float | None     # SI value of one display unit; None: unitless

    def key(self, base: str) -> str:
        """Display-unit column or config key of quantity ``base``."""
        return f"{base}_{self.display}" if self.display else base

    def to_display(self, x: float) -> float:
        """SI value -> display value."""
        return x if self.scale is None else x / self.scale

    def to_si(self, x: float) -> float:
        """Display value -> SI value."""
        return x if self.scale is None else x * self.scale


FLOW = Unit("lpm", "m3s", M3S_PER_LPM)
PRESSURE = Unit("kpa", "pa", PA_PER_KPA)
AREA = Unit("mm2", "m2", M2_PER_MM2)
LENGTH = Unit("mm", "m", M_PER_MM)
FORCE = Unit("n", "n", 1.0)     # newtons both ways
UNITLESS = Unit("", "", None)
