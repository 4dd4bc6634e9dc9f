"""Display-unit conversion factors.

Everything computational in this package is strict SI.  The factors below
exist only for the I/O boundary (command line flags, CSV columns, config
files, bundled measurement points) where flows are quoted in L/min,
pressures in kPa, and small lengths/areas in mm and mm^2.
"""

M3S_PER_LPM = 1.0 / 60000.0     # volumetric flow, L/min -> m^3/s
PA_PER_KPA = 1.0e3              # pressure, kPa -> Pa
M_PER_MM = 1.0e-3               # length, mm -> m
M2_PER_MM2 = 1.0e-6             # area, mm^2 -> m^2
M2_PER_CM2 = 1.0e-4             # area, cm^2 -> m^2
N_PER_GF = 9.80665e-3           # force, gram-force -> N
