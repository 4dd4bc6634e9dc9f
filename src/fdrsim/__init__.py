"""Lumped-parameter simulator for a single-input blow/suck flow-reversal
pneumatic device.

One airflow knob drives the whole device: low flow leaves the elastic
flap gate sealed and the supply blows out of the output port; higher
flow inflates the side chambers, opens the gate, and the resulting jet
entrains air so the same port sucks.  The package models that chain with
calibrated closures, sweeps it over flow ramps, compares gate designs,
predicts the friction change a pad on the port feels, and refits the
closure coefficients to measurements.

All public APIs are strict SI; the command-line layer owns every unit
conversion.

``core``, ``model`` and ``engine`` load with the package.  ``calib``
(with ``csv``) and ``friction`` load on first use of one of their names
(PEP 562), so a process that never fits or predicts friction, such as
``fdr simulate``, neither runs nor compiles them.
"""

import importlib

from .core import (CATALOG_TYPE_IDS, Device, DeviceGeometry,
                   FlapGateGeometry, Material, P_ATM, catalog_device,
                   shore_to_modulus, validate_geometry, with_gate)
from .model import (DEFAULT_COEFFS, ModelCoefficients, SupersonicJetWarning,
                    gate_stiffness, input_pressure)
from .engine import (MODE_BLOWING, MODE_NEUTRAL, MODE_SUCTION,
                     OperatingState, OptimizationResult,
                     SweepError, SweepResult, blowing_objective,
                     compare_designs, design_orderings, nelder_mead,
                     optimize_geometry, solve_operating_point,
                     suction_objective, sweep, switching_objective)

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(("FrictionCurvePoint", "FrictionPrediction",
                     "effective_normal", "friction_curve",
                     "predict_coefficients"), "friction"),
    **dict.fromkeys(("FitError", "FitReport", "MeasurementRow",
                     "MeasurementSet", "builtin_calibration_points",
                     "fit_closures", "fit_input_pressure",
                     "load_measurements"), "calib"),
}

__version__ = "0.1.0"

__all__ = [
    "CATALOG_TYPE_IDS", "Device", "DeviceGeometry",
    "FlapGateGeometry", "Material", "P_ATM",
    "catalog_device", "shore_to_modulus", "validate_geometry", "with_gate",
    "input_pressure", "gate_stiffness",
    "DEFAULT_COEFFS", "ModelCoefficients", "SupersonicJetWarning",
    "MODE_BLOWING", "MODE_NEUTRAL", "MODE_SUCTION",
    "OperatingState", "OptimizationResult", "SweepError",
    "SweepResult", "blowing_objective", "compare_designs",
    "design_orderings", "nelder_mead", "optimize_geometry",
    "solve_operating_point", "suction_objective", "sweep",
    "switching_objective",
    *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    if name in ("calib", "friction"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "calib", "friction"})
