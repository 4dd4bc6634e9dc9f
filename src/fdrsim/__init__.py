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
"""

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
from .friction import (FrictionCurvePoint, FrictionPrediction,
                       effective_normal, friction_curve, predict_coefficients)
from .calib import (FitError, FitReport, MeasurementRow, MeasurementSet,
                    builtin_calibration_points, fit_closures,
                    fit_input_pressure, load_measurements)

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
    "FrictionCurvePoint", "FrictionPrediction", "effective_normal",
    "friction_curve", "predict_coefficients",
    "FitError", "FitReport", "MeasurementRow", "MeasurementSet",
    "builtin_calibration_points", "fit_closures", "fit_input_pressure",
    "load_measurements",
    "__version__",
]
