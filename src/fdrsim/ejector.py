"""Jet-entrainment closure for the output port.

The nozzle bank turns supply flow into a high-speed jet across the exhaust
window.  Whatever fraction of the gate window is open vents that jet and
lets it entrain air from the output port (suction); the sealed fraction
forces the flow out through the output restriction instead (blowing).
The port gauge pressure blends the two single-mode limits with the gate
open fraction ``s``:

    p_out = (1 - s) p_blow - s p_suck

    p_blow = rho/2 ((1 - s) q_in / (cd_out a_out))^2
    p_suck = eta q_jet min(1, a_fg / a_ex) penalty(w)

where ``q_jet = rho/2 v_jet^2`` is the per-nozzle jet dynamic pressure and
``penalty`` knocks down entrainment for gates wider than the reference
channel (recirculation in the oversized cavity):

    penalty = 1 / (1 + c_recirc max(0, (w - w_ref)/w_ref)^2)

Sign convention throughout: positive ``p_out`` means blowing (air pushed
out of the port), negative means suction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .core import (DEFAULT_CHANNEL_WIDTH_REF, P_ATM, AIR, DeviceGeometry,
                   FluidProperties)
from .gate import GateState, opening_ratio

__all__ = [
    "SupersonicJetWarning",
    "ModelCoefficients",
    "DEFAULT_COEFFS",
    "jet_velocity",
    "jet_dynamic_pressure",
    "recirculation_penalty",
    "output_pressure",
]


class SupersonicJetWarning(UserWarning):
    """Nozzle exit velocity exceeds the ambient speed of sound; the
    incompressible jet closure is extrapolating."""


@dataclass(frozen=True)
class ModelCoefficients:
    """Calibrated closure coefficients, SI units.

    ``c1``/``c2`` define the supply law ``p_in = c1 q + c2 q^2`` fitted to
    bench data.  ``eta`` is the entrainment efficiency, ``c_recirc`` the
    wide-gate recirculation weight, ``k0``/``p_c`` the gate opening gain
    and cracking pressure, and ``cd_out`` the discharge coefficient of
    the output restriction.  A gate shut below ``p_c`` blocks the air, so
    the supply blows out of the port; no leak path is modelled.
    """

    c1: float = 79528125.0              # [Pa s/m^3]
    c2: float = 35758928571.428566      # [Pa s^2/m^6]
    eta: float = 0.25
    c_recirc: float = 2.5
    k0: float = 1.7e-10                 # [m^2/Pa], nominal gate gain
    p_c: float = 4500.0                 # [Pa]
    cd_out: float = 0.8

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise ValueError("supply law coefficients must be nonnegative")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.c_recirc < 0.0:
            raise ValueError("c_recirc must be nonnegative")
        if self.k0 <= 0.0:
            raise ValueError("k0 must be positive")
        if self.p_c < 0.0:
            raise ValueError("p_c must be nonnegative")
        if not 0.0 < self.cd_out <= 1.0:
            raise ValueError("cd_out must lie in (0, 1]")


DEFAULT_COEFFS = ModelCoefficients()


def jet_velocity(q_in: float, geometry: DeviceGeometry) -> float:
    """Nozzle exit velocity [m/s] with the supply split evenly over the
    nozzle bank."""
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    return (q_in / geometry.n_nozzles) / geometry.a_ne


def jet_dynamic_pressure(q_in: float, geometry: DeviceGeometry,
                         fluid: FluidProperties = AIR) -> float:
    """Per-nozzle jet dynamic pressure rho/2 v^2 [Pa].

    Warns with :class:`SupersonicJetWarning` when the exit velocity tops
    the ambient speed of sound sqrt(gamma P_atm / rho); the model keeps
    evaluating but its incompressible closure is out of its depth there.
    """
    v = jet_velocity(q_in, geometry)
    if v > _sonic_speed(fluid):
        _warn_supersonic()
    return 0.5 * fluid.rho * v * v


def _sonic_speed(fluid: FluidProperties) -> float:
    """Ambient speed of sound sqrt(gamma P_atm / rho) [m/s]."""
    return math.sqrt(fluid.gamma * P_ATM / fluid.rho)


def _warn_supersonic() -> None:
    """Issue :class:`SupersonicJetWarning`, attributed to the line that
    called this function's caller."""
    # static message so repeated sweep points collapse to one report
    warnings.warn("jet velocity exceeds the ambient speed of sound; "
                  "the incompressible jet closure is extrapolating",
                  SupersonicJetWarning, stacklevel=3)


def recirculation_penalty(w: float, coeffs: ModelCoefficients,
                          w_ref: float = DEFAULT_CHANNEL_WIDTH_REF) -> float:
    """Entrainment knockdown for gates wider than the reference channel,
    1 at or below the reference width and falling off quadratically above."""
    if w <= 0.0:
        raise ValueError("w must be positive")
    if w_ref <= 0.0:
        raise ValueError("w_ref must be positive")
    excess = max(0.0, (w - w_ref) / w_ref)
    return 1.0 / (1.0 + coeffs.c_recirc * excess * excess)


def output_pressure(q_in: float, state: GateState, geometry: DeviceGeometry,
                    fluid: FluidProperties = AIR,
                    coeffs: ModelCoefficients = DEFAULT_COEFFS) -> float:
    """Output port gauge pressure [Pa]; positive blows, negative sucks."""
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    s = state.open_fraction
    blocked = (1.0 - s) * q_in
    p_blow = 0.5 * fluid.rho * (blocked / (coeffs.cd_out * geometry.a_out)) ** 2
    q_jet = jet_dynamic_pressure(q_in, geometry, fluid)
    vent = min(1.0, opening_ratio(state.a_fg, geometry.a_ex))
    penalty = recirculation_penalty(geometry.gate.w, coeffs,
                                    geometry.channel_width_ref)
    p_suck = coeffs.eta * q_jet * vent * penalty
    return (1.0 - s) * p_blow - s * p_suck
