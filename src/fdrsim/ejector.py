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
out of the port), negative means suction.  The closure is computed in one
place, the point law in ``engine``; this module holds its coefficients,
the jet velocity and the recirculation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .core import DEFAULT_CHANNEL_WIDTH_REF, DeviceGeometry

__all__ = [
    "SupersonicJetWarning",
    "ModelCoefficients",
    "DEFAULT_COEFFS",
    "jet_velocity",
    "recirculation_penalty",
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
