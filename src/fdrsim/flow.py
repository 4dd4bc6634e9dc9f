"""Supply law and junction pressure: the gas path up to the gate.

The inlet pressure follows the calibrated supply law
``p_in = c1 q + c2 q^2``.  The junction feeding the inflatable chambers
holds a static pressure given by a compressible energy balance between
the inlet (area ``a_in``) and one of the two downstream branches (area
``a_branch``):

    p = (rho / rho_in) p_in
        + (gamma - 1)/(2 gamma) rho (q_in / a_in)^2 (1 - (a_in / (2 a_branch))^2)

With ``a_in == 2 a_branch`` the kinetic term vanishes identically, and
with ``rho == rho_in`` the junction simply holds the inlet pressure.  The
gate opens under that junction pressure alone; the chambers are dead ends
and carry no steady flow.  The junction balance is computed in one place,
the point law in ``engine``; this module holds the supply law.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .ejector import ModelCoefficients

__all__ = [
    "input_pressure",
]


def input_pressure(q_in: float, coeffs: "ModelCoefficients") -> float:
    """Supply gauge pressure [Pa] delivered at the inlet for a commanded flow,
    following the calibrated law ``p_in = c1 q_in + c2 q_in^2``."""
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    return coeffs.c1 * q_in + coeffs.c2 * q_in * q_in
