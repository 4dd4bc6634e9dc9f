"""Pressure-operated flap gate: stiffness ranking and the opening law.

The gate is a pair of cantilevered elastomer walls (width ``w``,
thickness ``t``, height ``h``) spanning the exhaust channel.  Chamber
pressure inflates the side chambers, presses the walls apart, and opens a
flow area ``a_fg``.  A full plate solution is overkill for ranking
designs, so the model reduces to two ingredients:

* a flexural-rigidity proxy ``D = E t^3 h / w`` [N m] that orders gates
  by how hard they are to push open, and
* a saturating linear compliance

      a_fg = min(a_fg_max, (k0 D_ref / D) max(0, p - p_c))

  where ``k0`` [m^2/Pa] is the opening gain quoted for the nominal gate
  (whose stiffness is ``D_ref``), ``p_c`` [Pa] is the cracking pressure
  below which the walls stay sealed, and ``a_fg_max`` caps the opening at
  the physical window ``w h``.

Softer, thinner, or wider gates have smaller ``D`` and therefore open
further at the same pressure.  The opening itself is computed in one
place, the point law in ``engine``; this module holds the stiffness
proxy, its nominal value ``REFERENCE_STIFFNESS`` and the vent ratio.
"""

from __future__ import annotations

import math

from .core import FlapGateGeometry, Material

__all__ = [
    "REFERENCE_STIFFNESS",
    "gate_stiffness",
    "opening_ratio",
]


def gate_stiffness(geom: FlapGateGeometry, mat: Material) -> float:
    """Flexural-rigidity proxy D = E t^3 h / w [N m].

    Strictly increasing in modulus, thickness, and height; strictly
    decreasing in width.  Raises ``ValueError`` when D is not positive
    and finite, as when ``t ** 3`` underflows to zero for a gate far
    thinner than any build.
    """
    if geom.w <= 0.0 or geom.t <= 0.0 or geom.h <= 0.0:
        raise ValueError("gate dimensions must be positive")
    if mat.youngs_modulus <= 0.0:
        raise ValueError("youngs_modulus must be positive")
    try:
        stiffness = mat.youngs_modulus * geom.t ** 3 * geom.h / geom.w
    except OverflowError:   # a float ``**`` out of range
        stiffness = math.inf
    if not 0.0 < stiffness < math.inf:
        raise ValueError("gate stiffness E t^3 h / w must be positive "
                         "and finite")
    return stiffness


def _reference_stiffness() -> float:
    nominal = FlapGateGeometry(w=8.0e-3, t=0.5e-3, h=2.0e-3)
    return gate_stiffness(nominal, Material.from_shore_a(10.0))


# stiffness of the nominal gate; anchors the opening gain k0 so that the
# same k0 means the same compliance on the nominal build
REFERENCE_STIFFNESS = _reference_stiffness()


def opening_ratio(a_fg: float, a_ex: float) -> float:
    """Opening area relative to the exhaust window, a_fg / a_ex."""
    if a_ex <= 0.0:
        raise ValueError("a_ex must be positive")
    if a_fg < 0.0:
        raise ValueError("a_fg must be nonnegative")
    return a_fg / a_ex
