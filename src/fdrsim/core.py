"""Device description layer: elastomer material and geometry.

The simulated device is a palm-sized pneumatic block with a single air
inlet.  Inside, the inlet stream splits at a junction: one branch dead-ends
in a pair of inflatable side chambers, the other feeds two small nozzles
that blow across an ejector cavity toward an output port.  A thin cantilever
flap gate (two elastomer walls of width ``w``, thickness ``t``, height ``h``)
sits between the cavity and an exhaust opening.  At low input flow the gate
stays shut and the output port blows; as the chambers inflate they squeeze
the gate open, the jets entrain air from the output port through the exhaust,
and the port switches to suction.

This module holds the value types every other module consumes, the catalog
of the eleven manufactured device variants (types ``A``..``K``, ``B`` being
the nominal build), and the hardness-to-modulus conversion used for the cast
elastomer.  All quantities are SI: m, m^2, Pa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "P_ATM",
    "Material",
    "FlapGateGeometry",
    "DeviceGeometry",
    "Device",
    "CATALOG_TYPE_IDS",
    "shore_to_modulus",
    "catalog_device",
    "validate_geometry",
    "with_gate",
]

P_ATM = 101325.0  # absolute ambient pressure [Pa]; gauge zero everywhere else

# Nominal port/channel sizes shared by every cataloged variant [m^2], [m].
DEFAULT_A_IN = 4.0e-6           # inlet port area
DEFAULT_A_BRANCH = 2.0e-6       # per-branch area; inlet splits into two equal branches
DEFAULT_A_EX = 6.0e-6           # exhaust opening behind the flap gate
DEFAULT_A_OUT = 6.0e-6          # output port area
DEFAULT_N_NOZZLES = 2           # jets feeding the ejector cavity
DEFAULT_CHANNEL_WIDTH_REF = 8.0e-3  # gate channel width of the nominal build


def shore_to_modulus(shore_a: float) -> float:
    """Young's modulus estimate [Pa] for a rubber of the given Shore A hardness.

    Uses the Gent indentation relation
    ``E = 0.0981 (56 + 7.66 S) / (0.137505 (254 - 2.54 S))`` MPa,
    strictly increasing on the open interval (0, 100).
    """
    if not 0.0 < shore_a < 100.0:
        raise ValueError(f"shore_a must lie in (0, 100), got {shore_a}")
    mpa = 0.0981 * (56.0 + 7.66 * shore_a) / (0.137505 * (254.0 - 2.54 * shore_a))
    return mpa * 1.0e6


@dataclass(frozen=True)
class Material:
    """Cast elastomer of the flap gate."""

    shore_a: float            # Shore A durometer hardness
    youngs_modulus: float     # [Pa]

    def __post_init__(self) -> None:
        if not 0.0 < self.shore_a < 100.0:
            raise ValueError("shore_a must lie in (0, 100)")
        if not 0.0 < self.youngs_modulus < math.inf:
            raise ValueError("youngs_modulus must be positive and finite")

    @classmethod
    def from_shore_a(cls, shore_a: float) -> "Material":
        return cls(shore_a=shore_a, youngs_modulus=shore_to_modulus(shore_a))


@dataclass(frozen=True)
class FlapGateGeometry:
    """Cantilever gate wall dimensions.  Constructed leniently; see
    :func:`validate_geometry` for the well-formedness check."""

    w: float   # wall width across the channel [m]
    t: float   # wall thickness [m]
    h: float   # wall height along the channel [m]


@dataclass(frozen=True)
class DeviceGeometry:
    """Port and channel areas plus the gate dimensions.

    ``split_design_rule`` declares that the inlet feeds two equal branches,
    i.e. ``a_in == 2 * a_branch``, which makes the junction pressure track
    the inlet pressure exactly.
    """

    a_in: float = DEFAULT_A_IN               # inlet port [m^2]
    a_branch: float = DEFAULT_A_BRANCH       # one downstream branch [m^2]
    a_ne: float = 0.4e-6                     # single nozzle exit [m^2]
    n_nozzles: int = DEFAULT_N_NOZZLES
    a_ex: float = DEFAULT_A_EX               # exhaust opening [m^2]
    a_out: float = DEFAULT_A_OUT             # output port [m^2]
    channel_width_ref: float = DEFAULT_CHANNEL_WIDTH_REF  # [m]
    gate: FlapGateGeometry = field(default_factory=lambda: FlapGateGeometry(8.0e-3, 0.5e-3, 2.0e-3))
    split_design_rule: bool = True


@dataclass(frozen=True)
class Device:
    """A complete simulated unit: geometry and gate material."""

    geometry: DeviceGeometry
    material: Material
    type_id: str | None = None


# Catalog of manufactured variants: (shore A, a_ne [m^2], w [m], t [m], h [m]).
# Type B is the nominal build; every other type deviates from B in exactly
# one column.
_CATALOG: dict[str, tuple[float, float, float, float, float]] = {
    "A": (10.0, 0.40e-6, 6.0e-3, 0.5e-3, 2.0e-3),
    "B": (10.0, 0.40e-6, 8.0e-3, 0.5e-3, 2.0e-3),
    "C": (10.0, 0.40e-6, 10.0e-3, 0.5e-3, 2.0e-3),
    "D": (10.0, 0.40e-6, 8.0e-3, 0.4e-3, 2.0e-3),
    "E": (10.0, 0.40e-6, 8.0e-3, 0.6e-3, 2.0e-3),
    "F": (10.0, 0.40e-6, 8.0e-3, 0.5e-3, 1.8e-3),
    "G": (10.0, 0.40e-6, 8.0e-3, 0.5e-3, 1.9e-3),
    "H": (10.0, 0.32e-6, 8.0e-3, 0.5e-3, 2.0e-3),
    "I": (10.0, 0.48e-6, 8.0e-3, 0.5e-3, 2.0e-3),
    "J": (20.0, 0.40e-6, 8.0e-3, 0.5e-3, 2.0e-3),
    "K": (30.0, 0.40e-6, 8.0e-3, 0.5e-3, 2.0e-3),
}

CATALOG_TYPE_IDS: tuple[str, ...] = tuple(_CATALOG)


def catalog_device(type_id: str) -> Device:
    """Build one of the cataloged variants ``A``..``K``."""
    key = type_id.strip().upper()
    if key not in _CATALOG:
        valid = ", ".join(CATALOG_TYPE_IDS)
        raise ValueError(f"unknown device type {type_id!r}; valid types: {valid}")
    shore_a, a_ne, w, t, h = _CATALOG[key]
    geometry = DeviceGeometry(a_ne=a_ne, gate=FlapGateGeometry(w=w, t=t, h=h))
    return Device(geometry=geometry, material=Material.from_shore_a(shore_a),
                  type_id=key)


def validate_geometry(g: DeviceGeometry) -> list[str]:
    """Return human-readable constraint violations (empty list when valid)."""
    violations: list[str] = []
    for name in ("a_in", "a_branch", "a_ne", "a_ex", "a_out"):
        if not 0.0 < getattr(g, name) < math.inf:
            violations.append(f"{name} must be positive and finite")
    if not 1 <= g.n_nozzles < math.inf:
        violations.append("n_nozzles must be at least 1 and finite")
    if not 0.0 < g.channel_width_ref < math.inf:
        violations.append("channel_width_ref must be positive and finite")
    for name in ("w", "t", "h"):
        if not 0.0 < getattr(g.gate, name) < math.inf:
            violations.append(f"gate.{name} must be positive and finite")
    # thin-plate regime: the flap must be slender in both directions
    if g.gate.t > 0.0 and g.gate.w > 0.0 and g.gate.t >= g.gate.w:
        violations.append("gate.t must be smaller than gate.w")
    if g.gate.t > 0.0 and g.gate.h > 0.0 and g.gate.t >= g.gate.h:
        violations.append("gate.t must be smaller than gate.h")
    if g.split_design_rule and g.a_in > 0.0:
        # equal two-way split: a_in = 2 * a_branch to 1e-12 relative
        if abs(g.a_in - 2.0 * g.a_branch) > 1.0e-12 * g.a_in:
            violations.append("split_design_rule requires a_in == 2 * a_branch")
    return violations


def with_gate(device: Device, *, w: float | None = None, t: float | None = None,
              h: float | None = None, a_ne: float | None = None) -> Device:
    """Copy of ``device`` with selected gate/nozzle dimensions replaced;
    the copy has no ``type_id``."""
    gate = replace(device.geometry.gate, **{
        k: v for k, v in (("w", w), ("t", t), ("h", h)) if v is not None})
    nozzle = {} if a_ne is None else {"a_ne": a_ne}
    geometry = replace(device.geometry, gate=gate, **nozzle)
    return replace(device, geometry=geometry, type_id=None)
