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

This module holds the device's value types every other module consumes,
the catalog of the eleven manufactured device variants (types ``A``..``K``,
``B`` being the nominal build), and the hardness-to-modulus conversion used
for the cast elastomer.  All quantities are SI: m, m^2, Pa.

Every value type is immutable: the input types share this module's
``_Frozen`` base, and the result types are ``typing.NamedTuple``s.
``x._replace(field=value)`` is a copy with changes that runs the
constructor's checks again, ``x._fields`` names the fields in order and
``x._asdict()`` maps them to their values.
"""

from __future__ import annotations

import math

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


class _Frozen:
    """Base of the input value types: an immutable record of named fields.

    A subclass names its fields once, ``__slots__ = _fields = (...)``; its
    ``__init__`` takes them as parameters in that order, checks them and
    passes them on to ``_set``, which sets each slot.

    Assigning or deleting an attribute raises ``AttributeError``; values
    of one type compare and hash by their fields, and the ``repr`` names
    each field.  ``_asdict()`` maps the fields to their values and
    ``_replace(**changes)`` is a copy with some of them replaced, as on a
    ``NamedTuple``.  A replaced, copied or unpickled value is built by
    the constructor, so each one passes its checks again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the slots' own setters: ``__setattr__`` refuses every name
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls._fields)

    def _set(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self._asdict().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return self.__class__(**{**self._asdict(), **changes})

    __replace__ = _replace      # ``copy.replace``, Python 3.13+


class Material(_Frozen):
    """Cast elastomer of the flap gate: its Shore A durometer hardness
    ``shore_a`` and its Young's modulus ``youngs_modulus`` [Pa]."""

    __slots__ = _fields = ("shore_a", "youngs_modulus")

    def __init__(self, shore_a: float, youngs_modulus: float) -> None:
        if not 0.0 < shore_a < 100.0:
            raise ValueError("shore_a must lie in (0, 100)")
        if not 0.0 < youngs_modulus < math.inf:
            raise ValueError("youngs_modulus must be positive and finite")
        self._set(shore_a, youngs_modulus)

    @classmethod
    def from_shore_a(cls, shore_a: float) -> "Material":
        return cls(shore_a=shore_a, youngs_modulus=shore_to_modulus(shore_a))


class FlapGateGeometry(_Frozen):
    """Cantilever gate wall dimensions [m]: width ``w`` across the
    channel, thickness ``t`` and height ``h`` along the channel.
    Constructed leniently; see :func:`validate_geometry` for the
    well-formedness check."""

    __slots__ = _fields = ("w", "t", "h")

    def __init__(self, w: float, t: float, h: float) -> None:
        self._set(w, t, h)


_DEFAULT_GATE = FlapGateGeometry(8.0e-3, 0.5e-3, 2.0e-3)


class DeviceGeometry(_Frozen):
    """Port and channel areas plus the gate dimensions.

    The areas [m^2] are the inlet port ``a_in``, one downstream branch
    ``a_branch``, a single nozzle exit ``a_ne`` (of ``n_nozzles``), the
    exhaust opening ``a_ex`` and the output port ``a_out``;
    ``channel_width_ref`` [m] is the gate channel width of the nominal
    build.  ``split_design_rule`` declares that the inlet feeds two
    equal branches, i.e. ``a_in == 2 * a_branch``, which makes the
    junction pressure track the inlet pressure exactly.  Constructed
    leniently, as the gate is.
    """

    __slots__ = _fields = ("a_in", "a_branch", "a_ne", "n_nozzles", "a_ex",
                           "a_out", "channel_width_ref", "gate",
                           "split_design_rule")

    def __init__(self, a_in: float = DEFAULT_A_IN,
                 a_branch: float = DEFAULT_A_BRANCH, a_ne: float = 0.4e-6,
                 n_nozzles: int = DEFAULT_N_NOZZLES,
                 a_ex: float = DEFAULT_A_EX, a_out: float = DEFAULT_A_OUT,
                 channel_width_ref: float = DEFAULT_CHANNEL_WIDTH_REF,
                 gate: FlapGateGeometry = _DEFAULT_GATE,
                 split_design_rule: bool = True) -> None:
        self._set(a_in, a_branch, a_ne, n_nozzles, a_ex, a_out,
                  channel_width_ref, gate, split_design_rule)


class Device(_Frozen):
    """A complete simulated unit: geometry and gate material."""

    __slots__ = _fields = ("geometry", "material", "type_id")

    def __init__(self, geometry: DeviceGeometry, material: Material,
                 type_id: str | None = None) -> None:
        self._set(geometry, material, type_id)


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
    # every output's a_fg / a_ex is at most the gate's w h / a_ex
    if not violations and g.gate.w * g.gate.h / g.a_ex == math.inf:
        violations.append("gate.w * gate.h / a_ex must be finite")
    if g.split_design_rule and g.a_in > 0.0:
        # equal two-way split: a_in = 2 * a_branch to 1e-12 relative
        if abs(g.a_in - 2.0 * g.a_branch) > 1.0e-12 * g.a_in:
            violations.append("split_design_rule requires a_in == 2 * a_branch")
    return violations


def with_gate(device: Device, *, w: float | None = None, t: float | None = None,
              h: float | None = None, a_ne: float | None = None) -> Device:
    """Copy of ``device`` with selected gate/nozzle dimensions replaced;
    the copy has no ``type_id``."""
    g = device.geometry
    gate = g.gate._replace(**{
        k: v for k, v in (("w", w), ("t", t), ("h", h)) if v is not None})
    nozzle = {} if a_ne is None else {"a_ne": a_ne}
    return Device(g._replace(gate=gate, **nozzle), device.material)
