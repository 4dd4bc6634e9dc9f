"""Every field of the validated value types: a non-finite or out-of-domain
value is rejected, and a valid one round-trips unchanged."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as hs

from fdrsim import (DeviceGeometry, FlapGateGeometry, Material,
                    MeasurementRow, ModelCoefficients, validate_geometry)

_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)

_NON_FINITE = hs.sampled_from([math.nan, math.inf, -math.inf])


class _Domain(NamedTuple):
    """A finite interval; ``None`` bounds are open to the finite floats."""
    lo: float | None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    optional: bool = False     # None is valid too

    def valid(self):
        values = hs.floats(
            min_value=self.lo, max_value=self.hi,
            exclude_min=self.lo_open, exclude_max=self.hi_open,
            allow_nan=False, allow_infinity=False)
        return hs.one_of(hs.none(), values) if self.optional else values

    def invalid(self):
        # nextafter keeps -0.0 out of "below a closed 0", which it is not
        bad = [_NON_FINITE]
        if self.lo is not None:
            bad.append(hs.floats(max_value=self.lo if self.lo_open
                                 else math.nextafter(self.lo, -math.inf),
                                 allow_nan=False))
        if self.hi is not None:
            bad.append(hs.floats(min_value=self.hi if self.hi_open
                                 else math.nextafter(self.hi, math.inf),
                                 allow_nan=False))
        return hs.one_of(*bad)


_POSITIVE = _Domain(0.0, lo_open=True)
_NONNEGATIVE = _Domain(0.0)

# value type -> its fields' domains
_TYPES = {
    Material: {"shore_a": _Domain(0.0, 100.0, lo_open=True, hi_open=True),
               "youngs_modulus": _POSITIVE},
    ModelCoefficients: {"c1": _NONNEGATIVE, "c2": _NONNEGATIVE,
                        "eta": _POSITIVE, "c_recirc": _NONNEGATIVE,
                        "k0": _POSITIVE, "p_c": _NONNEGATIVE,
                        "cd_out": _Domain(0.0, 1.0, lo_open=True)},
    MeasurementRow: {"q_in": _NONNEGATIVE,
                     "p_in": _Domain(None, optional=True),
                     "p_out": _Domain(None, optional=True),
                     "a_fg": _Domain(None, optional=True)},
}


def _valid_fields(domains):
    return hs.fixed_dictionaries({name: domain.valid()
                                  for name, domain in domains.items()})


def test_domains_cover_every_field():
    for cls, domains in _TYPES.items():
        assert set(domains) == set(cls._fields)


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
@_PROPERTY
@given(data=hs.data())
def test_valid_fields_round_trip(cls, data):
    values = data.draw(_valid_fields(_TYPES[cls]))
    obj = cls(**values)
    assert obj._asdict() == values
    assert cls(**obj._asdict()) == obj


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
@_PROPERTY
@given(data=hs.data())
def test_one_bad_field_rejected(cls, data):
    domains = _TYPES[cls]
    values = data.draw(_valid_fields(domains))
    name = data.draw(hs.sampled_from(sorted(domains)))
    values[name] = data.draw(domains[name].invalid())
    with pytest.raises(ValueError):
        cls(**values)


# --- validate_geometry ----------------------------------------------------------

_FINITE_POSITIVE = _POSITIVE.valid()


@hs.composite
def geometries(draw):
    """Any valid geometry: a thin plate (t below w and h), a finite
    ``w h / a_ex`` and, under the split rule, ``a_in == 2 * a_branch``
    (exact, a doubling)."""
    t = draw(hs.floats(0.0, 1.0e150, exclude_min=True))
    # w h stays below 1e308, and a_ex above w h / 1e308
    above_t = hs.floats(min_value=t, max_value=1.0e154, exclude_min=True)
    w, h = draw(above_t), draw(above_t)
    split = draw(hs.booleans())
    a_branch = draw(hs.floats(0.0, 1.0e300, exclude_min=True))
    return DeviceGeometry(
        a_in=2.0 * a_branch if split else draw(_FINITE_POSITIVE),
        a_branch=a_branch, a_ne=draw(_FINITE_POSITIVE),
        n_nozzles=draw(hs.integers(1, 10**6)),
        a_ex=draw(hs.floats(min_value=w * h / 1.0e308, exclude_min=True,
                            allow_infinity=False)),
        a_out=draw(_FINITE_POSITIVE),
        channel_width_ref=draw(_FINITE_POSITIVE),
        gate=FlapGateGeometry(w=w, t=t, h=h),
        split_design_rule=split)


_GEOMETRY_FIELDS = ("a_in", "a_branch", "a_ne", "a_ex", "a_out",
                    "channel_width_ref")
_GATE_FIELDS = ("w", "t", "h")


@_PROPERTY
@given(g=geometries())
def test_valid_geometry_round_trips(g):
    assert validate_geometry(g) == []
    fields = g._asdict()
    fields["gate"] = FlapGateGeometry(**fields["gate"]._asdict())
    assert DeviceGeometry(**fields) == g


@_PROPERTY
@given(g=geometries(),
       name=hs.sampled_from(_GEOMETRY_FIELDS + _GATE_FIELDS),
       bad=_POSITIVE.invalid())
def test_geometry_bad_dimension_named(g, name, bad):
    if name in _GATE_FIELDS:
        g = g._replace(gate=g.gate._replace(**{name: bad}))
        name = f"gate.{name}"
    else:
        g = g._replace(**{name: bad})
    assert f"{name} must be positive and finite" in validate_geometry(g)


@_PROPERTY
@given(g=geometries(),
       bad=hs.one_of(_NON_FINITE, hs.integers(max_value=0),
                     hs.floats(max_value=1.0, exclude_max=True)))
def test_geometry_bad_nozzle_count_named(g, bad):
    g = g._replace(n_nozzles=bad)
    assert "n_nozzles must be at least 1 and finite" in validate_geometry(g)
