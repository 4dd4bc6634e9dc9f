"""Flap-gate stiffness of ``model``, and the pressure-driven opening
through the point law's (p_in, p_chamber, a_fg, p_out)."""

import re

import numpy as np
import pytest

from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    FlapGateGeometry,
    Material,
    OperatingState,
    catalog_device,
    gate_stiffness,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.cli import _state_columns
from fdrsim.model import _REFERENCE_STIFFNESS, _point_law

_NOMINAL_GATE = FlapGateGeometry(w=8.0e-3, t=0.5e-3, h=2.0e-3)
_SOFT = Material.from_shore_a(10.0)
_NOMINAL = catalog_device("B")   # the nominal gate in the soft material


def test_stiffness_frozen_value():
    # explicit modulus input, nominal wall dimensions
    mat = Material(shore_a=10.0, youngs_modulus=0.574e6)
    d = gate_stiffness(_NOMINAL_GATE, mat)
    assert d == pytest.approx(1.79375e-05, rel=1e-12)


def test_reference_stiffness_matches_nominal_build():
    assert _REFERENCE_STIFFNESS == gate_stiffness(_NOMINAL_GATE, _SOFT)
    assert _REFERENCE_STIFFNESS == pytest.approx(1.2932063744568203e-05,
                                                 rel=1e-12)


def test_stiffness_cubic_in_thickness():
    d1 = gate_stiffness(FlapGateGeometry(8.0e-3, 0.5e-3, 2.0e-3), _SOFT)
    d2 = gate_stiffness(FlapGateGeometry(8.0e-3, 1.0e-3, 2.0e-3), _SOFT)
    assert d2 == 8.0 * d1


@pytest.mark.parametrize("w,t,h", [
    (8.0e-3, 1.0e-108, 2.0e-3),     # t ** 3 underflows to zero
    (1.0e160, 1.0e150, 1.0e160),    # t ** 3 overflows
], ids=["underflow", "overflow"])
def test_stiffness_rejects_non_positive_or_infinite(w, t, h):
    with pytest.raises(ValueError, match="gate stiffness"):
        gate_stiffness(FlapGateGeometry(w, t, h), _SOFT)


@pytest.mark.parametrize("w,t,h", [
    (0.0, 0.5e-3, 2.0e-3), (8.0e-3, 0.0, 2.0e-3), (8.0e-3, 0.5e-3, 0.0),
], ids=["w", "t", "h"])
def test_stiffness_rejects_a_zero_dimension(w, t, h):
    # the sign check holds an exact zero: never a division by zero, nor a
    # zero stiffness's message
    with pytest.raises(ValueError, match="^gate dimensions must be positive$"):
        gate_stiffness(FlapGateGeometry(w, t, h), _SOFT)


def test_stiffness_orderings_across_catalog():
    def d(tid):
        dev = catalog_device(tid)
        return gate_stiffness(dev.geometry.gate, dev.material)

    assert d("A") > d("B") > d("C")      # narrower wall is stiffer
    assert d("E") > d("B") > d("D")      # thicker wall is stiffer
    assert d("B") > d("G") > d("F")      # taller wall is stiffer
    assert d("K") > d("J") > d("B")      # harder material is stiffer
    assert d("H") == d("B") == d("I")    # nozzle size leaves the wall alone


def _law(device, **coeffs):
    return _point_law(device, DEFAULT_COEFFS._replace(**coeffs))


def _opening_at(p, device=_NOMINAL, **coeffs):
    """The law's gate opening with the chamber held at exactly ``p``: with
    ``c1 = p`` and ``c2 = 0`` the supply gives ``p`` at ``q = 1 m^3/s``,
    and a split inlet carries it unchanged to the junction."""
    _, p_chamber, a_fg, _ = _law(device, c1=p, c2=0.0, **coeffs)(1.0)
    assert p_chamber == p
    return a_fg


def test_compliance_model_validation():
    # the law's set-up rejects a gate window w h or an opening gain
    # k0 D_ref / D that is not positive and finite
    cases = [
        (FlapGateGeometry(1.0e-200, 1.0e-201, 1.0e-200), 1.7e-10,
         "a_fg_max must be positive and finite"),     # w h underflows
        (FlapGateGeometry(1.0e200, 1.0e-3, 1.0e200), 1.7e-10,
         "a_fg_max must be positive and finite"),     # w h overflows
        (FlapGateGeometry(8.0e-3, 1.0e-7, 2.0e-3), 1.0e300,
         "gate gain k0 D_ref / D must be positive and finite"),   # inf
        (_NOMINAL_GATE, 1.0e-320,
         "gate gain k0 D_ref / D must be positive and finite"),   # 0
    ]
    for gate, k0, message in cases:
        device = _NOMINAL._replace(
            geometry=_NOMINAL.geometry._replace(gate=gate))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _law(device, k0=k0)(1.0e-4)


def test_for_gate_saturates_at_wall_window():
    # narrow, wide and short gates each saturate at their own window w h
    for tid in ("A", "C", "F"):
        device = catalog_device(tid)
        gate = device.geometry.gate
        a_fg = _opening_at(1.0e9, device, k0=1.0e-10, p_c=5.0e3)
        assert a_fg == gate.w * gate.h, tid


def test_opening_frozen_example():
    # nominal wall, so gain equals the raw compliance scale; 20 kPa over crack
    a_fg = _opening_at(25.0e3, k0=1.0e-10, p_c=5.0e3)
    assert a_fg == pytest.approx(2.0e-6, rel=1e-12)


def test_opening_closed_below_crack():
    for p in (0.0, 2.5e3, 5.0e3):
        assert _opening_at(p, k0=1.0e-10, p_c=5.0e3) == 0.0


def test_opening_saturates():
    a_fg = _opening_at(1.0e9, k0=1.0e-10, p_c=0.0)
    assert a_fg == _NOMINAL_GATE.w * _NOMINAL_GATE.h


# flows whose supply pressure spans 0..60 kPa under the default coefficients
_FLOWS = np.linspace(0.0, 36.0, 500) * M3S_PER_LPM


def _openings(tid, flows=_FLOWS):
    law = _law(catalog_device(tid))
    return np.array([law(q)[2] for q in flows.tolist()])


def test_opening_nondecreasing_all_catalog_types():
    for tid in CATALOG_TYPE_IDS:
        diffs = np.diff(_openings(tid))
        assert np.all(diffs >= 0.0), tid


def test_stiffer_gate_opens_pointwise_less():
    flows = _FLOWS[::2]
    base = _openings("B", flows)
    assert np.all(_openings("E", flows) <= base)   # thicker
    assert np.all(_openings("K", flows) <= base)   # harder
    assert np.all(_openings("C", flows) >= base)   # wider


def test_open_fraction_bounded():
    rng = np.random.default_rng(909)
    a_fg_max = _NOMINAL_GATE.w * _NOMINAL_GATE.h
    for p in rng.uniform(0.0, 2.0e5, 300).tolist():
        assert 0.0 <= _opening_at(p, k0=1.7e-10, p_c=4.5e3) <= a_fg_max


def test_opening_ratio():
    # the a_fg_over_a_ex column of a sweep row, not capped at 1
    [ratio] = [c.get for c in _state_columns(6.0e-6)
               if c.name == "a_fg_over_a_ex"]
    for a_fg, expected in ((3.0e-6, 0.5), (0.0, 0.0), (9.0e-6, 1.5)):
        assert ratio(OperatingState(1.0e-4, 0.0, 0.0, a_fg, 0.0)) == expected
    # the law never returns a state against a closed exhaust window
    device = _NOMINAL._replace(geometry=_NOMINAL.geometry._replace(a_ex=0.0))
    with pytest.raises(ValueError, match="^a_ex must be positive$"):
        _law(device)(1.0e-4)
