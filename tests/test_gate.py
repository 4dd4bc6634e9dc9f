"""Flap-gate stiffness and pressure-driven opening behavior."""

import numpy as np
import pytest

from fdrsim import (
    CATALOG_TYPE_IDS,
    FlapGateGeometry,
    GateComplianceModel,
    GateState,
    Material,
    REFERENCE_STIFFNESS,
    catalog_device,
    gate_stiffness,
    opening_area,
    opening_ratio,
)

_NOMINAL_GATE = FlapGateGeometry(w=8.0e-3, t=0.5e-3, h=2.0e-3)
_SOFT = Material.from_shore_a(10.0)


def test_stiffness_frozen_value():
    # explicit modulus input, nominal wall dimensions
    mat = Material(shore_a=10.0, youngs_modulus=0.574e6)
    d = gate_stiffness(_NOMINAL_GATE, mat)
    assert d == pytest.approx(1.79375e-05, rel=1e-12)


def test_reference_stiffness_matches_nominal_build():
    assert REFERENCE_STIFFNESS == gate_stiffness(_NOMINAL_GATE, _SOFT)
    assert REFERENCE_STIFFNESS == pytest.approx(1.2932063744568203e-05,
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


def test_stiffness_orderings_across_catalog():
    def d(tid):
        dev = catalog_device(tid)
        return gate_stiffness(dev.geometry.gate, dev.material)

    assert d("A") > d("B") > d("C")      # narrower wall is stiffer
    assert d("E") > d("B") > d("D")      # thicker wall is stiffer
    assert d("B") > d("G") > d("F")      # taller wall is stiffer
    assert d("K") > d("J") > d("B")      # harder material is stiffer
    assert d("H") == d("B") == d("I")    # nozzle size leaves the wall alone


def test_compliance_model_validation():
    with pytest.raises(ValueError):
        GateComplianceModel(compliance_scale=0.0, crack_pressure=1.0e3,
                            a_fg_max=1.0e-5)
    with pytest.raises(ValueError):
        GateComplianceModel(compliance_scale=1.0e-10, crack_pressure=-1.0,
                            a_fg_max=1.0e-5)
    with pytest.raises(ValueError):
        GateComplianceModel(compliance_scale=1.0e-10, crack_pressure=1.0e3,
                            a_fg_max=0.0)


def test_for_gate_saturates_at_wall_window():
    model = GateComplianceModel.for_gate(_NOMINAL_GATE, 1.0e-10, 5.0e3)
    assert model.a_fg_max == _NOMINAL_GATE.w * _NOMINAL_GATE.h


def test_gate_state_validation():
    GateState(a_fg=0.0, open_fraction=0.0)
    with pytest.raises(ValueError):
        GateState(a_fg=-1.0e-9, open_fraction=0.0)
    with pytest.raises(ValueError):
        GateState(a_fg=1.0e-6, open_fraction=1.5)


def test_opening_frozen_example():
    # nominal wall, so gain equals the raw compliance scale; 20 kPa over crack
    model = GateComplianceModel(compliance_scale=1.0e-10,
                                crack_pressure=5.0e3, a_fg_max=1.0)
    state = opening_area(25.0e3, model, _NOMINAL_GATE, _SOFT)
    assert state.a_fg == pytest.approx(2.0e-6, rel=1e-12)


def test_opening_closed_below_crack():
    model = GateComplianceModel.for_gate(_NOMINAL_GATE, 1.0e-10, 5.0e3)
    for p in (0.0, 2.5e3, 5.0e3):
        state = opening_area(p, model, _NOMINAL_GATE, _SOFT)
        assert state.a_fg == 0.0
        assert state.open_fraction == 0.0


def test_opening_saturates():
    model = GateComplianceModel.for_gate(_NOMINAL_GATE, 1.0e-10, 0.0)
    state = opening_area(1.0e9, model, _NOMINAL_GATE, _SOFT)
    assert state.a_fg == model.a_fg_max
    assert state.open_fraction == 1.0


def test_opening_rejects_negative_pressure():
    model = GateComplianceModel.for_gate(_NOMINAL_GATE, 1.0e-10, 5.0e3)
    with pytest.raises(ValueError):
        opening_area(-1.0, model, _NOMINAL_GATE, _SOFT)


def test_opening_nondecreasing_all_catalog_types():
    ps = np.linspace(0.0, 60.0e3, 500)
    for tid in CATALOG_TYPE_IDS:
        dev = catalog_device(tid)
        model = GateComplianceModel.for_gate(dev.geometry.gate,
                                             1.7e-10, 4.5e3)
        a = [opening_area(p, model, dev.geometry.gate, dev.material).a_fg
             for p in ps]
        diffs = np.diff(a)
        assert np.all(diffs >= 0.0), tid


def test_stiffer_gate_opens_pointwise_less():
    ps = np.linspace(0.0, 60.0e3, 200)

    def curve(tid):
        dev = catalog_device(tid)
        model = GateComplianceModel.for_gate(dev.geometry.gate,
                                             1.7e-10, 4.5e3)
        return np.array([
            opening_area(p, model, dev.geometry.gate, dev.material).a_fg
            for p in ps])

    base = curve("B")
    assert np.all(curve("E") <= base)   # thicker
    assert np.all(curve("K") <= base)   # harder
    assert np.all(curve("C") >= base)   # wider


def test_open_fraction_bounded():
    rng = np.random.default_rng(909)
    model = GateComplianceModel.for_gate(_NOMINAL_GATE, 1.7e-10, 4.5e3)
    for p in rng.uniform(0.0, 2.0e5, 300):
        state = opening_area(p, model, _NOMINAL_GATE, _SOFT)
        assert 0.0 <= state.open_fraction <= 1.0
        assert state.a_fg == pytest.approx(
            state.open_fraction * model.a_fg_max, rel=1e-12, abs=1e-18)


def test_opening_ratio():
    assert opening_ratio(3.0e-6, 6.0e-6) == 0.5
    assert opening_ratio(0.0, 6.0e-6) == 0.0
    assert opening_ratio(9.0e-6, 6.0e-6) == 1.5  # not capped here
    with pytest.raises(ValueError):
        opening_ratio(1.0e-6, 0.0)
