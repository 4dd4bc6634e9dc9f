"""Jet closure and recirculation penalty of ``model``, and the output-port
pressure through the point law's (p_in, p_chamber, a_fg, p_out)."""

import math
import warnings

import numpy as np
import pytest

from fdrsim import (
    DEFAULT_COEFFS,
    P_ATM,
    ModelCoefficients,
    SupersonicJetWarning,
    blowing_objective,
    catalog_device,
    solve_operating_point,
    suction_objective,
    switching_objective,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.model import (_GAMMA, _RHO, _design_terms, _point_law,
                          _warn_if_sonic)

_B = catalog_device("B")
_GEOM_B = _B.geometry
# a gate sealed at every flow here, and one saturated open (s = 1) above
# 0.02 L/min; the open gate's window w h = 16 mm^2 tops a_ex, so it vents
# fully
_SHUT = DEFAULT_COEFFS._replace(p_c=1.0e6)
_OPEN = DEFAULT_COEFFS._replace(k0=1.0e-6, p_c=0.0)


def _device(device=_B, **geometry):
    return device._replace(geometry=device.geometry._replace(**geometry))


def _p_out(q, coeffs, device=_B, **geometry):
    return _point_law(_device(device, **geometry), coeffs)(q)[3]


def test_default_coefficients_pinned():
    c = DEFAULT_COEFFS
    assert c.c1 == 79528125.0
    assert c.c2 == 35758928571.428566
    assert c.eta == 0.25
    assert c.c_recirc == 2.5
    assert c.k0 == 1.7e-10
    assert c.p_c == 4500.0
    assert c.cd_out == 0.8


@pytest.mark.parametrize("field,bad", [
    ("c1", -1.0), ("c2", -1.0), ("eta", 0.0), ("c_recirc", -0.1),
    ("k0", 0.0), ("p_c", -1.0), ("cd_out", 0.0), ("cd_out", 1.5),
    ("eta", float("nan")), ("c1", float("inf")), ("p_c", float("nan")),
    ("c_recirc", float("inf")),
])
def test_coefficient_validation(field, bad):
    with pytest.raises(ValueError):
        DEFAULT_COEFFS._replace(**{field: bad})


def test_jet_velocity_frozen():
    # 30 L/min split over two 0.4 mm2 nozzles leaves at 625 m/s: fully
    # open and venting with eta = 1, the port sucks all of rho/2 v^2
    coeffs = _OPEN._replace(eta=1.0)
    assert _p_out(30.0 * M3S_PER_LPM, coeffs) == \
        -(0.5 * _RHO * 625.0 * 625.0)
    # the same velocity, against the speed of sound, sets off the warning
    q_sonic = (math.sqrt(_GAMMA * P_ATM / _RHO)
               * _GEOM_B.n_nozzles * _GEOM_B.a_ne)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _warn_if_sonic(q_sonic * (1.0 - 1.0e-9), _B)
    with pytest.warns(SupersonicJetWarning):
        _warn_if_sonic(q_sonic * (1.0 + 1.0e-9), _B)


@pytest.mark.parametrize("objective", ["suction", "blowing", "switching"])
def test_bound_objectives_warn_at_the_sonic_flow(objective):
    # as the device's own check: silent 1e-9 below the sonic jet, one
    # warning 1e-9 above it; switching reads the jet at its grid's top,
    # 30 L/min, so its template's a_ne puts that flow on either side
    sonic = math.sqrt(_GAMMA * P_ATM / _RHO)
    n = _GEOM_B.n_nozzles
    for factor, warns in ((1.0 - 1.0e-9, False), (1.0 + 1.0e-9, True)):
        device, coeffs = _B, DEFAULT_COEFFS
        if objective == "switching":
            a_ne = (30.0 * M3S_PER_LPM / n) / (sonic * factor)
            device = _device(a_ne=a_ne)
            score = switching_objective(coeffs)
        else:
            q_star = sonic * n * _GEOM_B.a_ne * factor
            score = (suction_objective if objective == "suction"
                     else blowing_objective)(coeffs, q_star)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            score(device)
        assert ([w.category for w in caught]
                == [SupersonicJetWarning] * warns)


def test_jet_dynamic_pressure_frozen_and_warns():
    # fully open and venting with eta = 1, the port sucks the jet's whole
    # dynamic pressure rho/2 v^2
    coeffs = _OPEN._replace(eta=1.0)
    with pytest.warns(SupersonicJetWarning):
        state = solve_operating_point(30.0 * M3S_PER_LPM, _B, coeffs)
    assert state.p_out == pytest.approx(-235156.25, rel=1e-12)


def test_jet_subsonic_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve_operating_point(10.0 * M3S_PER_LPM, _B, _OPEN)
    assert state.p_out < 0.0


def test_halving_nozzle_area_quadruples_jet_pressure():
    q = 10.0 * M3S_PER_LPM
    assert _p_out(q, _OPEN, a_ne=_GEOM_B.a_ne / 2.0) == \
        4.0 * _p_out(q, _OPEN)


def _penalty(w, coeffs=DEFAULT_COEFFS, w_ref=_GEOM_B.channel_width_ref):
    gate = _GEOM_B.gate
    _, _, terms = _design_terms(_device(channel_width_ref=w_ref), coeffs)
    return terms(w, gate.t, gate.h, _GEOM_B.a_ne, coeffs.k0)[2]


def test_recirculation_penalty_reference_and_below():
    assert _GEOM_B.channel_width_ref == 8.0e-3
    assert _penalty(8.0e-3) == 1.0
    assert _penalty(6.0e-3) == 1.0


def test_recirculation_penalty_frozen_example():
    coeffs = DEFAULT_COEFFS._replace(c_recirc=8.0)
    pen = _penalty(10.0e-3, coeffs, w_ref=8.0e-3)
    assert pen == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_recirculation_penalty_decreasing_above_reference():
    ws = np.linspace(8.0e-3, 16.0e-3, 50)
    pens = [_penalty(w) for w in ws.tolist()]
    assert all(b < a for a, b in zip(pens[1:], pens[2:]))
    assert all(0.0 < p <= 1.0 for p in pens)
    # a Python caller can still pass a zero reference width or gate width
    with pytest.raises(ValueError, match="^w_ref must be positive$"):
        _penalty(8.0e-3, w_ref=0.0)
    with pytest.raises(ValueError, match="^w_ref must be positive$"):
        _point_law(_device(channel_width_ref=0.0), DEFAULT_COEFFS)(1.0e-4)
    gate = _GEOM_B.gate._replace(w=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        _point_law(_device(gate=gate), DEFAULT_COEFFS)(1.0e-4)


def test_output_rest_is_neutral():
    for coeffs in (_SHUT, DEFAULT_COEFFS, _OPEN):
        assert _p_out(0.0, coeffs) == 0.0


def test_output_suction_frozen_example():
    # gate fully open and venting, quiet entrainment efficiency
    coeffs = _OPEN._replace(eta=0.02)
    with pytest.warns(SupersonicJetWarning):
        p = solve_operating_point(30.0 * M3S_PER_LPM, _B, coeffs).p_out
    assert p == pytest.approx(-4703.125, rel=1e-12)


def test_output_sign_tracks_open_fraction():
    q = 10.0 * M3S_PER_LPM
    assert _p_out(q, _SHUT) > 0.0
    assert _p_out(q, _OPEN) < 0.0


def test_output_blow_grows_with_flow_when_closed():
    qs = np.linspace(0.0, 12.0, 25) * M3S_PER_LPM
    ps = [_p_out(q, _SHUT) for q in qs.tolist()]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_output_suction_grows_with_flow_when_open():
    qs = np.linspace(1.0, 12.0, 25) * M3S_PER_LPM
    ps = [_p_out(q, _OPEN) for q in qs.tolist()]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_output_suction_grows_with_vent_opening():
    # same open fraction, larger vent ratio a_fg / a_ex pulls harder
    # (until capped): the 16 mm^2 opening against a shrinking exhaust
    q = 10.0 * M3S_PER_LPM
    ps = [_p_out(q, _OPEN, a_ex=a_ex) for a_ex in (96.0e-6, 32.0e-6, 16.0e-6)]
    assert ps[0] > ps[1] > ps[2]
    capped = _p_out(q, _OPEN, a_ex=16.0e-6 / 1.5)
    assert capped == ps[2]  # vent ratio caps at 1


def test_output_blow_shrinks_with_bigger_outlet():
    q = 10.0 * M3S_PER_LPM
    small = _p_out(q, _SHUT)
    wide = _p_out(q, _SHUT, a_out=12.0e-6)
    assert 0.0 < wide < small


def test_output_wide_gate_penalized():
    # identical state (open, vent capped) and flow; the wider gate
    # entrains less
    q = 10.0 * M3S_PER_LPM
    p_b = _p_out(q, _OPEN)
    p_c = _p_out(q, _OPEN, catalog_device("C"))
    assert p_b < p_c < 0.0


def test_output_rejects_negative_flow():
    with pytest.raises(ValueError):
        _point_law(_B, _SHUT)(-1.0e-4)


def test_coefficients_are_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_COEFFS.eta = 0.5


def test_custom_coefficients_roundtrip():
    c = ModelCoefficients(eta=0.1, p_c=3.0e3)
    assert c.eta == 0.1 and c.p_c == 3.0e3
    assert c.c1 == DEFAULT_COEFFS.c1
