"""Jet closure, recirculation penalty, and output-port pressure."""

import dataclasses
import warnings

import numpy as np
import pytest

from fdrsim import (
    DEFAULT_COEFFS,
    DeviceGeometry,
    GateState,
    ModelCoefficients,
    SupersonicJetWarning,
    catalog_device,
    jet_dynamic_pressure,
    jet_velocity,
    output_pressure,
    recirculation_penalty,
)
from fdrsim._units import M3S_PER_LPM

_GEOM_B = catalog_device("B").geometry


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
        dataclasses.replace(DEFAULT_COEFFS, **{field: bad})


def test_jet_velocity_frozen():
    # 30 L/min split over two 0.4 mm2 nozzles
    assert jet_velocity(30.0 * M3S_PER_LPM, _GEOM_B) == 625.0
    assert jet_velocity(0.0, _GEOM_B) == 0.0
    with pytest.raises(ValueError):
        jet_velocity(-1.0e-4, _GEOM_B)


def test_jet_dynamic_pressure_frozen_and_warns():
    with pytest.warns(SupersonicJetWarning):
        q_jet = jet_dynamic_pressure(30.0 * M3S_PER_LPM, _GEOM_B)
    assert q_jet == pytest.approx(235156.25, rel=1e-12)


def test_jet_subsonic_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_jet = jet_dynamic_pressure(10.0 * M3S_PER_LPM, _GEOM_B)
    assert q_jet > 0.0


def test_halving_nozzle_area_quadruples_jet_pressure():
    geom_half = dataclasses.replace(_GEOM_B, a_ne=_GEOM_B.a_ne / 2.0)
    q = 10.0 * M3S_PER_LPM
    assert jet_dynamic_pressure(q, geom_half) == \
        4.0 * jet_dynamic_pressure(q, _GEOM_B)


def test_recirculation_penalty_reference_and_below():
    assert recirculation_penalty(8.0e-3, DEFAULT_COEFFS) == 1.0
    assert recirculation_penalty(6.0e-3, DEFAULT_COEFFS) == 1.0


def test_recirculation_penalty_frozen_example():
    coeffs = dataclasses.replace(DEFAULT_COEFFS, c_recirc=8.0)
    pen = recirculation_penalty(10.0e-3, coeffs, w_ref=8.0e-3)
    assert pen == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_recirculation_penalty_decreasing_above_reference():
    ws = np.linspace(8.0e-3, 16.0e-3, 50)
    pens = [recirculation_penalty(w, DEFAULT_COEFFS) for w in ws]
    assert all(b < a for a, b in zip(pens[1:], pens[2:]))
    assert all(0.0 < p <= 1.0 for p in pens)
    with pytest.raises(ValueError):
        recirculation_penalty(0.0, DEFAULT_COEFFS)


def test_output_rest_is_neutral():
    for frac in (0.0, 0.5, 1.0):
        state = GateState(a_fg=frac * 6.0e-6, open_fraction=frac)
        assert output_pressure(0.0, state, _GEOM_B) == 0.0


def test_output_suction_frozen_example():
    # gate fully open and venting, quiet entrainment efficiency
    coeffs = dataclasses.replace(DEFAULT_COEFFS, eta=0.02)
    state = GateState(a_fg=6.0e-6, open_fraction=1.0)
    with pytest.warns(SupersonicJetWarning):
        p = output_pressure(30.0 * M3S_PER_LPM, state, _GEOM_B,
                            coeffs=coeffs)
    assert p == pytest.approx(-4703.125, rel=1e-12)


def test_output_sign_tracks_open_fraction():
    q = 10.0 * M3S_PER_LPM
    closed = GateState(a_fg=0.0, open_fraction=0.0)
    opened = GateState(a_fg=6.0e-6, open_fraction=1.0)
    assert output_pressure(q, closed, _GEOM_B) > 0.0
    assert output_pressure(q, opened, _GEOM_B) < 0.0


def test_output_blow_grows_with_flow_when_closed():
    closed = GateState(a_fg=0.0, open_fraction=0.0)
    qs = np.linspace(0.0, 12.0, 25) * M3S_PER_LPM
    ps = [output_pressure(q, closed, _GEOM_B) for q in qs]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_output_suction_grows_with_flow_when_open():
    opened = GateState(a_fg=6.0e-6, open_fraction=1.0)
    qs = np.linspace(1.0, 12.0, 25) * M3S_PER_LPM
    ps = [output_pressure(q, opened, _GEOM_B) for q in qs]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_output_suction_grows_with_vent_opening():
    # same open fraction, larger vent ratio pulls harder (until capped)
    q = 10.0 * M3S_PER_LPM
    ps = []
    for a_fg in (1.0e-6, 3.0e-6, 6.0e-6):
        state = GateState(a_fg=a_fg, open_fraction=1.0)
        ps.append(output_pressure(q, state, _GEOM_B))
    assert ps[0] > ps[1] > ps[2]
    capped = output_pressure(q, GateState(a_fg=9.0e-6, open_fraction=1.0),
                             _GEOM_B)
    assert capped == ps[2]  # vent ratio caps at 1


def test_output_blow_shrinks_with_bigger_outlet():
    q = 10.0 * M3S_PER_LPM
    closed = GateState(a_fg=0.0, open_fraction=0.0)
    small = output_pressure(q, closed, _GEOM_B)
    wide = output_pressure(
        q, closed, dataclasses.replace(_GEOM_B, a_out=12.0e-6))
    assert 0.0 < wide < small


def test_output_wide_gate_penalized():
    # identical state and flow; the wider gate entrains less
    q = 10.0 * M3S_PER_LPM
    state = GateState(a_fg=6.0e-6, open_fraction=1.0)
    p_b = output_pressure(q, state, _GEOM_B)
    geom_c = catalog_device("C").geometry
    p_c = output_pressure(q, state, geom_c)
    assert p_b < p_c < 0.0


def test_output_rejects_negative_flow():
    state = GateState(a_fg=0.0, open_fraction=0.0)
    with pytest.raises(ValueError):
        output_pressure(-1.0e-4, state, _GEOM_B)


def test_coefficients_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_COEFFS.eta = 0.5


def test_custom_coefficients_roundtrip():
    c = ModelCoefficients(eta=0.1, p_c=3.0e3)
    assert c.eta == 0.1 and c.p_c == 3.0e3
    assert c.c1 == DEFAULT_COEFFS.c1
