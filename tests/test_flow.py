"""Supply law and junction pressure."""

import dataclasses

import numpy as np
import pytest

from fdrsim import (
    AIR,
    DEFAULT_COEFFS,
    DeviceGeometry,
    FluidProperties,
    bifurcation_pressure,
    input_pressure,
)
from fdrsim._units import M3S_PER_LPM


def test_junction_identity_under_split_rule():
    # equal densities and a_in = 2a make the junction track the inlet
    geom = DeviceGeometry()  # a_in = 4e-6, branches 2e-6
    rng = np.random.default_rng(77)
    for _ in range(200):
        q = rng.uniform(0.0, 1.0e-3)
        p_in = rng.uniform(0.0, 6.0e4)
        p = bifurcation_pressure(q, p_in, AIR, geom)
        assert abs(p - p_in) <= 1.0e-12 * max(1.0, p_in)


def test_junction_kinetic_correction():
    # frozen: inlet 4 mm2 into a 1.5 mm2 branch at 0.5 L/s, 47.1 kPa supply
    geom = dataclasses.replace(DeviceGeometry(), a_branch=1.5e-6,
                               split_design_rule=False)
    p = bifurcation_pressure(5.0e-4, 47.1e3, AIR, geom)
    assert p == pytest.approx(45009.72222222222, rel=1e-12)
    assert p - 47.1e3 == pytest.approx(-2090.2777777777783, rel=1e-12)


def test_junction_at_rest_matches_inlet():
    geom = DeviceGeometry()
    assert bifurcation_pressure(0.0, 1234.5, AIR, geom) == 1234.5


def test_junction_density_scaling():
    # denser cavity gas scales the carried-over inlet pressure
    fluid = FluidProperties(rho_in=1.204, rho=2.408)
    geom = DeviceGeometry()
    p = bifurcation_pressure(0.0, 1000.0, fluid, geom)
    assert p == pytest.approx(2000.0, rel=1e-12)


def test_input_pressure_examples():
    assert input_pressure(0.0, DEFAULT_COEFFS) == 0.0
    # linear law: 1.6 kPa per L/min, 10 L/min in
    coeffs = dataclasses.replace(DEFAULT_COEFFS, c1=9.6e7, c2=0.0)
    assert input_pressure(10.0 * M3S_PER_LPM, coeffs) == pytest.approx(
        16.0e3, rel=1e-12)
    with pytest.raises(ValueError):
        input_pressure(-1.0e-4, DEFAULT_COEFFS)


def test_input_pressure_monotone():
    qs = np.linspace(0.0, 30.0, 61) * M3S_PER_LPM
    ps = [input_pressure(q, DEFAULT_COEFFS) for q in qs]
    assert all(b > a for a, b in zip(ps, ps[1:]))
