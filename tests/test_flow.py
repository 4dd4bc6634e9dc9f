"""Supply law and junction pressure of ``model``, the latter through the
point law's (p_in, p_chamber, a_fg, p_out)."""

import math

import numpy as np
import pytest

from fdrsim import (
    DEFAULT_COEFFS,
    Device,
    DeviceGeometry,
    Material,
    input_pressure,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.model import _point_law

_SOFT = Material.from_shore_a(10.0)


def _junction(q, p_in, geometry):
    """The law's (p_in, p_chamber) at flow ``q`` under a linear supply law
    tuned to deliver ``p_in`` there."""
    coeffs = DEFAULT_COEFFS._replace(c1=p_in / q, c2=0.0)
    law = _point_law(Device(geometry=geometry, material=_SOFT), coeffs)
    return law(q)[:2]


def test_junction_identity_under_split_rule():
    # a_in = 2a makes the junction track the inlet
    geom = DeviceGeometry()  # a_in = 4e-6, branches 2e-6
    rng = np.random.default_rng(77)
    for _ in range(200):
        q = rng.uniform(0.0, 1.0e-3)
        p_in, p = _junction(q, rng.uniform(0.0, 6.0e4), geom)
        assert abs(p - p_in) <= 1.0e-12 * max(1.0, p_in)


def test_junction_kinetic_correction():
    # frozen: inlet 4 mm2 into a 1.5 mm2 branch at 0.5 L/s, 47.1 kPa supply
    geom = DeviceGeometry()._replace(a_branch=1.5e-6,
                                     split_design_rule=False)
    p_in, p = _junction(5.0e-4, 47.1e3, geom)
    assert p_in == 47.1e3
    assert p == pytest.approx(45009.72222222222, rel=1e-12)
    assert p - p_in == pytest.approx(-2090.2777777777783, rel=1e-12)


def test_junction_at_rest_matches_inlet():
    # no flow: the kinetic term vanishes even across an unequal split, so
    # the junction holds the inlet's (zero) supply pressure
    geom = DeviceGeometry()._replace(a_branch=1.5e-6,
                                     split_design_rule=False)
    law = _point_law(Device(geometry=geom, material=_SOFT), DEFAULT_COEFFS)
    assert law(0.0)[:2] == (0.0, 0.0)


def test_input_pressure_examples():
    assert input_pressure(0.0, DEFAULT_COEFFS) == 0.0
    # linear law: 1.6 kPa per L/min, 10 L/min in
    coeffs = DEFAULT_COEFFS._replace(c1=9.6e7, c2=0.0)
    assert input_pressure(10.0 * M3S_PER_LPM, coeffs) == pytest.approx(
        16.0e3, rel=1e-12)
    with pytest.raises(ValueError, match="q_in must be nonnegative"):
        input_pressure(-1.0e-4, DEFAULT_COEFFS)
    for q_in in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q_in must be finite"):
            input_pressure(q_in, DEFAULT_COEFFS)


def test_input_pressure_monotone():
    qs = np.linspace(0.0, 30.0, 61) * M3S_PER_LPM
    ps = [input_pressure(q, DEFAULT_COEFFS) for q in qs]
    assert all(b > a for a, b in zip(ps, ps[1:]))
