"""The grid kernel behind ``sweep``: every row equals the scalar chain."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fdrsim.engine as engine
from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    Material,
    SupersonicJetWarning,
    SweepError,
    catalog_device,
    solve_operating_point,
    sweep,
    switching_objective,
    with_gate,
)
from fdrsim._units import M3S_PER_LPM

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@st.composite
def devices(draw):
    device = catalog_device(draw(st.sampled_from(CATALOG_TYPE_IDS)))
    device = with_gate(
        device,
        w=draw(st.floats(3.0e-3, 14.0e-3)),
        t=draw(st.floats(0.2e-3, 0.9e-3)),
        h=draw(st.floats(1.2e-3, 3.0e-3)),
        a_ne=draw(st.floats(0.1e-6, 1.0e-6)))
    # an unequal inlet split switches on the junction's kinetic term
    geometry = dataclasses.replace(
        device.geometry, split_design_rule=False,
        a_branch=draw(st.sampled_from([device.geometry.a_branch, 1.5e-6,
                                       2.5e-6])))
    return dataclasses.replace(
        device, geometry=geometry,
        material=Material.from_shore_a(draw(st.floats(5.0, 60.0))))


@st.composite
def coefficients(draw):
    return dataclasses.replace(
        DEFAULT_COEFFS,
        # a zero supply law leaves the junction's kinetic term alone
        c1=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0e8))),
        c2=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0e11))),
        eta=draw(st.floats(0.01, 1.0)),
        c_recirc=draw(st.floats(0.0, 5.0)),
        k0=draw(st.floats(1.0e-12, 1.0e-8)),
        p_c=draw(st.floats(0.0, 2.0e4)),
        cd_out=draw(st.floats(0.1, 1.0)))


@st.composite
def grids(draw):
    step = draw(st.floats(0.05, 5.0)) * M3S_PER_LPM
    q_start = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))) * M3S_PER_LPM
    count = draw(st.integers(1, 80))
    return q_start, q_start + count * step, step


def _scalar_sweep(qs, device, coeffs):
    """Reference: the grid solved one scalar call at a time, or the
    (q_in, message) of the first point that fails."""
    states = []
    for q in qs:
        try:
            states.append(solve_operating_point(q, device, coeffs))
        except ValueError as exc:
            return None, (q, str(exc))
    return tuple(states), None


@_PROPERTY
@given(devices(), coefficients(), grids())
def test_sweep_rows_equal_scalar_path(device, coeffs, grid):
    q_start, q_end, step = grid
    try:
        qs = engine._grid(q_start, q_end, step).tolist()
    except ValueError:
        return      # the drawn range is not a whole number of steps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        expected, failure = _scalar_sweep(qs, device, coeffs)
        if failure is not None:
            with pytest.raises(SweepError) as exc:
                sweep(device, coeffs, q_start, q_end, step)
            assert exc.value.q_in == failure[0]
            assert str(exc.value).endswith(failure[1])
            return
        res = sweep(device, coeffs, q_start, q_end, step)
    # OperatingState equality covers every field and the mode
    assert res.states == expected


@_PROPERTY
@given(devices(), coefficients(), st.integers(0, 2**32 - 1),
       st.integers(1, 400), st.booleans())
def test_kernel_rows_equal_scalar_path_in_any_order(device, coeffs, seed,
                                                    count, overflow):
    # hundreds of unsorted flows per example: the rows where a square
    # rounds differently from Python's are rare; flows up to 1e160 L/min
    # overflow the squares, so the first failing row and its message
    # must match too
    rng = np.random.default_rng(seed)
    if overflow:
        qs = 10.0 ** rng.uniform(-6.0, 160.0, count) * M3S_PER_LPM
    else:
        qs = rng.uniform(0.0, 40.0, count) * M3S_PER_LPM
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        expected, failure = _scalar_sweep(qs.tolist(), device, coeffs)
        if failure is not None:
            with pytest.raises(ValueError) as exc:
                engine._chain(qs, device, coeffs)
            assert qs[exc.value.index] == failure[0]
            assert str(exc.value) == failure[1]
            return
        columns = engine._chain(qs, device, coeffs)
    for i, state in enumerate(expected):
        assert tuple(c[i] for c in columns) == (
            state.p_in, state.p_chamber, state.a_fg, state.p_out)


def test_sweep_warns_once_on_sonic_rows():
    b = catalog_device("B")
    with pytest.warns(SupersonicJetWarning):
        sweep(b, step=1.0 * M3S_PER_LPM)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupersonicJetWarning)
        sweep(b, q_end=10.0 * M3S_PER_LPM, step=1.0 * M3S_PER_LPM)


_SHUT = dataclasses.replace(DEFAULT_COEFFS, p_c=1.0e6)   # never switches


@_PROPERTY
@given(devices(), coefficients(),
       st.one_of(st.none(), st.floats(-5.0e4, 5.0e4)))
@example(catalog_device("B"), DEFAULT_COEFFS, None)
@example(catalog_device("B"), DEFAULT_COEFFS, 2.0e4)
@example(catalog_device("B"), _SHUT, None)
@example(catalog_device("B"), _SHUT, 2.0e4)
def test_switching_objective_equals_sweep(device, coeffs, target):
    # the objective finds the switching point without building states;
    # it must score exactly what the sweep over its grid reports
    step = 1.0 * M3S_PER_LPM
    objective = switching_objective(coeffs, target_p_in=target)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        try:
            ref = sweep(device, coeffs, 0.0, 30.0 * M3S_PER_LPM, step)
        except SweepError as exc:
            with pytest.raises(SweepError, match=re.escape(str(exc))):
                objective(device)
            return
        value = objective(device)
    if ref.switching_p_in is None:
        expected = 1.0e6
    elif target is None:
        expected = ref.switching_p_in
    else:
        expected = ((ref.switching_p_in - target)
                    / max(abs(target), 1.0)) ** 2
    assert value.hex() == expected.hex()
