"""The point law behind every command equals the stage arithmetic.

The reference is a frozen copy of the per-stage functions the package
once exported, composed one flow at a time: ``input_pressure`` ->
``bifurcation_pressure`` -> ``opening_area`` -> ``output_pressure``.  The
law, and each row of a sweep, must give the same bits, and fail at the
same flow with the same message.
"""

import math
import re
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fdrsim.engine as engine
from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    FlapGateGeometry,
    Material,
    SupersonicJetWarning,
    SweepError,
    catalog_device,
    gate_stiffness,
    input_pressure,
    solve_operating_point,
    sweep,
    switching_objective,
    with_gate,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.core import DEFAULT_CHANNEL_WIDTH_REF
from fdrsim.model import (_NOT_FINITE, _design_chain, _design_terms,
                          _no_row_fails, _point_law)


# --- frozen oracle ------------------------------------------------------------
# The stage functions of the former modules ``flow``, ``gate`` and
# ``ejector`` as they stood when the point law replaced them, kept
# verbatim as the law's reference; only the sonic warning is left out
# (the law leaves it to its callers).  The device-term helpers they
# called, once public in ``model``, are copied here too, so the oracle
# calls no ``model`` function but ``input_pressure`` and
# ``gate_stiffness``.
# Do not edit these to follow the law.

# the gas the stages took as an argument, air on both sides of the
# junction; the law drops the ratio rho / rho_in = 1.0 and keeps the bits
AIR = SimpleNamespace(rho_in=1.204, rho=1.204, gamma=1.4)


def _reference_stiffness():
    nominal = FlapGateGeometry(w=8.0e-3, t=0.5e-3, h=2.0e-3)
    return gate_stiffness(nominal, Material.from_shore_a(10.0))


REFERENCE_STIFFNESS = _reference_stiffness()


def opening_ratio(a_fg, a_ex):
    if a_ex <= 0.0:
        raise ValueError("a_ex must be positive")
    if a_fg < 0.0:
        raise ValueError("a_fg must be nonnegative")
    return a_fg / a_ex


def jet_velocity(q_in, geometry):
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    return (q_in / geometry.n_nozzles) / geometry.a_ne


def recirculation_penalty(w, coeffs, w_ref=DEFAULT_CHANNEL_WIDTH_REF):
    if w <= 0.0:
        raise ValueError("w must be positive")
    if w_ref <= 0.0:
        raise ValueError("w_ref must be positive")
    excess = max(0.0, (w - w_ref) / w_ref)
    return 1.0 / (1.0 + coeffs.c_recirc * excess * excess)


def _bifurcation_pressure(q_in, p_in, fluid, geometry):
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    a_in = geometry.a_in
    a = geometry.a_branch
    if a_in <= 0.0 or a <= 0.0:
        raise ValueError("areas must be positive")
    kinetic = ((fluid.gamma - 1.0) / (2.0 * fluid.gamma) * fluid.rho
               * ((q_in / a_in) * (q_in / a_in))
               * (1.0 - (a_in / (2.0 * a)) * (a_in / (2.0 * a))))
    return fluid.rho / fluid.rho_in * p_in + kinetic


@dataclass(frozen=True)
class _GateComplianceModel:
    compliance_scale: float   # k0, opening gain of the nominal gate [m^2/Pa]
    crack_pressure: float     # p_c, sealing threshold [Pa]
    a_fg_max: float           # saturation opening [m^2]

    def __post_init__(self):
        if not 0.0 < self.compliance_scale < math.inf:
            raise ValueError("compliance_scale must be positive and finite")
        if not 0.0 <= self.crack_pressure < math.inf:
            raise ValueError("crack_pressure must be nonnegative and finite")
        if not 0.0 < self.a_fg_max < math.inf:
            raise ValueError("a_fg_max must be positive and finite")

    @classmethod
    def for_gate(cls, geom, compliance_scale, crack_pressure):
        return cls(compliance_scale=compliance_scale,
                   crack_pressure=crack_pressure,
                   a_fg_max=geom.w * geom.h)


@dataclass(frozen=True)
class _GateState:
    a_fg: float             # opened flow area [m^2]
    open_fraction: float    # a_fg / a_fg_max, in [0, 1]

    def __post_init__(self):
        if not 0.0 <= self.a_fg < math.inf:
            raise ValueError("a_fg must be nonnegative and finite")
        if not 0.0 <= self.open_fraction <= 1.0:
            raise ValueError("open_fraction must lie in [0, 1]")


def _opening_area(p, model, geom, mat):
    if p < 0.0:
        raise ValueError("p must be nonnegative (gauge)")
    stiffness = gate_stiffness(geom, mat)
    gain = model.compliance_scale * REFERENCE_STIFFNESS / stiffness
    a_fg = min(model.a_fg_max, gain * max(0.0, p - model.crack_pressure))
    return _GateState(a_fg=a_fg, open_fraction=a_fg / model.a_fg_max)


def _jet_dynamic_pressure(q_in, geometry, fluid=AIR):
    v = jet_velocity(q_in, geometry)
    return 0.5 * fluid.rho * v * v


def _output_pressure(q_in, state, geometry, fluid=AIR,
                     coeffs=DEFAULT_COEFFS):
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    s = state.open_fraction
    blocked = (1.0 - s) * q_in
    p_blow = 0.5 * fluid.rho * ((blocked / (coeffs.cd_out * geometry.a_out))
                                * (blocked / (coeffs.cd_out * geometry.a_out)))
    q_jet = _jet_dynamic_pressure(q_in, geometry, fluid)
    vent = min(1.0, opening_ratio(state.a_fg, geometry.a_ex))
    penalty = recirculation_penalty(geometry.gate.w, coeffs,
                                    geometry.channel_width_ref)
    p_suck = coeffs.eta * q_jet * vent * penalty
    return (1.0 - s) * p_blow - s * p_suck


# --- properties ---------------------------------------------------------------

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
    # an unequal inlet split switches on the junction's kinetic term;
    # (a_in / (2 a_branch)) ** 2 at 2.148 mm^2 rounds apart from the
    # product, so a law that squared by ``**`` would fail
    geometry = device.geometry._replace(
        split_design_rule=False,
        a_branch=draw(st.sampled_from([device.geometry.a_branch, 1.5e-6,
                                       2.148e-6, 2.5e-6])))
    return device._replace(
        geometry=geometry,
        material=Material.from_shore_a(draw(st.floats(5.0, 60.0))))


@st.composite
def coefficients(draw):
    return DEFAULT_COEFFS._replace(
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


def _composed(q_in, device, coeffs):
    """Reference: the frozen stage functions composed at one flow, as the
    operating point's (p_in, p_chamber, a_fg, p_out)."""
    if not math.isfinite(q_in):
        raise ValueError("q_in must be finite")
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")
    g = device.geometry
    try:
        p_in = input_pressure(q_in, coeffs)
        p_chamber = _bifurcation_pressure(q_in, p_in, AIR, g)
        model = _GateComplianceModel.for_gate(g.gate, coeffs.k0, coeffs.p_c)
        state = _opening_area(max(0.0, p_chamber), model, g.gate,
                              device.material)
        p_out = _output_pressure(q_in, state, g, AIR, coeffs)
    except OverflowError as exc:   # a float ``**`` out of range
        raise ValueError(_NOT_FINITE) from exc
    point = (p_in, p_chamber, state.a_fg, p_out)
    if not all(map(math.isfinite, point)):
        raise ValueError(_NOT_FINITE)
    return point


def _bits(values):
    """Exact identity of a row of floats, sign of zero included."""
    return [v.hex() for v in values]


def _scalar_sweep(qs, device, coeffs):
    """Reference: the grid composed one flow at a time, or the
    (q_in, message) of the first flow that fails."""
    rows = []
    for q in qs:
        try:
            rows.append(_bits((q, *_composed(q, device, coeffs))))
        except ValueError as exc:
            return None, (q, str(exc))
    return rows, None


@_PROPERTY
@given(devices(), coefficients(), grids())
def test_sweep_rows_equal_scalar_path(device, coeffs, grid):
    q_start, q_end, step = grid
    try:
        qs = engine._grid(q_start, q_end, step)
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
    assert [_bits((st.q_in, st.p_in, st.p_chamber, st.a_fg, st.p_out))
            for st in res.states] == expected


@_PROPERTY
@given(devices(), coefficients(), st.integers(0, 2**32 - 1),
       st.integers(1, 400), st.booleans())
def test_kernel_rows_equal_scalar_path_in_any_order(device, coeffs, seed,
                                                    count, overflow):
    # hundreds of unsorted flows per example: the rows where a ``**``
    # square would round apart from ``u * u`` are rare; flows up to 1e160
    # L/min overflow the squares, so every failing flow (the first one
    # too) must fail with the same message
    rng = np.random.default_rng(seed)
    if overflow:
        qs = 10.0 ** rng.uniform(-6.0, 160.0, count) * M3S_PER_LPM
    else:
        qs = rng.uniform(0.0, 40.0, count) * M3S_PER_LPM
    law = _point_law(device, coeffs)
    for q in qs.tolist():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SupersonicJetWarning)
                expected = _composed(q, device, coeffs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                law(q)
            assert str(got.value) == str(exc)
        else:
            assert _bits(law(q)) == _bits(expected)


@pytest.mark.parametrize("q_in", [math.nan, math.inf, -math.inf, -1.0e-4,
                                  1.0e160 * M3S_PER_LPM])
@pytest.mark.parametrize("a_branch", [2.0e-6, 1.0e-300])
def test_law_failures_match_stage_functions(q_in, a_branch):
    # bad flows fail before the device; a junction split whose square
    # overflows leaves no steady state at any flow
    device = catalog_device("B")
    device = device._replace(geometry=device.geometry._replace(
        split_design_rule=False, a_branch=a_branch))
    with pytest.raises(ValueError) as ref:
        _composed(q_in, device, DEFAULT_COEFFS)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        _point_law(device, DEFAULT_COEFFS)(q_in)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        solve_operating_point(q_in, device)


def test_sweep_warns_once_on_sonic_rows():
    b = catalog_device("B")
    with pytest.warns(SupersonicJetWarning):
        sweep(b, step=1.0 * M3S_PER_LPM)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SupersonicJetWarning)
        sweep(b, q_end=10.0 * M3S_PER_LPM, step=1.0 * M3S_PER_LPM)


_SHUT = DEFAULT_COEFFS._replace(p_c=1.0e6)   # never switches

# devices that switch low on the 1 L/min grid and fail further up: a jet
# so fast its dynamic pressure overflows at 21 and 11 L/min, and an
# output restriction whose blowing term overflows at 16 L/min, once a
# narrow branch's junction term has shut the gate again
_TINY_NOZZLE = with_gate(catalog_device("B"), a_ne=1.0e-158)
_TINIER_NOZZLE = with_gate(catalog_device("B"), a_ne=5.0e-159)
_RECLOSING = catalog_device("B")._replace(
    geometry=catalog_device("B").geometry._replace(split_design_rule=False,
                                                   a_branch=4.0e-7))
_TINY_OUTLET = DEFAULT_COEFFS._replace(k0=1.0e-8, cd_out=1.0e-153)
# a shut gate's blowing term overflows at 2 L/min, while at the grid's
# top the gate is fully open and the law returns
_TINIER_OUTLET = DEFAULT_COEFFS._replace(k0=1.0e-8,
                                         cd_out=2.5e-154)


def _assert_objective_equals_sweep(device, coeffs, target):
    """The switching objective scores exactly what the sweep over its
    grid reports, and raises the same error where the sweep fails."""
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
        miss = (ref.switching_p_in - target) / max(abs(target), 1.0)
        expected = miss * miss
    assert value.hex() == expected.hex()


@_PROPERTY
@given(devices(), coefficients(),
       st.one_of(st.none(), st.floats(-5.0e4, 5.0e4)))
@example(catalog_device("B"), DEFAULT_COEFFS, None)
@example(catalog_device("B"), DEFAULT_COEFFS, 2.0e4)
@example(catalog_device("B"), _SHUT, None)
@example(catalog_device("B"), _SHUT, 2.0e4)
@example(_TINY_NOZZLE, DEFAULT_COEFFS, None)
@example(_TINIER_NOZZLE, DEFAULT_COEFFS, 2.0e4)
@example(_RECLOSING, _TINY_OUTLET, None)
@example(catalog_device("B"), _TINIER_OUTLET, None)
def test_switching_objective_equals_sweep(device, coeffs, target):
    # the objective finds the switching point without building states;
    # it must score exactly what the sweep over its grid reports
    _assert_objective_equals_sweep(device, coeffs, target)


@_PROPERTY
@given(devices(), coefficients(),
       st.one_of(st.none(), st.floats(-5.0e4, 5.0e4)),
       st.floats(-159.0, -6.0))
def test_switching_objective_equals_sweep_on_tiny_nozzles(device, coeffs,
                                                          target, exponent):
    # nozzles down to 1e-159 m^2: below about 1e-158 m^2 the jet's
    # dynamic pressure overflows somewhere on the grid, often only after
    # the switch, where the objective must still fail as the sweep does
    _assert_objective_equals_sweep(with_gate(device, a_ne=10.0 ** exponent),
                                   coeffs, target)


def test_switching_objective_stops_at_the_first_bracket(monkeypatch):
    # after the no-failure check at the grid's top, a junction that cannot
    # reclose the gate has its first negative row found by bisection over
    # the row indices; a reclosing one is scanned row by row, up to the
    # first bracket.  Either way the bracket's bisection follows.
    qs = engine._grid(0.0, 30.0 * M3S_PER_LPM, 1.0 * M3S_PER_LPM)
    b = catalog_device("B")
    # type B with a narrow branch: the same switch between 13 and 14 L/min
    reclosing_b = _with_geometry(b, split_design_rule=False, a_branch=1.6e-6)

    def bisection(device):
        law = _point_law(device, DEFAULT_COEFFS)
        calls = []
        engine._refine_switching(lambda q: calls.append(q) or law(q),
                                 qs[13], qs[14], law(qs[13])[3])
        return calls

    expected = {
        b: [qs[-1], *(qs[i] for i in (15, 7, 11, 13, 14)), *bisection(b)],
        reclosing_b: [qs[-1], *qs[:15], *bisection(reclosing_b)],
        # a reclosing junction that never switches reads every row
        _RECLOSING: [qs[-1], *qs],
    }
    calls = []

    def counted(template, coeffs):
        # each row a candidate finishes, by its flow: a binding stages
        # each flow once, when a row is first read there
        stage, finish_at = _design_chain(template, coeffs)

        def counted_finish_at(*values):
            finish = finish_at(*values)
            return lambda st: calls.append(st[0]) or finish(st)

        return stage, counted_finish_at

    monkeypatch.setattr(engine, "_design_chain", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        for device, sequence in expected.items():
            calls.clear()
            switching_objective(DEFAULT_COEFFS)(device)
            assert calls == sequence
        # a binding's next candidate starts at the last one's bracket: the
        # top row, rows 14 and 13, then the same bisection of the bracket
        score = switching_objective(DEFAULT_COEFFS).bind(b)
        g = b.geometry
        for rows in ((15, 7, 11, 13, 14), (14, 13)):
            calls.clear()
            score(g.gate.w, g.gate.t, g.gate.h, g.a_ne)
            assert calls == [qs[-1], *(qs[i] for i in rows), *bisection(b)]
        # a gate that never opens: the top row is not negative, so no row
        # is, and the no-failure check's read of it is the only one
        calls.clear()
        switching_objective(_SHUT)(b)
        assert calls == [qs[-1]]


# --- the device's terms -------------------------------------------------------

def _junction_split(geometry):
    """The oracle's junction factor ``1 - (a_in / (2 a_branch))^2``, read
    out of ``_bifurcation_pressure``: a gas whose kinetic scale is exactly
    1, at the flow ``q = a_in`` and no supply pressure, leaves the factor
    alone."""
    unit_gas = SimpleNamespace(rho_in=1.0, rho=1.0, gamma=-1.0)
    return _bifurcation_pressure(geometry.a_in, 0.0, unit_gas, geometry)


@_PROPERTY
@given(devices(), coefficients())
def test_device_terms_equal_oracle_terms(device, coeffs):
    g = device.geometry
    expected = (
        _junction_split(g),
        _GateComplianceModel.for_gate(g.gate, coeffs.k0, coeffs.p_c).a_fg_max,
        coeffs.k0 * REFERENCE_STIFFNESS / gate_stiffness(g.gate,
                                                         device.material),
        recirculation_penalty(g.gate.w, coeffs, g.channel_width_ref),
        coeffs.cd_out * g.a_out)
    split, _, terms_at = _design_terms(device, coeffs)
    terms = (split, *terms_at(g.gate.w, g.gate.t, g.gate.h, g.a_ne,
                              coeffs.k0))
    assert _bits(terms) == _bits(expected)


def _frozen_no_row_fails(law, device, coeffs, q_top):
    """``model._no_row_fails`` as it stood with the penalty factor in its
    suction bound.  Do not edit this to follow the guard."""
    try:
        law(q_top)
        g = device.geometry
        blow = 0.5 * AIR.rho * (q_top / (coeffs.cd_out * g.a_out)) ** 2
    except (ValueError, OverflowError):
        return False
    v = (q_top / g.n_nozzles) / g.a_ne
    w, w_ref = g.gate.w, g.channel_width_ref
    if w_ref <= 0.0:
        raise ValueError("w_ref must be positive")
    excess = max(0.0, (w - w_ref) / w_ref)
    penalty = 1.0 / (1.0 + coeffs.c_recirc * excess * excess)
    suck = coeffs.eta * (0.5 * AIR.rho * v * v) * penalty
    return blow < math.inf and suck < math.inf


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def guard_devices(draw):
    """The oracle's devices with any area, and the reference width, down
    to 1e-320 m^2 (m): terms that overflow, underflow or turn nan."""
    device = draw(devices())
    g = device.geometry
    geometry = g._replace(**{
        name: draw(st.one_of(st.just(getattr(g, name)), _decades(-320, -2)))
        for name in ("a_in", "a_branch", "a_ne", "a_ex", "a_out",
                     "channel_width_ref")})
    return device._replace(geometry=geometry)


@st.composite
def guard_coefficients(draw):
    return draw(coefficients())._replace(
        eta=draw(_decades(-300, 300)),
        c_recirc=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                                _decades(-300, 300))),
        k0=draw(_decades(-300, 300)),
        cd_out=draw(_decades(-300, 0)))


def _with_geometry(device, **geometry):
    return device._replace(geometry=device.geometry._replace(**geometry))


@_PROPERTY
@given(guard_devices(), guard_coefficients())
# an infinite width excess: times c_recirc = 0 the penalty is nan, times
# c_recirc = 1 it is 0
@example(_with_geometry(catalog_device("B"), channel_width_ref=1.0e-320),
         DEFAULT_COEFFS._replace(c_recirc=0.0))
@example(_with_geometry(catalog_device("B"), channel_width_ref=1.0e-320),
         DEFAULT_COEFFS._replace(c_recirc=1.0))
# a wide gate whose penalty is near 0
@example(catalog_device("C"),
         DEFAULT_COEFFS._replace(c_recirc=1.0e300))
@example(_TINY_NOZZLE, DEFAULT_COEFFS)
@example(_TINIER_NOZZLE, DEFAULT_COEFFS)
@example(catalog_device("B"), _TINIER_OUTLET)
def test_guard_verdict_equals_frozen_guard(device, coeffs):
    # the frozen guard's suction bound, penalty and all, is finite
    # whenever law(q_top) returns (an infinite bound, or a nan penalty,
    # makes the law's own p_out there inf or nan), so the guard that
    # checks only the blocked-gate bound gives the same verdict; a guard
    # that passes hands back the law's own point at the top
    q_top = engine._grid(0.0, 30.0 * M3S_PER_LPM, 1.0 * M3S_PER_LPM)[-1]
    law = _point_law(device, coeffs)
    top = _no_row_fails(device, coeffs, q_top)(law)
    assert ((top is not None)
            == _frozen_no_row_fails(law, device, coeffs, q_top))
    if top is not None:
        assert _bits(top) == _bits(law(q_top))


# type B with a junction factor of exactly 0 (a_in == 2 a_branch), and
# one just below 0, whose gate can reclose
_EVEN_SPLIT = _with_geometry(catalog_device("B"), split_design_rule=False,
                             a_in=3.3e-6, a_branch=3.3e-6 / 2)
_UNEVEN_SPLIT = _with_geometry(catalog_device("B"), split_design_rule=False,
                               a_in=3.3e-6,
                               a_branch=math.nextafter(3.3e-6 / 2, 0.0))
# a narrow branch whose p_out signs run 0 + + - - + ..: the scan's
# switch at 2.94 L/min is the first sign change, not the last
_SIGN_RETURNS = (
    _with_geometry(catalog_device("B"), split_design_rule=False,
                   a_branch=2.0821514124925612e-07),
    DEFAULT_COEFFS._replace(c1=115051141.55762504,
                            c2=74233762471.7731, k0=3.2645887147227662e-09,
                            p_c=2686.657460029258))


@_PROPERTY
@given(guard_devices(), guard_coefficients(),
       st.one_of(st.none(), st.floats(-5.0e4, 5.0e4)))
@example(_EVEN_SPLIT, DEFAULT_COEFFS, None)
@example(_UNEVEN_SPLIT, DEFAULT_COEFFS, None)
@example(*_SIGN_RETURNS, None)
# no cracking pressure and a stiff gain: negative from row 1 on, after
# row 0's exact zero, so the device never switches
@example(catalog_device("B"),
         DEFAULT_COEFFS._replace(p_c=0.0, k0=1.0e-6), None)
# a suction term that underflows to 0: blowing rows, then saturated rows
# of exactly 0, and no switch
@example(catalog_device("C"),
         DEFAULT_COEFFS._replace(eta=1.0e-300, c_recirc=1.0e300,
                                 k0=1.0e-6), None)
def test_switching_objective_equals_sweep_on_guard_devices(device, coeffs,
                                                           target):
    # areas and coefficients over hundreds of decades: the bisection over
    # the grid's rows and the scan it falls back to score what the sweep
    # reports
    _assert_objective_equals_sweep(device, coeffs, target)


def _set_up(coeffs=None, gate=None, **geometry):
    """Type B with an unequal split allowed and the given changes."""
    b = catalog_device("B")
    if gate is not None:
        geometry["gate"] = b.geometry.gate._replace(**gate)
    device = _with_geometry(b, split_design_rule=False, **geometry)
    return device, DEFAULT_COEFFS._replace(**(coeffs or {}))


# one case per set-up check, in the order the law makes them, then cases
# that fail two checks and report the earlier one
@pytest.mark.parametrize("case, message", [
    (_set_up(a_in=0.0), "areas must be positive"),
    (_set_up(a_branch=0.0), "areas must be positive"),
    (_set_up(a_branch=1.0e-300), _NOT_FINITE),
    # a_in / (2 a_branch) itself overflows: each flow's stage reports it
    (_set_up(a_branch=1.0e-320), _NOT_FINITE),
    (_set_up(gate={"w": 1.0e-200, "h": 1.0e-200}),
     "a_fg_max must be positive and finite"),
    (_set_up(gate={"t": 0.0}), "gate dimensions must be positive"),
    (_set_up(gate={"t": 1.0e-200}),
     "gate stiffness E t^3 h / w must be positive and finite"),
    (_set_up({"k0": 1.0e300}, gate={"t": 1.0e-7}),
     "gate gain k0 D_ref / D must be positive and finite"),
    (_set_up(a_ex=0.0), "a_ex must be positive"),
    (_set_up(channel_width_ref=0.0), "w_ref must be positive"),
    (_set_up({"cd_out": 1.0e-300}, a_out=1.0e-300),
     "cd_out * a_out must be positive and finite"),
    (_set_up(a_ne=0.0), "a_ne must be positive"),
    (_set_up(a_ne=-0.4e-6), "a_ne must be positive"),
    (_set_up(n_nozzles=0), "n_nozzles must be positive"),
    (_set_up(a_ex=0.0, channel_width_ref=0.0), "a_ex must be positive"),
    (_set_up({"cd_out": 1.0e-300}, a_branch=1.0e-300, a_out=1.0e-300),
     _NOT_FINITE),
    (_set_up({"cd_out": 1.0e-300}, a_out=1.0e-300, a_ne=0.0),
     "cd_out * a_out must be positive and finite"),
    (_set_up(a_ne=0.0, n_nozzles=0), "a_ne must be positive"),
    (_set_up(a_branch=1.0e-320, a_ex=0.0), "a_ex must be positive"),
], ids=["areas", "zero-a_branch", "split", "infinite-ratio", "a_fg_max",
        "gate-dimensions", "stiffness", "gain", "a_ex", "w_ref", "out_area",
        "a_ne", "negative-a_ne", "n_nozzles", "a_ex-before-w_ref",
        "split-before-out_area", "out_area-before-a_ne",
        "a_ne-before-n_nozzles", "a_ex-before-infinite-ratio"])
def test_set_up_checks_report_in_order(case, message):
    device, coeffs = case
    exact = f"^{re.escape(message)}$"
    q = 10.0 * M3S_PER_LPM
    with pytest.raises(ValueError, match=exact):
        _point_law(device, coeffs)(q)
    with pytest.raises(ValueError, match=exact):
        solve_operating_point(q, device, coeffs)
    # a bad flow is still reported before a bad device
    with pytest.raises(ValueError, match="^q_in must be finite$"):
        _point_law(device, coeffs)(math.nan)
    with pytest.raises(ValueError, match="^q_in must be nonnegative$"):
        solve_operating_point(-q, device, coeffs)
    q_start = 5.0 * M3S_PER_LPM
    with pytest.raises(SweepError) as failed:
        sweep(device, coeffs, q_start, q, 1.0 * M3S_PER_LPM)
    assert failed.value.q_in == q_start
    assert str(failed.value) == \
        f"sweep failed at q_in={q_start:.9g} m^3/s: {message}"
    with pytest.raises(SweepError) as failed:
        sweep(device, coeffs, 0.0, 30.0 * M3S_PER_LPM, 1.0 * M3S_PER_LPM)
    with pytest.raises(SweepError) as objective_failed:
        switching_objective(coeffs)(device)
    assert objective_failed.value.q_in == failed.value.q_in == 0.0
    assert str(objective_failed.value) == str(failed.value)
