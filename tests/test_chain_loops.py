"""One finish: the fit loop gives its bits, and a bound port score is
the operating point.

``model._finish`` finishes every point but a closure fit's trial rows.
``model._fit_misfit`` scores a fit's trial without calling it: it stages
the measured flows once and runs the rest of the finish inline.  On
random templates (ones that fail a check included), coefficients, flows
(zero, sonic and overflowing ones) and sequences of trials (at and
beyond the fit's box, and out of any range), each trial must score what
``_finish`` of the same stages and the trial's terms scores, or fail
with the same exception type and message.  A suction or blowing binding
composes ``stage``, ``terms`` and ``_finish``, staging its flow once;
over a sequence of candidates, each score must be the ``p_out`` of
``solve_operating_point`` on the candidate's ``with_gate`` copy, bits and
errors alike.  No module beside ``model`` uses the chain's constants.
"""

import ast
import math
import sys
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
from test_closure_fit_parity import _FLOWS
from test_design_binding import _template, candidates, coefficients, templates

import fdrsim.model as model
from fdrsim import (DEFAULT_COEFFS, MeasurementRow, MeasurementSet,
                    SupersonicJetWarning, blowing_objective, fit_closures,
                    optimize_geometry, solve_operating_point,
                    suction_objective, with_gate)
from fdrsim._units import M3S_PER_LPM
from fdrsim.calib import _misfit
from fdrsim.model import _design_terms, _finish, _fit_misfit, _point_law

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def _outcome(call, *args):
    """The call's float as bits, or its exception's type and message."""
    try:
        return float(call(*args)).hex()
    except Exception as exc:   # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _dimensions(template):
    g = template.geometry
    return g.gate.w, g.gate.t, g.gate.h, g.a_ne


# --- the fit loop ------------------------------------------------------------

# a trial's (eta, k0, p_c): the fit's box (1e-6 <= eta <= 1, k0 >= 1e-16,
# p_c >= 0), its faces, and values beyond it or out of any range
_TRIALS = st.tuples(
    st.one_of(st.floats(1.0e-6, 1.0),
              st.sampled_from([1.0e-6, 1.0, 2.0, 1.0e-300, 0.0, -0.5,
                               math.inf, math.nan])),
    st.one_of(st.floats(1.0e-12, 1.0e-8),
              st.sampled_from([1.0e-16, 1.0e-300, 1.0e300, 0.0, math.inf,
                               math.nan])),
    st.one_of(st.floats(0.0, 2.0e4),
              st.sampled_from([0.0, 1.0e6, -1.0e3, 1.0e300, math.inf,
                               math.nan])))
# a measured p_out [Pa], and a fit's scale: a spread, or a lone |p_out|
_P_REFS = st.one_of(st.floats(-6.0e4, 6.0e4), st.just(0.0),
                    st.sampled_from([1.0e300, -1.0e300]))
_SCALES = st.one_of(st.floats(1.0, 6.0e4),
                    st.sampled_from([1.0e-300, 1.0e300]))


@st.composite
def fit_data(draw):
    """Distinct flows and a measured p_out for each."""
    flows = draw(st.lists(_FLOWS, min_size=1, max_size=40, unique=True))
    return flows, [draw(_P_REFS) for _ in flows]


def _fit_oracle(template, coeffs, qs, ps, scale):
    """A trial scored by the finish: ``_finish`` of each flow's stage and
    the trial's terms, the stages computed at the first trial whose terms
    pass."""
    stage, terms_at = _design_terms(template, coeffs)
    stages = None

    def misfit(eta, k0, p_c):
        nonlocal stages
        terms = terms_at(*_dimensions(template), eta, k0, p_c)
        if stages is None:
            stages = {q: stage(q) for q in qs}   # the flows are distinct
        return _misfit(qs, ps, scale, lambda q: _finish(stages[q], terms))

    return misfit


_B = _template("B", 2.0e-6)
_LPM = M3S_PER_LPM


@_PROPERTY
@given(templates(), coefficients(), fit_data(), _SCALES,
       st.lists(_TRIALS, min_size=1, max_size=6))
# the default device's own trial, and a gate that opens past its window
@example(_B, DEFAULT_COEFFS, ([0.0, 5.0 * _LPM, 15.0 * _LPM, 25.0 * _LPM],
                              [10.0, 2.0e3, -1.0e3, -3.0e3]),
         1.0e3, [(0.25, 1.7e-10, 4500.0), (1.0, 1.0e-8, 0.0)])
# a gate partly vented over the grid, and an eta that is not a power of
# two, so that a product grouped otherwise than the finish groups it shows
@example(_B, DEFAULT_COEFFS, ([q * _LPM for q in range(31)], [0.0] * 31),
         1.0, [(0.7, 5.0e-11, 4500.0)])
# a failing trial before a passing one: the rows wait for the first pass
@example(_B, DEFAULT_COEFFS, ([5.0 * _LPM, 20.0 * _LPM], [1.0, -1.0]), 1.0,
         [(0.25, 1.0e300, 0.0), (0.25, 1.7e-10, 4500.0)])
# a flow whose supply pressure overflows fails every trial at its stage
@example(_B, DEFAULT_COEFFS, ([1.0e-4, 1.0e200], [1.0, -1.0]), 1.0,
         [(0.25, 1.7e-10, 4500.0), (0.5, 1.7e-10, 0.0)])
# a reclosing junction, and a template whose own check fails every trial
@example(_template("B", 1.6e-6), DEFAULT_COEFFS,
         ([4.0 * _LPM, 28.0 * _LPM], [5.0e3, -5.0e3]), 5.0e3,
         [(0.25, 1.7e-10, 4500.0)])
@example(_template("B", 2.0e-6, n_nozzles=0), DEFAULT_COEFFS,
         ([5.0 * _LPM], [1.0]), 1.0, [(0.25, 1.7e-10, 4500.0)])
def test_fit_loop_equals_the_finish_per_trial(template, coeffs, data, scale,
                                              trials):
    qs, ps = data
    oracle = _fit_oracle(template, coeffs, qs, ps, scale)
    loop = _fit_misfit(template, coeffs, qs, ps, scale)
    for trial in trials:
        assert _outcome(loop, *trial) == _outcome(oracle, *trial)


# --- the port score ----------------------------------------------------------

_Q_STARS = st.one_of(st.just(0.0), st.floats(0.0, 16.0 * _LPM),
                     st.floats(16.0 * _LPM, 80.0 * _LPM),
                     st.sampled_from([1.0e150, 1.0e200]))


@st.composite
def port_coefficients(draw):
    """``coefficients()``, half of them with an ``eta`` that is not a power
    of two: the default 0.25 scales exactly, and would hide a product
    grouped otherwise than the law groups it."""
    coeffs = draw(coefficients())
    if draw(st.booleans()):
        coeffs = coeffs._replace(eta=draw(st.floats(1.0e-3, 1.0)))
    return coeffs


def _operating_point_score(template, coeffs, q_star, blowing, dimensions):
    """The port objective's value as ``solve_operating_point`` gives it on
    the candidate's ``with_gate`` copy."""
    candidate = with_gate(template, **dict(zip(("w", "t", "h", "a_ne"),
                                               dimensions)))
    p_out = solve_operating_point(q_star, candidate, coeffs).p_out
    return -p_out if blowing else p_out


@_PROPERTY
@given(templates(), port_coefficients(), _Q_STARS, st.booleans(),
       st.lists(candidates(), min_size=1, max_size=6))
@example(_B, DEFAULT_COEFFS, 25.0 * _LPM, False,
         [(8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), (6.0e-3, 0.4e-3, 1.8e-3, 0.3e-6)])
# a failing candidate before a passing one: the stage waits for a pass
@example(_B, DEFAULT_COEFFS, 10.0 * _LPM, True,
         [(0.0, 0.5e-3, 2.0e-3, 0.4e-6), (8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6)])
@example(_B, DEFAULT_COEFFS, 1.0e200, False,
         [(8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6)])
@example(_template("B", 2.0e-6, n_nozzles=0), DEFAULT_COEFFS, 10.0 * _LPM,
         True, [(8.0e-3, 0.5e-3, 2.0e-3, 0.0)])
def test_port_score_equals_the_operating_point(template, coeffs, q_star,
                                               blowing, sequence):
    objective = (blowing_objective if blowing else suction_objective)(
        coeffs, q_star)
    score = objective.bind(template)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        for dimensions in sequence:
            assert (_outcome(score, *dimensions)
                    == _outcome(_operating_point_score, template, coeffs,
                                q_star, blowing, dimensions))


# --- what each trial and candidate calls -------------------------------------

def _model_calls(action, names):
    """How often ``action()`` calls each of ``model``'s functions named in
    ``names``, closures included."""
    counts = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == model.__file__
                and code.co_name in counts):
            counts[code.co_name] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


def test_a_fit_trial_builds_no_finish():
    law = _point_law(_B, DEFAULT_COEFFS._replace(eta=0.3, k0=2.0e-10))
    flows = [q * _LPM for q in (5, 10, 15, 20, 25)]
    data = MeasurementSet(rows=tuple(MeasurementRow(q_in=q, p_out=law(q)[3])
                                     for q in flows))
    results = []

    def fit():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupersonicJetWarning)
            results.append(fit_closures(data, _B, max_evals=40))

    counts = _model_calls(fit, ("terms", "stage", "_finish"))
    # 40 trials and the final residuals check their terms; the fit loop
    # stages each flow once, and only the final residuals, which run the
    # device's law, stage and finish each row again
    assert counts == {"terms": 41, "stage": 2 * len(flows),
                      "_finish": len(flows)}


def test_a_port_candidate_finishes_one_row():
    bounds = {"w": (6.0e-3, 10.0e-3), "h": (1.8e-3, 2.2e-3)}
    for objective in (suction_objective, blowing_objective):
        results = []

        def search():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SupersonicJetWarning)
                results.append(optimize_geometry(
                    objective(DEFAULT_COEFFS, 25.0 * _LPM), bounds, _B,
                    max_evals=30))

        counts = _model_calls(search, ("terms", "stage", "_finish"))
        # the binding stages its flow once, at its first candidate
        evaluations = results[0].evaluations
        assert counts == {"terms": evaluations, "stage": 1,
                          "_finish": evaluations}


# --- the chain's constants stay in model -------------------------------------

_CHAIN_CONSTANTS = {"_HALF_RHO", "_KINETIC_SCALE", "_SONIC_SPEED",
                    "_REFERENCE_STIFFNESS"}


def _chain_constants_used(source):
    """The chain constants ``source`` names, imports or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & _CHAIN_CONSTANTS


def test_no_module_beside_model_uses_a_chain_constant():
    package = Path(model.__file__).parent
    used = {name: _chain_constants_used((package / name).read_text("utf-8"))
            for name in ("engine.py", "calib.py", "friction.py")}
    assert used == {"engine.py": set(), "calib.py": set(),
                    "friction.py": set()}
    assert _chain_constants_used("""
from .model import _HALF_RHO
from . import model as m
v = _KINETIC_SCALE * m._SONIC_SPEED
""") == {"_HALF_RHO", "_KINETIC_SCALE", "_SONIC_SPEED"}
