"""The fit loop and the port loop are the finish, bit for bit.

``model._fit_misfit`` scores a closure-fit trial, and ``model._port_p_out``
a suction or blowing candidate, without building a finish: each computes
once what its search holds fixed (a fit's rows, a binding's stage at its
flow) and runs the rest of the finish inline.  On random templates (ones
that fail a check included), coefficients, flows (zero, sonic and
overflowing ones) and sequences of trials or candidates (at and beyond
the fit's box, and out of any range), each result must equal the finish
of ``model._design_chain`` on the same stages, as the fit and the search
computed it before, or fail with the same exception type and message.
Neither loop builds a finish closure.
"""

import math
import sys
import warnings

from hypothesis import example, given, settings, strategies as st
from test_closure_fit_parity import _FLOWS
from test_design_binding import _template, candidates, coefficients, templates

import fdrsim.model as model
from fdrsim import (DEFAULT_COEFFS, MeasurementRow, MeasurementSet,
                    SupersonicJetWarning, blowing_objective, fit_closures,
                    optimize_geometry, suction_objective)
from fdrsim._units import M3S_PER_LPM
from fdrsim.calib import _misfit
from fdrsim.model import _design_chain, _fit_misfit, _point_law, _port_p_out

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
    """A trial as the fit scored it before: a finish per trial, and the
    stages computed at the first trial whose terms pass."""
    stage, finish_at = _design_chain(template, coeffs)
    stages = None

    def misfit(eta, k0, p_c):
        nonlocal stages
        finish = finish_at(*_dimensions(template), eta, k0, p_c)
        if stages is None:
            stages = {q: stage(q) for q in qs}   # the flows are distinct
        return _misfit(qs, ps, scale, lambda q: finish(stages[q]))

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


# --- the port loop -----------------------------------------------------------

_Q_STARS = st.one_of(st.just(0.0), st.floats(0.0, 16.0 * _LPM),
                     st.floats(16.0 * _LPM, 80.0 * _LPM),
                     st.sampled_from([1.0e150, 1.0e200]))


@st.composite
def port_coefficients(draw):
    """``coefficients()``, half of them with an ``eta`` that is not a power
    of two: the default 0.25 scales exactly, and would hide a product
    grouped otherwise than the finish groups it."""
    coeffs = draw(coefficients())
    if draw(st.booleans()):
        coeffs = coeffs._replace(eta=draw(st.floats(1.0e-3, 1.0)))
    return coeffs


def _port_oracle(template, coeffs, q_star):
    """A candidate as the search scored it before: a finish per
    candidate, and the stage at the first candidate whose terms pass."""
    stage, finish_at = _design_chain(template, coeffs)
    star = None

    def p_out(w, t, h, a_ne):
        nonlocal star
        finish = finish_at(w, t, h, a_ne, coeffs.eta, coeffs.k0, coeffs.p_c)
        if star is None:
            star = stage(q_star)
        return finish(star)[3]

    return p_out


@_PROPERTY
@given(templates(), port_coefficients(), _Q_STARS,
       st.lists(candidates(), min_size=1, max_size=6))
@example(_B, DEFAULT_COEFFS, 25.0 * _LPM,
         [(8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), (6.0e-3, 0.4e-3, 1.8e-3, 0.3e-6)])
# a failing candidate before a passing one: the stage waits for a pass
@example(_B, DEFAULT_COEFFS, 10.0 * _LPM,
         [(0.0, 0.5e-3, 2.0e-3, 0.4e-6), (8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6)])
@example(_B, DEFAULT_COEFFS, 1.0e200, [(8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6)])
@example(_template("B", 2.0e-6, n_nozzles=0), DEFAULT_COEFFS, 10.0 * _LPM,
         [(8.0e-3, 0.5e-3, 2.0e-3, 0.0)])
def test_port_loop_equals_the_finish_per_candidate(template, coeffs, q_star,
                                                   sequence):
    oracle = _port_oracle(template, coeffs, q_star)
    loop = _port_p_out(template, coeffs, q_star)
    for dimensions in sequence:
        assert _outcome(loop, *dimensions) == _outcome(oracle, *dimensions)


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

    counts = _model_calls(fit, ("terms", "stage", "finish_at", "finish"))
    # 40 trials and the final residuals check their terms; the fit loop
    # stages each flow once, and only the final residuals, which run the
    # device's law, build a finish and stage and finish each row again
    assert counts == {"terms": 41, "stage": 2 * len(flows), "finish_at": 1,
                      "finish": len(flows)}


def test_a_port_candidate_builds_no_finish():
    bounds = {"w": (6.0e-3, 10.0e-3), "h": (1.8e-3, 2.2e-3)}
    for objective in (suction_objective, blowing_objective):
        results = []

        def search():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SupersonicJetWarning)
                results.append(optimize_geometry(
                    objective(DEFAULT_COEFFS, 25.0 * _LPM), bounds, _B,
                    max_evals=30))

        counts = _model_calls(search, ("terms", "stage", "finish_at",
                                       "finish"))
        assert counts == {"terms": results[0].evaluations, "stage": 1,
                          "finish_at": 0, "finish": 0}
