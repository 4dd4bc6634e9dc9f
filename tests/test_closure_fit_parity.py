"""The closure fit computes each measured flow's stage once per search,
and scores every trial as the fit did when each trial built its own law.

``old_fit_closures`` below is ``calib.fit_closures`` as it stood when each
evaluation built ``_point_law(device, trial)`` and ran every measured row
through it, copied unchanged but for ``_replace`` in place of
``dataclasses.replace``.  On random measurement sets (1 to 60 rows,
with zero, sonic and overflowing flows), templates (reclosing junctions,
and templates that fail a check), starts and budgets, both fits must
return the same coefficients, the same residual bits and the same
warnings, or fail with the same exception type and message.
"""

import math
import warnings

from hypothesis import example, given, settings, strategies as st
from test_design_binding import _template, templates

from fdrsim import (DEFAULT_COEFFS, FitError, FitReport, MeasurementRow,
                    MeasurementSet, ModelCoefficients, calib, fit_closures,
                    model, nelder_mead)
from fdrsim._units import M3S_PER_LPM
from fdrsim.calib import _misfit, _spread
from fdrsim.model import _point_law, _warn_if_sonic

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def old_fit_closures(data, device, *, start=DEFAULT_COEFFS, max_evals=400):
    rows = [r for r in data.rows if r.p_out is not None]
    if not rows:
        raise FitError("no rows with p_out; cannot fit the output closure")
    warnings: tuple[str, ...] = ()
    signs = {p > 0.0 for p in (r.p_out for r in rows) if p != 0.0}
    if len(signs) < 2:
        warnings = ("p_out never changes sign; "
                    "the switching point is unconstrained",)

    qs = [r.q_in for r in rows]
    ps = [r.p_out for r in rows]
    scale = _spread(ps)
    if scale <= 0.0:
        scale = max(max(map(abs, ps)), 1.0)
    # an infinite scale would score every candidate 0
    if not scale < math.inf:
        raise FitError("p_out measurements overflow the closure fit")

    ref = (start.eta, start.k0, max(start.p_c, 1.0e3))
    lo = (1.0e-6, 1.0e-16, 0.0)
    hi = (1.0, math.inf, math.inf)

    def clamp(u: list[float]) -> tuple[list[float], list[float]]:
        """The trial coefficients ``u * ref`` and their clamp to the box."""
        params = [ui * r for ui, r in zip(u, ref)]
        return params, [min(max(p, a), b) for p, a, b in zip(params, lo, hi)]

    def objective(u: list[float]) -> float:
        params, clipped = clamp(u)
        violation = 0.0
        for p, c, r in zip(params, clipped, ref):
            d = (p - c) / r
            violation += d * d
        penalty = 1.0e9 * (1.0 + violation) if violation > 0.0 else 0.0
        # the constructor, cheaper per evaluation than ``_replace``; it
        # still checks the trial
        trial = ModelCoefficients(c1=start.c1, c2=start.c2, eta=clipped[0],
                                  c_recirc=start.c_recirc, k0=clipped[1],
                                  p_c=clipped[2], cd_out=start.cd_out)
        return _misfit(qs, ps, scale, _point_law(device, trial)) + penalty

    best_u, _, _ = nelder_mead(objective, [1.0, 1.0, 1.0],
                               max_evals=max_evals, diam_tol=1.0e-9)
    eta, k0, p_c = clamp(best_u)[1]
    fitted = start._replace(eta=eta, k0=k0, p_c=p_c)

    law = _point_law(device, fitted)
    residuals = tuple(p_ref - law(q)[3] for q, p_ref in zip(qs, ps))
    _warn_if_sonic(max(qs), device)
    report = FitReport(
        coefficients={"eta": fitted.eta, "c_recirc": fitted.c_recirc,
                      "k0": fitted.k0, "p_c": fitted.p_c},
        residuals={"p_out": residuals},
        warnings=warnings)
    if not report.rms_residual["p_out"] < math.inf:
        raise FitError("p_out residuals overflow the closure fit")
    return fitted, report


_LPM = M3S_PER_LPM
# a flow [m^3/s]: none, below the catalog's sonic jet (about 16.5 L/min),
# past it, or one whose supply pressure overflows
_FLOWS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 16.0 * _LPM),
    st.floats(16.0 * _LPM, 80.0 * _LPM),
    st.sampled_from([1.0e150, 1.0e200, 1.0e300]))
# a measured p_out [Pa]: mostly the bench's range, some exact zeros, some
# none, and a few whose spread overflows
_P_OUTS = st.one_of(
    st.floats(-6.0e4, 6.0e4), st.floats(-6.0e4, 6.0e4),
    st.floats(-6.0e4, 6.0e4), st.just(0.0), st.none(),
    st.sampled_from([1.0e300, -1.0e300]))


@st.composite
def measurements(draw):
    flows = draw(st.lists(_FLOWS, min_size=1, max_size=60, unique=True))
    return MeasurementSet(rows=tuple(
        MeasurementRow(q_in=q, p_out=draw(_P_OUTS)) for q in flows))


@st.composite
def starts(draw):
    """Mostly the default set; else the fitted three and the fixed four
    moved, or terms near the float range's ends."""
    if draw(st.sampled_from(range(3))):
        return DEFAULT_COEFFS
    changes = draw(st.sampled_from([
        {}, {"k0": 1.0e300}, {"cd_out": 1.0e-300}, {"p_c": 0.0},
        {"eta": 1.0e-300, "c_recirc": 1.0e300}, {"c1": 0.0, "c2": 0.0},
        {"c2": 1.0e300}]))
    fields = {"eta": draw(st.floats(1.0e-3, 1.0)),
              "k0": draw(st.floats(1.0e-12, 1.0e-8)),
              "p_c": draw(st.floats(0.0, 2.0e4)),
              "c_recirc": draw(st.floats(0.0, 10.0))}
    return DEFAULT_COEFFS._replace(**{**fields, **changes})


def _outcome(fit, data, device, start, max_evals, action):
    """The fit's coefficients and residuals as bits, or its exception's
    type and message, and the warnings it raised, under ``action``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            fitted, report = fit(data, device, start=start,
                                 max_evals=max_evals)
            result = (
                [float(value).hex() for value in fitted._asdict().values()],
                {k: v.hex() for k, v in report.coefficients.items()},
                [r.hex() for r in report.residuals["p_out"]],
                report.rms_residual["p_out"].hex(), report.warnings)
        except Exception as exc:   # noqa: BLE001 - compared, not handled
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _rows(device, flows_lpm, coeffs=DEFAULT_COEFFS):
    law = _point_law(device, coeffs)
    return MeasurementSet(rows=tuple(
        MeasurementRow(q_in=q * _LPM, p_out=law(q * _LPM)[3])
        for q in flows_lpm))


_B = _template("B", 2.0e-6)
_FIT = DEFAULT_COEFFS._replace(eta=0.3, k0=2.0e-10, p_c=3000.0)


@_PROPERTY
@given(measurements(), templates(), starts(), st.integers(1, 80),
       st.sampled_from(["always", "always", "error"]))
# a fit that moves, and fits with a sonic row, reported or raised
@example(_rows(_B, (2, 6, 10, 14), _FIT), _B, DEFAULT_COEFFS, 60, "error")
@example(_rows(_B, (5, 10, 15, 20, 25), _FIT), _B, DEFAULT_COEFFS, 60,
         "always")
@example(_rows(_B, (10, 20, 40), _FIT), _B, DEFAULT_COEFFS, 30, "error")
# a reclosing junction, and a template whose own check fails every trial
@example(_rows(_template("B", 1.6e-6), (4, 12, 20, 28)),
         _template("B", 1.6e-6), DEFAULT_COEFFS, 40, "always")
@example(_rows(_B, (5, 15, 25)), _template("B", 2.0e-6, n_nozzles=0),
         DEFAULT_COEFFS, 20, "always")
# a flow whose supply pressure overflows fails every trial and the fit
@example(MeasurementSet(rows=(MeasurementRow(q_in=1.0e200, p_out=1.0),
                              MeasurementRow(q_in=1.0e-4, p_out=-1.0))),
         _B, DEFAULT_COEFFS, 20, "always")
def test_fit_equals_the_fit_with_a_law_per_trial(data, device, start,
                                                 max_evals, action):
    assert (_outcome(fit_closures, data, device, start, max_evals, action)
            == _outcome(old_fit_closures, data, device, start, max_evals,
                        action))


def test_fit_runs_each_flow_stage_once(monkeypatch):
    # the fit holds c1, c2 and the device fixed: one stage per measured
    # flow for the whole search, not one per flow and evaluation, and one
    # per flow in the final residuals, which run the device's law
    staged, searched = [], []
    terms = model._design_terms
    law = calib._point_law

    def counted_terms(template, coeffs):
        split, stage, terms_at = terms(template, coeffs)

        def counted_stage(q_in):
            staged.append(q_in)
            return stage(q_in)

        return split, counted_stage, terms_at

    def final_law(device, coeffs):
        searched.extend(staged)
        staged.clear()
        return law(device, coeffs)

    data = _rows(_B, (5, 10, 15, 20), _FIT)
    monkeypatch.setattr(model, "_design_terms", counted_terms)
    monkeypatch.setattr(calib, "_point_law", final_law)
    _, report = fit_closures(data, _B, max_evals=60)
    assert searched == [r.q_in for r in data.rows]
    assert staged == [r.q_in for r in data.rows]
    assert len(report.residuals["p_out"]) == 4
