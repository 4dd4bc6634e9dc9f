"""Measurement handling and the two calibration fits."""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs

import fdrsim.calib as calib
from fdrsim import (
    DEFAULT_COEFFS,
    FitError,
    FitReport,
    MeasurementRow,
    MeasurementSet,
    ModelCoefficients,
    builtin_calibration_points,
    catalog_device,
    fit_closures,
    fit_input_pressure,
    load_measurements,
    solve_operating_point,
)
from fdrsim._units import M3S_PER_LPM, PA_PER_KPA

_B = catalog_device("B")


def _rows(pairs_lpm_kpa):
    return tuple(MeasurementRow(q_in=q * M3S_PER_LPM, p_in=p * PA_PER_KPA)
                 for q, p in pairs_lpm_kpa)


def test_builtin_points_shape():
    data = builtin_calibration_points()
    assert len(data.rows) == 6
    first = data.rows[0]
    assert first.q_in == pytest.approx(5.0 * M3S_PER_LPM, rel=1e-12)
    assert first.p_in == pytest.approx(5.4e3, rel=1e-12)
    assert first.p_out is None and first.a_fg is None
    qs = [r.q_in for r in data.rows]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_measurement_row_validation():
    with pytest.raises(ValueError):
        MeasurementRow(q_in=-1.0e-4)
    MeasurementRow(q_in=0.0)  # rest point is legal
    for field in ("q_in", "p_in", "p_out", "a_fg"):
        for bad in (float("nan"), float("inf")):
            fields = {"q_in": 1.0e-4, field: bad}
            with pytest.raises(ValueError, match="finite"):
                MeasurementRow(**fields)


def test_measurement_set_collapses_exact_duplicates():
    row = MeasurementRow(q_in=1.0e-4, p_in=5.0e3)
    data = MeasurementSet(rows=(row, row, MeasurementRow(q_in=2.0e-4)))
    assert len(data.rows) == 2


def test_measurement_set_rejects_conflicting_duplicates():
    with pytest.raises(ValueError):
        MeasurementSet(rows=(MeasurementRow(q_in=1.0e-4, p_in=5.0e3),
                             MeasurementRow(q_in=1.0e-4, p_in=6.0e3)))


def test_load_measurements_roundtrip(tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text(
        "q_in_lpm,p_in_kpa,p_out_kpa,a_fg_mm2\n"
        "5,5.4,,\n"
        "10,13.5,0.3,1.5\n"
        ",,,\n"            # blank flow: skipped
        "30,47.1,-26.6,\n",
        encoding="utf-8")
    data = load_measurements(path)
    assert len(data.rows) == 3
    assert data.rows[0].q_in == pytest.approx(5.0 * M3S_PER_LPM)
    assert data.rows[0].p_out is None
    assert data.rows[1].p_out == pytest.approx(0.3e3)
    assert data.rows[1].a_fg == pytest.approx(1.5e-6)
    assert data.rows[2].p_out == pytest.approx(-26.6e3)


@pytest.mark.parametrize("rows, lines", [
    ("1,2\n1,3\n", (2, 3)),
    # an exact repeat collapses; a blank flow skips its row but counts a
    # line; the conflict names the flow's first line
    ("1,2\n2,5\n1,2\n,\n1,3\n", (2, 6)),
], ids=["adjacent", "after-a-repeat-and-a-blank-row"])
def test_load_measurements_names_both_lines_of_a_repeated_flow(tmp_path,
                                                               rows, lines):
    path = tmp_path / "dup.csv"
    path.write_text("q_in_lpm,p_in_kpa\n" + rows, encoding="utf-8")
    first, second = lines
    message = (f"measurements {path} lines {first} and {second}: "
               "q_in values must be distinct")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_measurements(path)


def test_load_measurements_collapses_an_exact_repeat(tmp_path):
    path = tmp_path / "repeat.csv"
    path.write_text("q_in_lpm,p_in_kpa\n1,2\n2,5\n1,2\n",
                    encoding="utf-8")
    assert len(load_measurements(path).rows) == 2


@pytest.mark.parametrize("rows, line", [
    # decimal commas: each reading splits into two cells
    ("5,5,4\n10,13,5\n15,21,1\n", 2),
    ("5,5.4\n10,13.5\n15,21,1\n", 4),
    # a blank flow does not excuse an extra cell
    ("5,5.4\n,,\n", 3),
], ids=["decimal-commas", "third-row", "blank-flow"])
def test_load_measurements_rejects_a_row_longer_than_the_header(tmp_path,
                                                               rows, line):
    path = tmp_path / "long.csv"
    path.write_text("q_in_lpm,p_in_kpa\n" + rows, encoding="utf-8")
    message = (f"measurements {path} line {line}: 3 cells, but the header "
               "has 2")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_measurements(path)


def test_load_measurements_reads_a_row_shorter_than_the_header(tmp_path):
    # optional columns may be left off the end of a row
    path = tmp_path / "short.csv"
    path.write_text("q_in_lpm,p_in_kpa,p_out_kpa\n5,5.4\n10\n",
                    encoding="utf-8")
    data = load_measurements(path)
    assert [(r.q_in, r.p_in, r.p_out) for r in data.rows] == [
        (5.0 * M3S_PER_LPM, 5.4e3, None), (10.0 * M3S_PER_LPM, None, None)]


def test_load_measurements_requires_flow_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("flow,p_in_kpa\n1,2\n", encoding="utf-8")
    with pytest.raises(FitError):
        load_measurements(path)


def test_fit_recovers_exact_linear_law():
    # p_in = 2 q in display units means c1 = 2 kPa/(L/min), c2 = 0
    data = MeasurementSet(rows=_rows([(q, 2.0 * q) for q in (5, 10, 20, 30)]))
    (c1, c2), report = fit_input_pressure(data)
    c1_display = c1 * M3S_PER_LPM / PA_PER_KPA
    assert c1_display == pytest.approx(2.0, rel=1e-9)
    assert abs(c2) * (30 * M3S_PER_LPM) ** 2 < 1.0e-6  # no quadratic part
    assert report.rms_residual["p_in"] < 1.0e-6


def test_fit_recovers_random_nonnegative_coefficients():
    rng = np.random.default_rng(88)
    qs = np.linspace(2.0, 30.0, 8) * M3S_PER_LPM
    for _ in range(20):
        c1 = rng.uniform(1.0e6, 1.0e8)
        c2 = rng.uniform(0.0, 5.0e10)
        rows = tuple(MeasurementRow(q_in=float(q),
                                    p_in=float(c1 * q + c2 * q * q))
                     for q in qs)
        (f1, f2), _ = fit_input_pressure(MeasurementSet(rows=rows))
        assert f1 == pytest.approx(c1, rel=1e-9)
        assert f2 == pytest.approx(c2, rel=1e-9, abs=1e-9 * c1 / qs[-1])


def test_fit_clamps_negative_linear_term():
    # pure quadratic data shifted down: the unconstrained linear term
    # would go negative, the constrained one lands on the boundary
    qs = np.linspace(5.0, 30.0, 6) * M3S_PER_LPM
    rows = tuple(MeasurementRow(q_in=float(q), p_in=1.0e10 * q * q - 100.0)
                 for q in qs)
    (c1, c2), report = fit_input_pressure(MeasurementSet(rows=rows))
    assert c1 == 0.0
    expected_c2 = float(np.sum(qs ** 2 * (1.0e10 * qs ** 2 - 100.0))
                        / np.sum(qs ** 4))
    assert c2 == pytest.approx(expected_c2, rel=1e-6)


def test_fit_clamp_branch_follows_the_exact_sign():
    # fuzz-found: the numerator of the unconstrained c2 is negative, but
    # it rounds to zero, so the nonnegative optimum zeroes c2 and refits
    # c1 alone (the float sign kept the unconstrained c1)
    pairs = (("0x1.2918b66895a40p-13", "0x1.7e6bbfdb1b348p+13"),
             ("0x1.facfcdc177bd6p-12", "0x1.462eba3ae27f9p+15"))
    rows = tuple(MeasurementRow(q_in=float.fromhex(q), p_in=float.fromhex(p))
                 for q, p in pairs)
    q = [r.q_in for r in rows]
    y = [r.p_in for r in rows]
    a00 = math.fsum(x * x for x in q)
    a01 = math.fsum(x * x * x for x in q)
    b0 = math.fsum(x * v for x, v in zip(q, y))
    b1 = math.fsum(x * x * v for x, v in zip(q, y))
    assert a00 * b1 - a01 * b0 == 0.0
    exact_c1, exact_c2 = _exact_least_squares(rows)
    assert exact_c2 < 0 < exact_c1
    (c1, c2), _ = fit_input_pressure(MeasurementSet(rows=rows))
    assert c2 == 0.0
    assert c1 == b0 / a00
    refit = sum(Fraction(x) * Fraction(v) for x, v in zip(q, y)) \
        / sum(Fraction(x) ** 2 for x in q)
    assert abs(Fraction(c1) - refit) <= Fraction(1e-15) * refit


def test_fit_needs_two_informative_rows():
    with pytest.raises(FitError):
        fit_input_pressure(MeasurementSet(rows=_rows([(10, 13.5)])))
    # two rows but only one nonzero flow: columns are parallel
    with pytest.raises(FitError):
        fit_input_pressure(MeasurementSet(rows=_rows([(0, 0), (10, 13.5)])))


@pytest.mark.parametrize("pairs", [
    # finite squares of the flow whose sum overflows
    [(1.0e154, 1.0), (1.2e154, 1.0)],
    # an infinite right-hand side: the solution is not a number
    [(1.0e50, 1.0e259), (2.0e50, 1.0)],
], ids=["sum", "solution"])
def test_fit_rejects_overflowing_measurements(pairs):
    rows = tuple(MeasurementRow(q_in=q, p_in=p) for q, p in pairs)
    with pytest.raises(FitError, match="overflow"):
        fit_input_pressure(MeasurementSet(rows=rows))


def test_fit_ignores_rows_without_supply_pressure():
    rows = _rows([(5, 5.4), (10, 13.5), (20, 32.2)])
    rows += (MeasurementRow(q_in=15.0 * M3S_PER_LPM, p_out=-1.0e3),)
    (c1, c2), report = fit_input_pressure(MeasurementSet(rows=rows))
    assert len(report.residuals["p_in"]) == 3


def _exact_least_squares(rows):
    """The unconstrained least-squares ``(c1, c2)`` of ``rows`` in exact
    rational arithmetic."""
    q = [Fraction(r.q_in) for r in rows]
    y = [Fraction(r.p_in) for r in rows]
    a00 = sum(x ** 2 for x in q)
    a01 = sum(x ** 3 for x in q)
    a11 = sum(x ** 4 for x in q)
    b0 = sum(x * v for x, v in zip(q, y))
    b1 = sum(x ** 2 * v for x, v in zip(q, y))
    det = a00 * a11 - a01 * a01
    return (b0 * a11 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det


def test_fit_builtin_matches_default_coefficients():
    data = builtin_calibration_points()
    (c1, c2), report = fit_input_pressure(data)
    assert c1 == pytest.approx(DEFAULT_COEFFS.c1, rel=1e-9)
    assert c2 == pytest.approx(DEFAULT_COEFFS.c2, rel=1e-9)
    rms = report.rms_residual["p_in"]
    assert rms == pytest.approx(1436.0512886284491, rel=1e-9)
    assert rms <= 2.5e3
    for fitted, exact in zip((c1, c2), _exact_least_squares(data.rows)):
        assert abs(Fraction(fitted) - exact) <= Fraction(1e-14) * exact


def _fit_bits(rows):
    """The fitted coefficients' bit patterns, or the fit error's text."""
    try:
        (c1, c2), _ = fit_input_pressure(MeasurementSet(rows=tuple(rows)))
    except FitError as exc:
        return str(exc)
    return c1.hex(), c2.hex()


@hs.composite
def shuffled_rows(draw):
    """Supply-pressure rows at distinct flows, and the same rows shuffled."""
    qs = draw(hs.lists(hs.floats(0.0, 40.0), min_size=2, max_size=12,
                       unique_by=lambda q: q * M3S_PER_LPM))
    rows = [MeasurementRow(q_in=q * M3S_PER_LPM,
                           p_in=draw(hs.floats(-10.0, 100.0)) * PA_PER_KPA)
            for q in qs]
    return rows, draw(hs.permutations(rows))


_BUILTIN_ROWS = list(builtin_calibration_points().rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=shuffled_rows())
@example(pair=(_BUILTIN_ROWS, _BUILTIN_ROWS[::-1]))
def test_fit_independent_of_row_order(pair):
    rows, shuffled = pair
    assert _fit_bits(shuffled) == _fit_bits(rows)


def test_fit_report_rms_derived_from_residuals():
    report = FitReport(coefficients={"c1": 1.0},
                       residuals={"p_in": (500.0, -500.0), "p_out": (3.0,)})
    assert report.rms_residual == {"p_in": math.sqrt(2.5e5), "p_out": 3.0}
    # the derived field is no constructor parameter, but stays in the report
    assert "rms_residual" not in inspect.signature(FitReport).parameters
    assert list(report._asdict()) == [
        "coefficients", "rms_residual", "residuals", "warnings"]
    with pytest.raises(ValueError, match="no residuals recorded for p_in"):
        FitReport(coefficients={"c1": 1.0}, residuals={"p_in": ()})


def test_fit_report_rms_sums_squares_in_row_order():
    # 1 + 1e-16 rounds back to 1 at each step, while a compensated sum
    # (math.fsum, and builtin sum since Python 3.12) keeps both 1e-16s:
    # the report's bytes must not depend on the Python version
    res = (1.0, 1.0e-8, 1.0e-8)
    total = 0.0
    for r in res:
        total += r * r
    assert total != math.fsum(r * r for r in res)
    report = FitReport(coefficients={"c1": 1.0}, residuals={"p_in": res})
    assert report.rms_residual["p_in"].hex() == math.sqrt(total / 3).hex()


def _descent_fit(rows):
    """The supply-law fit as clamped coordinate descent, frozen from the
    iterative version of ``fit_input_pressure``: up to 500 sweeps stopped
    by a 1e-16 relative step.  Returns the coefficients."""
    q = [r.q_in for r in rows]
    y = [r.p_in for r in rows]
    q2 = [qi * qi for qi in q]
    a00 = math.fsum(q2)
    a01 = math.fsum(s * qi for s, qi in zip(q2, q))
    a11 = math.fsum(s * s for s in q2)
    b0 = math.fsum(qi * yi for qi, yi in zip(q, y))
    b1 = math.fsum(s * yi for s, yi in zip(q2, y))
    det = a00 * a11 - a01 * a01
    c1 = (b0 * a11 - a01 * b1) / det
    c2 = (a00 * b1 - a01 * b0) / det
    if c1 < 0.0 or c2 < 0.0:
        c1, c2 = max(c1, 0.0), max(c2, 0.0)
        for _ in range(500):
            p1, p2 = c1, c2
            c1 = max(0.0, (b0 - a01 * c2) / a00)
            c2 = max(0.0, (b1 - a01 * c1) / a11)
            if max(map(abs, (c1 - p1, c2 - p2))) <= 1.0e-16 * max(1.0, c1, c2):
                break
    return c1, c2


@hs.composite
def clamped_systems(draw):
    """Supply rows whose unconstrained fit has a negative ``c1``, a
    negative ``c2``, or both: a law of those signs, whose two terms are
    within a factor 5 of each other at 20 L/min, through flows at least
    0.5 L/min apart, each pressure off the law by at most 0.1%.

    The signs hold by a margin rounding cannot cross.  In an
    ill-conditioned system whose unconstrained ``c1`` lies within
    rounding of zero, the descent could stop at a noise-sized positive
    ``c1`` and a ``c2`` a few ulps off, where the closed form gives 0."""
    branch = draw(hs.sampled_from(["c1", "c2", "both"]))
    qs = draw(hs.lists(hs.integers(1, 80), min_size=2, max_size=12,
                       unique=True))
    k1 = draw(hs.floats(1.0e6, 1.0e8))
    k2 = k1 * draw(hs.floats(0.2, 5.0)) / (20.0 * M3S_PER_LPM)
    c1 = -k1 if branch in ("c1", "both") else k1
    c2 = -k2 if branch in ("c2", "both") else k2
    rows = []
    for q in qs:
        q_in = 0.5 * q * M3S_PER_LPM
        p_in = c1 * q_in + c2 * q_in * q_in
        rows.append(MeasurementRow(
            q_in=q_in, p_in=p_in * (1.0 + draw(hs.floats(-1e-3, 1e-3)))))
    return branch, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(system=clamped_systems())
def test_fit_closed_form_clamp_matches_coordinate_descent(system):
    branch, rows = system
    exact = _exact_least_squares(rows)
    assert [c < 0 for c in exact] == {"c1": [True, False],
                                      "c2": [False, True],
                                      "both": [True, True]}[branch]
    (c1, c2), _ = fit_input_pressure(MeasurementSet(rows=tuple(rows)))
    assert min(c1, c2) == 0.0
    assert (c1.hex(), c2.hex()) == tuple(map(float.hex, _descent_fit(rows)))


def _device_rows(device, qs_lpm, coeffs=DEFAULT_COEFFS):
    rows = []
    for q in qs_lpm:
        st = solve_operating_point(q * M3S_PER_LPM, device, coeffs)
        rows.append(MeasurementRow(q_in=st.q_in, p_in=st.p_in,
                                   p_out=st.p_out, a_fg=st.a_fg))
    return MeasurementSet(rows=tuple(rows))


def test_fit_closures_zero_residual_on_model_data():
    data = _device_rows(_B, range(2, 31, 4))
    fitted, report = fit_closures(data, _B, max_evals=200)
    assert report.rms_residual["p_out"] == pytest.approx(0.0, abs=1e-9)
    assert fitted.eta == pytest.approx(DEFAULT_COEFFS.eta, rel=1e-6)
    assert fitted.k0 == pytest.approx(DEFAULT_COEFFS.k0, rel=1e-6)
    assert fitted.c_recirc == DEFAULT_COEFFS.c_recirc
    assert report.warnings == ()


def test_fit_closures_trials_keep_every_unfitted_coefficient(monkeypatch):
    # every field away from its default, so a trial built without one
    # (and so at its default) shows
    start = ModelCoefficients(**{
        name: getattr(DEFAULT_COEFFS, name) * 0.9
        for name in ModelCoefficients._fields})
    bound, finished = [], []
    chain = calib._design_chain

    def recording_chain(device, coeffs):
        bound.append(coeffs)
        stage, finish_at = chain(device, coeffs)

        def recording_finish_at(w, t, h, a_ne, eta, k0, p_c):
            finished.append(coeffs._replace(eta=eta, k0=k0, p_c=p_c))
            return finish_at(w, t, h, a_ne, eta, k0, p_c)

        return stage, recording_finish_at

    monkeypatch.setattr(calib, "_design_chain", recording_chain)
    trials = _recording_trials(monkeypatch, bound)
    fitted, _ = fit_closures(_device_rows(_B, (5, 15, 25)), _B, start=start,
                             max_evals=40)
    # the chain and the fit loop are each bound to the start's coefficients
    # once; each evaluation runs the loop, and the final residuals finish
    # their rows
    assert bound == [start, start]
    assert len(trials) == 40
    assert len(finished) == 1
    for trial in trials + finished:
        assert trial == start._replace(eta=trial.eta, k0=trial.k0,
                                       p_c=trial.p_c)
    assert finished[-1] == fitted


def _recording_trials(monkeypatch, bound=None):
    """The trials the fits' loops (``model._fit_misfit``) run after this,
    as their coefficients with ``eta, k0, p_c`` replaced; each loop's
    coefficients are appended to ``bound`` if given."""
    trials = []
    loop = calib._fit_misfit

    def recording_loop(device, coeffs, staged, ps, scale):
        if bound is not None:
            bound.append(coeffs)
        misfit = loop(device, coeffs, staged, ps, scale)

        def recording_misfit(eta, k0, p_c):
            trials.append(coeffs._replace(eta=eta, k0=k0, p_c=p_c))
            return misfit(eta, k0, p_c)

        return recording_misfit

    monkeypatch.setattr(calib, "_fit_misfit", recording_loop)
    return trials


@pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5])
def test_fit_closures_rejects_a_budget_that_is_not_an_integer(monkeypatch,
                                                              budget):
    trials = _recording_trials(monkeypatch)
    with pytest.raises(ValueError, match="^max_evals must be an integer"):
        fit_closures(_device_rows(_B, (5, 15, 25)), _B, max_evals=budget)
    assert trials == []


def test_fit_closures_scores_a_non_finite_trial_inf_unfinished(monkeypatch):
    # an infinite k0 or p_c survives the clip to the box, and so does a
    # nan; the box violation is then nan, which adds no penalty, so only
    # the trial's finiteness check keeps the fit from running its loop
    probes = [[1.0, math.inf, 1.0], [1.0, 1.0, math.inf],
              [math.nan, 1.0, 1.0]]
    scores = []
    kernel = calib.nelder_mead

    def probing_kernel(f, x0, **options):
        for u in probes:
            try:   # scored as the kernel scores a failing evaluation
                scores.append(f(list(u)))
            except ValueError:
                scores.append(math.inf)
        assert trials == []
        return kernel(f, x0, **options)

    trials = _recording_trials(monkeypatch)
    monkeypatch.setattr(calib, "nelder_mead", probing_kernel)
    fit_closures(_device_rows(_B, (5, 15, 25)), _B, max_evals=20)
    assert scores == [math.inf] * 3


def test_fit_closures_requires_output_rows():
    data = builtin_calibration_points()  # supply-side only
    with pytest.raises(FitError):
        fit_closures(data, _B)


def test_fit_closures_warns_on_single_signed_data():
    data = _device_rows(_B, (2, 4, 6, 8, 10))  # blowing branch only
    _, report = fit_closures(data, _B, max_evals=40)
    assert any("sign" in w for w in report.warnings)


def test_fit_closures_rejects_overflowing_p_out():
    # a spread past the float range scores every candidate 0; one lone
    # value whose residual squares past it leaves an infinite rms residual
    for p_outs, match in (((1.0e308, -1.0e308), "p_out measurements"),
                          ((1.0e200,), "p_out residuals")):
        rows = tuple(MeasurementRow(q_in=(5.0 + 10.0 * i) * M3S_PER_LPM,
                                    p_out=p)
                     for i, p in enumerate(p_outs))
        with pytest.raises(FitError, match=match):
            fit_closures(MeasurementSet(rows=rows), _B, max_evals=20)


def test_fit_closures_coefficient_keys():
    data = _device_rows(_B, (5, 15, 25))
    _, report = fit_closures(data, _B, max_evals=40)
    assert set(report.coefficients) == {"eta", "c_recirc", "k0", "p_c"}
