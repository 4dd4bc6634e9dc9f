"""Measurement ingestion and least-squares coefficient fitting.

Two fits are supported.  The supply law ``p_in = c1 q + c2 q^2`` is fit
by normal equations with a nonnegativity clamp (a negative coefficient
of the unconstrained optimum is zeroed and the other refit alone): the
quadratic term captures orifice-like losses, the linear term
open-channel losses, and the model passes through the origin because
gauge pressure vanishes at no flow.

The output-port closure coefficients (entrainment efficiency, gate gain,
cracking pressure) are fit by the derivative-free kernel from the engine
module against measured output pressures.  The recirculation weight is
returned untouched: it acts through the one fixed gate width of the
measured device, so single-device data cannot separate it from the
entrainment efficiency.

Measurement files are CSV with header ``q_in_lpm,p_in_kpa,p_out_kpa,
a_fg_mm2``; optional columns may be empty.  Everything is converted to
SI at the boundary.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import NamedTuple, Sequence

from ._units import AREA, FLOW, PRESSURE
from .core import Device, _Frozen
from .engine import nelder_mead
from .model import (DEFAULT_COEFFS, ModelCoefficients, _Law, _fit_misfit,
                    _point_law, _warn_if_sonic)

__all__ = [
    "FitError",
    "MeasurementRow",
    "MeasurementSet",
    "FitReport",
    "builtin_calibration_points",
    "load_measurements",
    "fit_input_pressure",
    "fit_closures",
]


# measurement CSV columns: MeasurementRow field -> unit (q_in -> q_in_lpm)
_MEASUREMENT_UNITS = {"q_in": FLOW, "p_in": PRESSURE, "p_out": PRESSURE,
                      "a_fg": AREA}


class FitError(RuntimeError):
    """A fit cannot proceed (missing data or a degenerate system)."""


class MeasurementRow(_Frozen):
    """One measured point: the flow ``q_in`` [m^3/s] and, where measured,
    the supply and output gauge pressures ``p_in`` and ``p_out`` [Pa]
    and the gate opening ``a_fg`` [m^2]."""

    __slots__ = _fields = ("q_in", "p_in", "p_out", "a_fg")

    def __init__(self, q_in: float, p_in: float | None = None,
                 p_out: float | None = None,
                 a_fg: float | None = None) -> None:
        self._set(q_in, p_in, p_out, a_fg)
        for name in self._fields:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if q_in < 0.0:
            raise ValueError("q_in must be nonnegative")


class MeasurementSet(_Frozen):
    """Measured points at distinct flows."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[MeasurementRow, ...]) -> None:
        # exact duplicate rows carry no new information: collapse them so
        # fits are invariant to repeated trials being pasted twice
        rows = tuple(dict.fromkeys(rows))
        qs = [r.q_in for r in rows]
        if len(set(qs)) != len(qs):
            raise ValueError("q_in values must be distinct")
        self._set(rows)


class _FitReportFields(NamedTuple):
    coefficients: dict[str, float]
    # root mean square of each quantity's residuals [same unit], derived
    rms_residual: dict[str, float]
    residuals: dict[str, tuple[float, ...]]  # measured minus fitted, per point
    warnings: tuple[str, ...] = ()


class FitReport(_FitReportFields):
    """A fit's coefficients, residuals and warnings.  ``rms_residual`` is
    derived from ``residuals`` on every construction, ``_replace``
    included, and is not a constructor parameter."""

    __slots__ = ()

    def __new__(cls, coefficients: dict[str, float],
                residuals: dict[str, tuple[float, ...]],
                warnings: tuple[str, ...] = ()) -> "FitReport":
        rms: dict[str, float] = {}
        for key, res in residuals.items():
            if not res:
                raise ValueError(f"no residuals recorded for {key}")
            # summed in row order: builtin ``sum`` compensates since
            # Python 3.12, and would change the last digit between versions
            total = 0.0
            for r in res:
                total += r * r
            rms[key] = math.sqrt(total / len(res))
        return super().__new__(cls, coefficients, rms, residuals, warnings)

    def __getnewargs__(self) -> tuple:
        return self.coefficients, self.residuals, self.warnings

    @classmethod
    def _make(cls, iterable) -> "FitReport":
        coefficients, _, residuals, warnings = iterable
        return cls(coefficients, residuals, warnings)


def builtin_calibration_points() -> MeasurementSet:
    """The six published bench measurements of the supply line, SI units."""
    points_lpm_kpa = ((5.0, 5.4), (10.0, 13.5), (15.0, 21.1),
                      (20.0, 32.2), (25.0, 41.1), (30.0, 47.1))
    rows = tuple(MeasurementRow(q_in=FLOW.to_si(q), p_in=PRESSURE.to_si(p))
                 for q, p in points_lpm_kpa)
    return MeasurementSet(rows=rows)


def load_measurements(path: str | Path) -> MeasurementSet:
    """Read a measurement CSV (display units) into an SI MeasurementSet.

    A bad cell, a row with more cells than the header (a decimal comma
    splits one reading in two), a flow given twice with different
    readings, or a row the ``csv`` module rejects raises ``ValueError``
    naming the file and line, and a file that is not UTF-8 one naming
    the file; a row with fewer cells leaves the optional columns empty,
    and an exact repeat of a row collapses into it.  The path is opened as
    given: a trailing slash is not dropped."""
    rows: list[MeasurementRow] = []
    seen: dict[float, tuple[MeasurementRow, int]] = {}   # q_in -> row, line
    q_column = FLOW.key("q_in")
    # decoded whole, so that an error's position counts from the file's
    # start; ``newline=""`` splits lines as ``open(newline="")`` does
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"measurements {path} is not UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None or q_column not in reader.fieldnames:
            raise FitError(f"{path}: missing required column {q_column}")
        for record in reader:
            # ``DictReader`` files the cells past the header under None
            extra = record.get(None)
            if extra is not None:
                raise ValueError(
                    f"measurements {path} line {reader.line_num}: "
                    f"{len(reader.fieldnames) + len(extra)} cells, but the "
                    f"header has {len(reader.fieldnames)}")
            cells = {name: (record.get(unit.key(name)) or "").strip()
                     for name, unit in _MEASUREMENT_UNITS.items()}
            if cells["q_in"]:
                line = reader.line_num
                try:
                    row = MeasurementRow(**{
                        name: _MEASUREMENT_UNITS[name].to_si(float(cell))
                        if cell else None for name, cell in cells.items()})
                except ValueError as exc:
                    raise ValueError(f"measurements {path} line "
                                     f"{line}: {exc}") from exc
                first, first_line = seen.setdefault(row.q_in, (row, line))
                if first != row:
                    raise ValueError(f"measurements {path} lines "
                                     f"{first_line} and {line}: "
                                     "q_in values must be distinct")
                rows.append(row)
    except csv.Error as exc:    # e.g. a cell past ``csv.field_size_limit()``
        # the inner reader's count: ``DictReader`` copies it only after a
        # row is read whole
        raise ValueError(f"measurements {path} line "
                         f"{reader.reader.line_num}: {exc}") from exc
    return MeasurementSet(rows=tuple(rows))


def fit_input_pressure(data: MeasurementSet) -> tuple[tuple[float, float], FitReport]:
    """Fit ``p_in = c1 q + c2 q^2`` with nonnegative coefficients.

    Normal equations first; when the unconstrained optimum has a negative
    coefficient, that coefficient is zero and the other is the clamped
    one-term fit, the nonnegative least-squares answer.  Deterministic.
    """
    rows = [r for r in data.rows if r.p_in is not None]
    if len(rows) < 2:
        raise FitError("need at least 2 rows with p_in to fit the supply law")
    q = [r.q_in for r in rows]
    y = [r.p_in for r in rows]
    q2 = [qi * qi for qi in q]
    # normal equations of the design [q, q^2]; each sum is correctly
    # rounded, so the fit does not depend on the order of the rows
    try:
        a00 = math.fsum(q2)
        a01 = math.fsum(s * qi for s, qi in zip(q2, q))
        a11 = math.fsum(s * s for s in q2)
        b0 = math.fsum(qi * yi for qi, yi in zip(q, y))
        b1 = math.fsum(s * yi for s, yi in zip(q2, y))
    except (OverflowError, ValueError) as exc:  # overflow, or inf - inf
        raise FitError("measurements overflow the normal equations") from exc
    # the two columns are parallel when only one distinct nonzero q exists;
    # the relative determinant is O((dq/q)^2) for informative data, so a
    # 1e-12 floor only rejects genuinely degenerate sets
    det = a00 * a11 - a01 * a01
    if not det > 1.0e-12 * max(a00 * a11, 1.0e-300):
        raise FitError("flow values do not span a quadratic fit "
                       "(need two distinct nonzero q_in)")
    c1 = (b0 * a11 - a01 * b1) / det
    c2 = (a00 * b1 - a01 * b0) / det
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise FitError("measurements overflow the normal equations")
    # the nonnegative optimum zeroes a negative coefficient and refits the
    # other alone, so the fitted curve is monotone on q >= 0.  Which one
    # is negative follows the exact signs of the numerators of the sums
    # (det is positive, by the floor above): rounding is monotone, so it
    # never makes a numerator negative, but it can round a negative one
    # to zero.  ``fractions`` is imported here, not with the module:
    # every CLI call imports this module, and ``fractions`` (with
    # ``decimal``) adds about 2.5 ms
    from fractions import Fraction
    s00, s01, s11, t0, t1 = map(Fraction, (a00, a01, a11, b0, b1))
    if t0 * s11 < s01 * t1:
        c1, c2 = 0.0, max(0.0, b1 / a11)
    elif s00 * t1 < s01 * t0:
        c1, c2 = max(0.0, b0 / a00), 0.0
    residuals = tuple(yi - (c1 * qi + c2 * qi * qi) for qi, yi in zip(q, y))
    report = FitReport(coefficients={"c1": c1, "c2": c2},
                       residuals={"p_in": residuals})
    return (c1, c2), report


def _spread(values: Sequence[float]) -> float:
    """Population standard deviation of ``values`` from correctly rounded
    sums, so it does not depend on their order (``inf`` when a sum leaves
    the float range)."""
    try:
        mean = math.fsum(values) / len(values)
        return math.sqrt(math.fsum((v - mean) * (v - mean) for v in values)
                         / len(values))
    except OverflowError:
        return math.inf


def _misfit(qs: Sequence[float], ps: Sequence[float], scale: float,
            law: _Law) -> float:
    """Sum over the flows ``qs`` of ``((p_out - p_ref) / scale)^2``, with
    ``p_out`` from the point law ``law`` and ``p_ref`` from ``ps``.  The
    fit's trials run ``model._fit_misfit``, which gives this sum's bits."""
    total = 0.0
    for q, p_ref in zip(qs, ps):
        miss = (law(q)[3] - p_ref) / scale
        total += miss * miss
    return total


def fit_closures(data: MeasurementSet, device: Device, *,
                 start: ModelCoefficients = DEFAULT_COEFFS,
                 max_evals: int = 400) -> tuple[ModelCoefficients, FitReport]:
    """Fit (eta, k0, p_c) to measured output pressures on one device.

    Minimizes the squared p_out residual over the measured flows with the
    engine's derivative-free kernel, searching multiplicative factors on
    the starting values (seed simplex fixed by ``start``, so the fit is
    deterministic) until the simplex diameter falls below 1e-9 or
    ``max_evals`` is spent.  ``c_recirc`` is reported unchanged: see the
    module docstring for why this data cannot move it.
    """
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

    # the fit holds c1, c2 and the device fixed: each trial runs the
    # model's fit loop, which stages the measured flows once, at the first
    # trial whose terms pass; the final residuals come from the device's
    # law at the fitted coefficients
    misfit = _fit_misfit(device, start, qs, ps, scale)

    def objective(u: list[float]) -> float:
        params, clipped = clamp(u)
        # a nan, or an infinite k0 or p_c, survives the clip with a nan box
        # violation, which adds no penalty: only this check rejects it
        if not all(map(math.isfinite, clipped)):
            return math.inf
        violation = 0.0
        for p, c, r in zip(params, clipped, ref):
            d = (p - c) / r
            violation += d * d
        penalty = 1.0e9 * (1.0 + violation) if violation > 0.0 else 0.0
        return misfit(*clipped) + penalty

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
