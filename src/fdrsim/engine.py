"""Coupled operating points, ramp sweeps, design comparison, optimization.

One operating point is the closed-form chain of ``model``: supply law,
junction pressure, gate opening, jet closure.  The chain is computed in
``model`` alone, on plain Python floats.  Its point law, built once per
device and coefficient set, is the finish (``model._finish``) of a
flow's stage and the device's terms; it runs for one point and every
sweep row.  A design search's binding composes the same three pieces
from one ``model._design_terms`` call per template: each candidate
builds its terms, and each row it reads is the finish of a stored stage
and those terms, the switching objective's grid and refining rows and
the suction and blowing objectives' one row alike.  The stage depends
on the template and ``c1``, ``c2`` alone, so an objective that returns
to the same flows computes each one's stage once per search.  A binding
takes each chain value from ``model`` whole, the switching guard's
blowing bound and the jet velocity of the sonic check included, and
computes none itself.  No module imports numpy: the fits in ``calib``
run on plain floats as well.

Ramps are quasi-static: each grid point is an independent steady state,
so sweeping up and sweeping down give pointwise identical results.  A
sweep reports the switching point, where the output pressure crosses
zero (blowing to suction), refined by bisection between the bracketing
grid points.  One scan finds that bracket for a sweep and for the
optimizer's switching objective alike.  The objective does not compute
the whole grid: the scan reads the rows only up to the first bracket.
Rows it skips cannot move the answer, and they are skipped only when
``model._no_row_fails`` shows that none of them could fail, so a
candidate scores exactly what its sweep reports, failure included.  The
top row that check reads is stored for the scan.  When the device's
junction cannot reclose the gate (``a_in <= 2 a_branch``), the signs
along its grid run blowing, then suction, and within a search each
candidate's scan starts at the last candidate's bracket; a binding
stages each flow once, when a row is first read there.

Geometry exploration uses a small deterministic Nelder-Mead kernel
(reflection 1, expansion 2, contraction 0.5, shrink 0.5) over a box on
(w, t, h, a_ne), with out-of-box candidates evaluated at their clipped
projection plus a dominating penalty.  The kernel and the box mapping
work on plain Python floats too.  The kernel keeps its simplex in
stable order by inserting each new point, and sorts in full only the
initial simplex and after a shrink.  The search binds the engine's
objectives to its template once: what the template fixes is built and
checked then, and each candidate pays only for its four dimensions'
terms and the rest of the rows it reads, with no device built.  A bound
objective warns of a sonic jet once per search, at the first candidate
whose jet is sonic.  Any other objective callable is scored on the
template's ``with_gate`` copy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import add, index
from typing import Callable, Mapping, NamedTuple, Sequence

from ._units import M3S_PER_LPM
from .core import Device, catalog_device, validate_geometry, with_gate
from .model import (DEFAULT_COEFFS, ModelCoefficients, _Law, _Point, _Stage,
                    _design_terms, _finish, _no_row_fails, _point_law,
                    _warn_if_jet_sonic, _warn_if_sonic, input_pressure)

__all__ = [
    "MODE_BLOWING",
    "MODE_SUCTION",
    "MODE_NEUTRAL",
    "MODE_DEADBAND",
    "DEFAULT_Q_END",
    "DEFAULT_Q_STEP",
    "MAX_GRID_POINTS",
    "OperatingState",
    "SweepResult",
    "SweepError",
    "solve_operating_point",
    "sweep",
    "compare_designs",
    "design_orderings",
    "nelder_mead",
    "OptimizationResult",
    "optimize_geometry",
    "switching_objective",
    "suction_objective",
    "blowing_objective",
]

MODE_BLOWING = "blowing"
MODE_SUCTION = "suction"
MODE_NEUTRAL = "neutral"
MODE_DEADBAND = 1.0     # [Pa] band around zero treated as neither mode

DEFAULT_Q_END = 30.0 * M3S_PER_LPM   # canonical ramp top [m^3/s]
DEFAULT_Q_STEP = 0.1 * M3S_PER_LPM   # canonical ramp step [m^3/s]
MAX_GRID_POINTS = 1_000_000          # largest sweep grid accepted


class SweepError(RuntimeError):
    """A grid point inside a sweep failed; carries the offending q_in."""

    def __init__(self, message: str, q_in: float):
        super().__init__(message)
        self.q_in = q_in


class OperatingState(NamedTuple):
    q_in: float       # commanded supply flow [m^3/s]
    p_in: float       # supply gauge pressure [Pa]
    p_chamber: float  # chamber (junction) gauge pressure [Pa]
    a_fg: float       # gate opening area [m^2]
    p_out: float      # output-port gauge pressure [Pa], positive blows

    @property
    def mode(self) -> str:
        """blowing | suction | neutral, from ``p_out`` and the deadband."""
        if self.p_out > MODE_DEADBAND:
            return MODE_BLOWING
        if self.p_out < -MODE_DEADBAND:
            return MODE_SUCTION
        return MODE_NEUTRAL


class _SweepFields(NamedTuple):
    states: tuple[OperatingState, ...]   # ordered by q_in, strictly increasing
    switching_q: float | None            # [m^3/s], present iff p_out changes sign
    switching_p_in: float | None         # [Pa], supply pressure at switching_q
    max_blow: float                      # largest p_out on the grid [Pa]
    max_suck: float                      # largest -p_out on the grid [Pa]


class SweepResult(_SweepFields):
    """A sweep's states and summary; every construction, ``_replace``
    included, checks that the states are strictly ordered by ``q_in``
    and that the switching fields are present together."""

    __slots__ = ()

    def __new__(cls, states: tuple[OperatingState, ...],
                switching_q: float | None, switching_p_in: float | None,
                max_blow: float, max_suck: float) -> "SweepResult":
        for a, b in zip(states, states[1:]):
            if not a.q_in < b.q_in:
                raise ValueError("states must be strictly ordered by q_in")
        if (switching_q is None) != (switching_p_in is None):
            raise ValueError("switching fields must be present together")
        return super().__new__(cls, states, switching_q, switching_p_in,
                               max_blow, max_suck)

    @classmethod
    def _make(cls, iterable) -> "SweepResult":
        return cls(*iterable)


def solve_operating_point(q_in: float, device: Device,
                          coeffs: ModelCoefficients = DEFAULT_COEFFS) -> OperatingState:
    """Steady state of the whole device at one commanded flow.

    Supply pressure -> chamber pressure -> gate opening -> output-port
    pressure, each evaluated once.  A gate shut below the cracking
    pressure blocks the air, so the device blows (``p_out = p_blow``).
    A flow so large that a pressure overflows to a non-finite value
    raises ``ValueError``.
    """
    state = OperatingState(q_in, *_point_law(device, coeffs)(q_in))
    _warn_if_sonic(q_in, device)
    return state


def _grid(q_start: float, q_end: float, step: float) -> list[float]:
    """The inclusive grid ``q_start + i * step`` up to ``q_end``.

    All three must be finite, the grid must start at a nonnegative flow,
    the step must divide the range (to 1e-9 relative), so the last point
    is ``q_end`` up to rounding, and the grid may hold at most
    ``MAX_GRID_POINTS`` points; all are checked before any allocation.
    """
    for name, value in (("q_start", q_start), ("q_end", q_end), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not q_start >= 0.0:
        raise ValueError("q_start must be nonnegative")
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not q_start < q_end:
        raise ValueError("q_start must be less than q_end")
    span = q_end - q_start
    count = span / step
    # n + 1 points with n = round(count); also rejects an infinite count
    if not count < MAX_GRID_POINTS - 0.5:
        raise ValueError(f"grid exceeds {MAX_GRID_POINTS} points")
    n = round(count)
    if n < 1:
        raise ValueError("step larger than the sweep range")
    if abs(n * step - span) > 1.0e-9 * span:
        raise ValueError("step must divide the sweep range")
    return [q_start + i * step for i in range(n + 1)]


def _ramp(law: _Law, qs: Sequence[float]) -> list[_Point]:
    """The law at every flow of a sweep grid; the first flow without a
    steady state raises :class:`SweepError`."""
    rows = []
    for q in qs:
        try:
            rows.append(law(q))
        except ValueError as exc:
            raise _sweep_error(q, exc) from exc
    return rows


def _sweep_error(q_in: float, exc: ValueError) -> SweepError:
    """The error of a sweep whose first failing row, at ``q_in``, raised
    ``exc``."""
    return SweepError(f"sweep failed at q_in={q_in:.9g} m^3/s: {exc}",
                      q_in=q_in)


def _refine_switching(law: _Law, q_lo: float, q_hi: float, p_lo: float
                      ) -> float:
    """Bisect a sign-change bracket until |p_out| < the mode deadband."""
    lo, hi = q_lo, q_hi
    sign_lo = math.copysign(1.0, p_lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p_mid = law(mid)[3]
        if abs(p_mid) < MODE_DEADBAND or hi - lo < 1.0e-18:
            return mid
        if math.copysign(1.0, p_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _switching_q(qs: Sequence[float], p_outs: Sequence[float | None],
                 law: _Law, start: int = 0) -> tuple[int, float] | None:
    """The first sign change of ``p_out`` along the grid (exact zeros
    skipped): the row where the sign changes and the flow that
    :func:`_refine_switching` finds between that row and the last
    nonzero row below it; ``None`` if the sign never changes.

    ``p_outs`` holds the rows' ``p_out``, ``None`` for a row not yet
    read (a list, then); each row the search needs is read once, through
    ``law`` at its grid flow, and stored there.  From row ``start``, the
    search walks down while the rows are not positive, then scans up to
    the first change; it reads no row above that change.

    From row 0 this is a plain scan, which holds for any sign pattern.
    A ``start`` above 0 is allowed only when the signs run nonnegative,
    then negative.  Then the walk stops at a positive row below the
    first negative one, or at row 0, so the scan meets the bracket a
    scan from row 0 meets, with the same bits.  Started at its own
    answer, it reads that row, the last positive row below it and the
    exact zeros between them.

    That order holds on the grid 0, 1, .., 30 L/min whenever ``a_in <= 2
    a_branch``, so that the junction factor ``split`` is at least 0 and
    the chamber pressure, and with it the open fraction ``s``, never
    falls as the flow grows.  A row below the cracking pressure has ``s =
    0`` and ``p_out = p_blow >= 0``.  Above it, ``p_out = q^2 ((1-s)^3 A
    - s min(1, s r) B)`` with ``A = rho/2 / (cd_out a_out)^2``, ``B = eta
    rho/2 / (n_nozzles a_ne)^2 penalty(w)`` and ``r = a_fg_max / a_ex``,
    so its sign falls strictly in ``s``; on a 1 L/min grid adjacent open
    rows differ in ``ln s`` by at least ``ln(30/29)``, about 3.4%, far
    above the rounding of either term.  A saturated gate gives ``1 - s =
    0`` exactly, so ``p_out = -p_suck <= 0``.  A reclosing junction
    (``split < 0``) can turn the signs back, and a user's grid can be
    fine enough to void the margin: those start at row 0.
    """
    i = start
    while i > 0:
        p_out = p_outs[i]
        if p_out is None:
            p_out = p_outs[i] = law(qs[i])[3]
        if p_out > 0.0:
            break
        i -= 1
    last = -1
    last_p = 0.0   # the p_out of row ``last``, the last row not 0, if any
    for i in range(i, len(qs)):
        p_out = p_outs[i]
        if p_out is None:
            p_out = p_outs[i] = law(qs[i])[3]
        if p_out != 0.0:
            if last_p != 0.0 and (p_out < 0.0) != (last_p < 0.0):
                return i, _refine_switching(law, qs[last], qs[i], last_p)
            last, last_p = i, p_out
    return None


def sweep(device: Device, coeffs: ModelCoefficients = DEFAULT_COEFFS,
          q_start: float = 0.0, q_end: float = DEFAULT_Q_END,
          step: float = DEFAULT_Q_STEP) -> SweepResult:
    """Quasi-static ramp over the inclusive grid q_start, +step, .., q_end.

    The step must divide the range and the grid may hold at most
    ``MAX_GRID_POINTS`` points (``ValueError`` otherwise).  Each point is
    an independent steady state, equal to ``solve_operating_point`` at
    its flow; the first point without one raises :class:`SweepError`.
    """
    qs = _grid(q_start, q_end, step)
    law = _point_law(device, coeffs)
    # the rows' columns; ``map`` builds each state from them, calling the
    # class from C, without a generator frame and an unpacked call per row
    p_ins, p_chambers, a_fgs, p_outs = zip(*_ramp(law, qs))
    states = tuple(map(OperatingState, qs, p_ins, p_chambers, a_fgs, p_outs))
    _warn_if_sonic(qs[-1], device)
    switching = _switching_q(qs, p_outs, law)
    switching_q = switching_p_in = None
    if switching is not None:
        switching_q = switching[1]
        switching_p_in = input_pressure(switching_q, coeffs)
    # 0.0 - x, not -x: a grid whose least p_out is 0 sucks +0, not -0
    return SweepResult(states=states, switching_q=switching_q,
                       switching_p_in=switching_p_in,
                       max_blow=max(p_outs), max_suck=0.0 - min(p_outs))


def compare_designs(type_ids: Sequence[str],
                    coeffs: ModelCoefficients = DEFAULT_COEFFS, *,
                    q_start: float = 0.0, q_end: float = DEFAULT_Q_END,
                    step: float = DEFAULT_Q_STEP) -> dict[str, SweepResult]:
    """One sweep per catalog type under a single shared coefficient set.

    Type ids match case-insensitively; one named twice raises
    ``ValueError``, since the table holds one row per type."""
    if not type_ids:
        raise ValueError("type_ids must be non-empty")
    devices = [catalog_device(tid) for tid in type_ids]
    ids = [device.type_id for device in devices]
    repeated = sorted({tid for tid in ids if ids.count(tid) > 1})
    if repeated:
        raise ValueError(f"repeated type ids: {', '.join(repeated)}")
    return {device.type_id: sweep(device, coeffs, q_start, q_end, step)
            for device in devices}


def design_orderings(table: Mapping[str, SweepResult]) -> dict[str, tuple[str, ...]]:
    """Type ids ranked high-to-low by switching pressure, blow, and suck.

    Types that never switch rank last in the switching order; ties keep
    the table's own order.
    """
    ids = list(table)

    def ranked(key: Callable[[SweepResult], float]) -> tuple[str, ...]:
        return tuple(sorted(ids, key=lambda t: -key(table[t])))

    return {
        "switching_p_in": ranked(
            lambda r: r.switching_p_in if r.switching_p_in is not None
            else -math.inf),
        "max_blow": ranked(lambda r: r.max_blow),
        "max_suck": ranked(lambda r: r.max_suck),
    }


# --- derivative-free kernel -------------------------------------------------

def _collapsed(pts: list[list[float]], tol: float) -> bool:
    """Whether ``max(max(abs(a - b) for a, b in zip(p, pts[0])) for p in
    pts[1:]) < tol``, returned at the first distance that decides it;
    ``0.0 < tol`` for the one point of an empty ``x0``.

    Each ``max`` starts from its first distance and takes a later one
    only when that compares greater, so a nan first distance sticks (not
    collapsed), a later point whose first-coordinate distance is nan is
    skipped, and any later nan distance is passed over; every other
    distance must fall below ``tol``.
    """
    best = pts[0]
    if len(pts) == 1:
        return 0.0 < tol
    b0 = best[0]
    first = abs(pts[1][0] - b0)
    if not first < tol:   # nan or too far
        return False
    for p in pts[1:]:
        d = abs(p[0] - b0)
        if d != d:   # nan: max of max skips this point
            continue
        if d >= tol:
            return False
        for a, b in zip(p, best):
            if abs(a - b) >= tol:
                return False
    return True


def _stable_sorted(pts: list[list[float]], vals: list[float]
                   ) -> tuple[list[list[float]], list[float]]:
    """``pts`` and ``vals`` in the stable ascending order of ``vals``."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [pts[i] for i in order], [vals[i] for i in order]


def nelder_mead(f: Callable[[list[float]], float], x0: Sequence[float], *,
                max_evals: int = 400,
                diam_tol: float = 1.0e-6) -> tuple[list[float], float, int]:
    """Minimize ``f`` from ``x0`` with a fixed-coefficient Nelder-Mead.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  The initial
    simplex offsets each coordinate by 0.1 (flipped downward when that
    would leave the unit box); an empty ``x0`` is a one-point simplex.
    Stops when the simplex diameter (the largest coordinate distance
    from the best point) falls below ``diam_tol`` or the evaluation
    budget is spent; the budget is strict and never overrun.  The stop
    test gives the diameter check's verdict without computing the
    diameter: it returns at the first distance that decides it.
    ``f`` receives a list of floats; returns (best x as a list of floats,
    best f, evals).  Deterministic for identical inputs; evaluation
    failures and nan values count as +infinity, except a ``Warning``
    raised under an ``error`` filter, which propagates.

    ``diam_tol`` must not be nan (``ValueError``): the simplex could
    never converge, and the search would spend its whole budget.
    ``max_evals`` must be an integer (``ValueError``): a nan budget ends
    the search after the initial simplex, an infinite one may never end.

    Plain Python floats throughout, no numpy: the simplex is kept in the
    stable ascending order of its values, and the centroid is the
    sequential sum of the points (a point at a time, by
    ``map(operator.add, ...)``) divided by their count, so each step
    rounds exactly as the kernel on numpy arrays
    (``argsort(kind="stable")`` every step, axis-0 ``mean``) does;
    ``tests/test_nelder_mead_parity.py`` compares the two.  The order is
    sorted in full only for the initial simplex and after a shrink.  A
    step that replaces only the worst point inserts the new one at
    ``bisect_right`` over the other values: after every value it ties,
    which is where the stable sort puts the point of the last index, as
    no value is nan.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    if not all(map(math.isfinite, x0)):
        raise ValueError("x0 must be finite")
    if math.isnan(diam_tol):
        raise ValueError("diam_tol must not be nan")
    try:
        max_evals = index(max_evals)
    except TypeError:
        raise ValueError(f"max_evals must be an integer, got {max_evals!r}"
                         ) from None
    if max_evals < n + 1:
        raise ValueError("max_evals too small for the initial simplex")

    evals = 0

    def guarded(x: list[float]) -> float:
        """``f(x)`` as a float, with a failing evaluation or a nan scored
        +infinity; a ``Warning`` raised under an ``error`` filter
        propagates."""
        nonlocal evals
        evals += 1
        try:
            y = float(f(x))
        except Warning:   # a warning the caller's filter made an error
            raise
        except Exception:
            return math.inf
        return y if not math.isnan(y) else math.inf

    pts = [x0]
    for i in range(n):
        v = list(x0)
        v[i] = v[i] + 0.1 if v[i] + 0.1 <= 1.0 else v[i] - 0.1
        pts.append(v)
    vals = [guarded(p) for p in pts]
    pts, vals = _stable_sorted(pts, vals)

    while evals < max_evals:
        if _collapsed(pts, diam_tol):
            break
        best = pts[0]
        total = best
        for p in pts[1:n]:
            total = list(map(add, total, p))
        centroid = [t / n for t in total]
        worst = pts[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        f_r = guarded(reflected)
        if f_r < vals[0] and evals < max_evals:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_e = guarded(expanded)
            if f_e < f_r:
                new, f_new = expanded, f_e
            else:
                new, f_new = reflected, f_r
        elif f_r < vals[-2]:
            new, f_new = reflected, f_r
        else:
            if evals >= max_evals:
                break
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            f_c = guarded(contracted)
            if f_c < vals[-1]:
                new, f_new = contracted, f_c
            else:
                for i in range(1, n + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = [b + 0.5 * (a - b) for a, b in zip(pts[i], best)]
                    vals[i] = guarded(pts[i])
                pts, vals = _stable_sorted(pts, vals)
                continue
        # the new point replaces the worst, the last of the stable order;
        # it goes after every other value it ties, where the stable sort
        # would put the point of the last index (no value is nan)
        del pts[-1], vals[-1]
        i = bisect_right(vals, f_new)
        pts.insert(i, new)
        vals.insert(i, f_new)

    i = min(range(n + 1), key=vals.__getitem__)   # first of the stable order
    return list(pts[i]), vals[i], evals


# --- geometry optimization ---------------------------------------------------

# optimizable dimensions; the CLI has a ``--bounds-<key>-<unit>`` flag for each
_DESIGN_KEYS = ("w", "t", "h", "a_ne")


class OptimizationResult(NamedTuple):
    device: Device              # best candidate found
    params: dict[str, float]    # its (w, t, h, a_ne) in SI units
    value: float                # objective at the best candidate
    evaluations: int
    converged: bool             # simplex collapsed before the budget ran out


def optimize_geometry(objective: Callable[[Device], float],
                      bounds: Mapping[str, tuple[float, float]],
                      device: Device, *,
                      start: Mapping[str, float] | None = None,
                      max_evals: int = 400) -> OptimizationResult:
    """Search gate/nozzle dimensions minimizing ``objective(candidate)``.

    ``bounds`` maps any of ``w, t, h, a_ne`` (SI) to a (lo, hi) box;
    omitted keys stay frozen at the template device's value, and a key
    with lo == hi is likewise frozen; a box of frozen keys alone is
    searched like any box, from a one-point simplex.  The search runs in
    box-normalized coordinates; candidates outside the box are evaluated
    at their clipped projection plus a penalty that dominates any in-box
    value.
    ``start`` optionally seeds the search (defaults to the box center);
    it must map every free key to a number inside its bounds, and keys
    that are frozen are ignored.
    A box whose thickest, narrowest and lowest gate fails
    ``validate_geometry`` raises ``ValueError`` before any evaluation.
    A failing objective evaluation or a nan value counts as +infinity,
    not an error, except a ``Warning`` raised under an ``error`` filter.
    The engine's own objectives score each candidate bound to the
    template, with no device built; any other callable gets the
    candidate's ``with_gate`` copy of the template.
    The search stops when the simplex diameter in box coordinates falls
    below 1e-6 or ``max_evals`` is spent.
    """
    unknown = set(bounds) - set(_DESIGN_KEYS)
    if unknown:
        raise ValueError(f"unknown bound keys: {sorted(unknown)}")
    base = {
        "w": device.geometry.gate.w,
        "t": device.geometry.gate.t,
        "h": device.geometry.gate.h,
        "a_ne": device.geometry.a_ne,
    }
    lows: dict[str, float] = {}
    widths: dict[str, float] = {}
    for key in _DESIGN_KEYS:
        lo, hi = bounds.get(key, (base[key], base[key]))
        if not (0.0 < lo and hi < math.inf):
            raise ValueError(f"bounds for {key} must be positive and finite")
        if not lo <= hi:
            raise ValueError(f"bounds for {key} must satisfy lo <= hi")
        lows[key] = lo
        widths[key] = hi - lo
    free = [k for k in _DESIGN_KEYS if widths[k] > 0.0]
    # t < w and t < h bind hardest at the box corner with the largest t
    corner = with_gate(device, **{**lows, "t": lows["t"] + widths["t"]})
    violations = validate_geometry(corner.geometry)
    if violations:
        raise ValueError("bounds admit an invalid geometry: "
                         + "; ".join(violations))
    if isinstance(objective, _DesignObjective):
        score = objective.bind(device)
    else:
        def score(w: float, t: float, h: float, a_ne: float) -> float:
            return objective(with_gate(device, w=w, t=t, h=h, a_ne=a_ne))

    # each free key's (position in _DESIGN_KEYS, lo, width)
    scales = [(_DESIGN_KEYS.index(k), lows[k], widths[k]) for k in free]
    low_values = list(lows.values())

    def value_at(x: list[float]) -> float:
        # the (w, t, h, a_ne) at ``x``, clipped to the box, and the
        # squared distance outside it, summed in coordinate order;
        # ``outside`` is kept apart because a tiny excess squares to 0.
        # A coordinate is over or under the box, not both, and the other
        # side's 0.0 would add nothing, so each adds one square.
        p = list(low_values)
        excess = 0.0
        outside = False
        for xi, (i, lo, width) in zip(x, scales):
            if xi > 1.0:
                outside = True
                over = xi - 1.0
                excess += over * over
                xi = 1.0
            elif xi < 0.0:
                outside = True
                under = -xi
                excess += under * under
                xi = 0.0
            p[i] = lo + xi * width
        penalty = 1.0e9 * (1.0 + excess) if outside else 0.0
        return score(*p) + penalty

    if start is None:
        x0 = [0.5] * len(free)
    else:
        x0 = []
        for k in free:
            if k not in start:
                raise ValueError(f"start must give a value for {k}")
            try:
                value = float(start[k])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"start value for {k} must be a number, "
                                 f"got {start[k]!r}") from exc
            x0.append((value - lows[k]) / widths[k])
        if not all(0.0 <= xi <= 1.0 for xi in x0):
            raise ValueError("start must lie inside the bounds")

    best_x, best_f, evals = nelder_mead(value_at, x0, max_evals=max_evals,
                                        diam_tol=1.0e-6)
    params = dict(zip(_DESIGN_KEYS, low_values))
    for xi, (i, lo, width) in zip(best_x, scales):
        params[_DESIGN_KEYS[i]] = lo + min(max(xi, 0.0), 1.0) * width
    return OptimizationResult(device=with_gate(device, **params),
                              params=params, value=best_f,
                              evaluations=evals,
                              converged=evals < max_evals)


_NO_SWITCHING_VALUE = 1.0e6


class _DesignObjective:
    """An objective on a candidate device, ``Callable[[Device], float]``,
    that a design search binds to its template once.

    ``bind(template)`` returns ``score(w, t, h, a_ne)``: the objective at
    ``with_gate(template, w=w, t=t, h=h, a_ne=a_ne)``, the same bits and
    the same exception, without building that device.  A binding warns
    once: its first candidate whose jet is sonic warns as the device's
    objective does, or raises under an ``error`` filter, and the later
    ones are silent.  Called on a device, the objective is its own bound
    form at the device's dimensions.
    """

    def __init__(self, bind: Callable[[Device], Callable[..., float]]):
        self.bind = bind

    def __call__(self, candidate: Device) -> float:
        g = candidate.geometry
        return self.bind(candidate)(g.gate.w, g.gate.t, g.gate.h, g.a_ne)


def switching_objective(coeffs: ModelCoefficients, *,
                        target_p_in: float | None = None
                        ) -> Callable[[Device], float]:
    """Objective on the switching supply pressure: its squared mismatch to
    ``target_p_in`` [Pa], or the pressure itself (to be minimized) when no
    target is given.  Candidates that never switch score a large flat
    value.

    The value is the one ``sweep`` reports over the grid 0, 1, .., 30
    L/min, found without building its states.

    The bracket of the first sign change is found by
    :func:`_switching_q`, which reads the rows only up to it.  Rows left
    unread cannot move the bracket or its bisection, only fail, as
    ``sweep`` would with :class:`SweepError`.  Unless
    ``model._no_row_fails`` proves that no flow up to the grid's top
    fails, every row runs first, so the first failing one raises that
    error before the search; the scan never reads the top row again.
    The junction's side and the guard's blowing bound depend on the
    template alone, and are worked out once per binding.

    A binding keeps what its candidates found.  When ``a_in <= 2
    a_branch``, so the junction cannot reclose the gate and the signs
    run blowing, then suction, a candidate whose top row is not negative
    never switches, and each later candidate's scan starts at the last
    candidate's bracket, which it mostly shares: it reads two rows where
    a scan from row 0 reads about fifteen.  A reclosing junction's
    candidates scan from row 0.  A binding stages each flow once, when a
    row is first read there, so each candidate finishes the rows it
    reads, grid and refining points alike, from stored stages.
    """
    if target_p_in is not None and not math.isfinite(target_p_in):
        raise ValueError("target_p_in must be finite")
    qs = _grid(0.0, DEFAULT_Q_END, 1.0 * M3S_PER_LPM)
    q_top = qs[-1]
    unread = (None,) * (len(qs) - 1)   # the rows below the top, unread

    def bind(template: Device) -> Callable[..., float]:
        stage, terms_at = _design_terms(template, coeffs)
        finish = _finish
        eta, k0, crack = coeffs.eta, coeffs.k0, coeffs.p_c
        g = template.geometry
        n_nozzles = g.n_nozzles
        guard = _no_row_fails(template, coeffs, q_top)
        monotone = g.a_in <= 2.0 * g.a_branch
        # the stages of the flows the binding's candidates have read, by
        # flow: a stage is computed after a candidate's terms pass, so a
        # failing term is still raised before a failing stage
        stages: dict[float, _Stage] = {}
        # the row of the last candidate's sign change, where the next
        # candidate's scan starts when the junction cannot reclose the gate
        bracket = 0
        warned = False

        def score(w: float, t: float, h: float, a_ne: float) -> float:
            nonlocal bracket, warned
            try:
                terms = terms_at(w, t, h, a_ne, eta, k0, crack)
            except ValueError as exc:   # a bad term fails every row
                raise _sweep_error(qs[0], exc) from exc

            def row(q_in: float) -> _Point:
                try:
                    flow = stages[q_in]
                except KeyError:
                    flow = stages[q_in] = stage(q_in)
                return finish(flow, terms)

            top = guard(row)
            if top is None:   # every row, so the first failing one raises
                top = _ramp(row, qs)[-1]
            if not warned:
                warned = _warn_if_jet_sonic(q_top, n_nozzles, a_ne)
            if monotone and not top[3] < 0.0:   # no row is negative
                return _NO_SWITCHING_VALUE
            switching = _switching_q(qs, [*unread, top[3]], row,
                                     bracket if monotone else 0)
            if switching is None:
                return _NO_SWITCHING_VALUE
            bracket, switching_q = switching
            switching_p_in = input_pressure(switching_q, coeffs)
            if target_p_in is None:
                return switching_p_in
            miss = (switching_p_in - target_p_in) / max(abs(target_p_in), 1.0)
            return miss * miss

        return score

    return _DesignObjective(bind)


def _port_objective(coeffs: ModelCoefficients, q_star: float,
                    blowing: bool) -> Callable[[Device], float]:
    """p_out at ``q_star`` (negated when ``blowing``), to be minimized.

    A binding stages ``q_star`` once, at its first candidate whose terms
    pass, so a failing term is still raised before a failing stage; each
    candidate then pays for its terms and the finish of that one row.
    """
    if not 0.0 <= q_star < math.inf:
        raise ValueError("q_star must be nonnegative and finite")

    def bind(template: Device) -> Callable[..., float]:
        stage, terms_at = _design_terms(template, coeffs)
        finish = _finish
        eta, k0, crack = coeffs.eta, coeffs.k0, coeffs.p_c
        n_nozzles = template.geometry.n_nozzles
        star: _Stage | None = None
        warned = False

        def score(w: float, t: float, h: float, a_ne: float) -> float:
            nonlocal star, warned
            terms = terms_at(w, t, h, a_ne, eta, k0, crack)
            if star is None:
                star = stage(q_star)
            p_out = finish(star, terms)[3]
            if not warned:   # a candidate whose terms pass has nozzles
                warned = _warn_if_jet_sonic(q_star, n_nozzles, a_ne)
            return -p_out if blowing else p_out

        return score

    return _DesignObjective(bind)


def suction_objective(coeffs: ModelCoefficients,
                      q_star: float) -> Callable[[Device], float]:
    """Maximize suction at ``q_star``: minimizes p_out (most negative wins).
    A binding computes the flow stage at ``q_star`` once."""
    return _port_objective(coeffs, q_star, False)


def blowing_objective(coeffs: ModelCoefficients,
                      q_star: float) -> Callable[[Device], float]:
    """Maximize blowing at ``q_star``: minimizes the negated p_out."""
    return _port_objective(coeffs, q_star, True)
