"""The design search returns what it returned before its per-candidate
cost was cut, bit for bit.

The functions below are the search as it was before: ``with_gate`` on
``_replace`` (``dataclasses.replace`` then), ``optimize_geometry`` with
its dict-merging box map, the suction and blowing objectives through
``solve_operating_point``, and the float Nelder-Mead kernel with its
``max`` of ``max`` diameter and sliced centroid, each copied unchanged.
On random templates, boxes, budgets and objectives, both searches must
return the same device, parameters, value, evaluation count and
convergence flag, compared as float bits.  The search before warned at
each candidate whose jet is sonic; the search now warns once, with the
same category and message.
"""

import math
import warnings
from typing import Callable, Mapping, Sequence

from hypothesis import example, given, settings, strategies as st

from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    Device,
    DeviceGeometry,
    FlapGateGeometry,
    Material,
    OptimizationResult,
    blowing_objective,
    catalog_device,
    optimize_geometry,
    solve_operating_point,
    suction_objective,
    switching_objective,
    validate_geometry,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.engine import _collapsed

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


# --- the search before, copied unchanged -------------------------------------

def old_with_gate(device: Device, *, w: float | None = None,
                  t: float | None = None, h: float | None = None,
                  a_ne: float | None = None) -> Device:
    """Copy of ``device`` with selected gate/nozzle dimensions replaced."""
    gate = device.geometry.gate
    new_gate = FlapGateGeometry(
        w=gate.w if w is None else w,
        t=gate.t if t is None else t,
        h=gate.h if h is None else h,
    )
    geometry = device.geometry._replace(
        gate=new_gate, a_ne=device.geometry.a_ne if a_ne is None else a_ne)
    return device._replace(geometry=geometry, type_id=None)


def old_nelder_mead(f: Callable[[list[float]], float], x0: Sequence[float], *,
                    step: float = 0.1, max_evals: int = 400,
                    diam_tol: float = 1.0e-6
                    ) -> tuple[list[float], float, int]:
    x0 = [float(v) for v in x0]
    n = len(x0)
    if n == 0:
        raise ValueError("x0 must have at least one coordinate")
    if not all(map(math.isfinite, x0)):
        raise ValueError("x0 must be finite")
    if max_evals < n + 1:
        raise ValueError("max_evals too small for the initial simplex")

    evals = 0

    def guarded(x: list[float]) -> float:
        nonlocal evals
        evals += 1
        try:
            y = float(f(x))
        except Exception:
            return math.inf
        return y if not math.isnan(y) else math.inf

    pts = [x0]
    for i in range(n):
        v = list(x0)
        v[i] = v[i] + step if v[i] + step <= 1.0 else v[i] - step
        pts.append(v)
    vals = [guarded(p) for p in pts]

    while evals < max_evals:
        order = sorted(range(n + 1), key=vals.__getitem__)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        diam = max(max(abs(a - b) for a, b in zip(p, best))
                   for p in pts[1:])
        if diam < diam_tol:
            break
        centroid = []
        for j in range(n):
            total = pts[0][j]
            for p in pts[1:n]:
                total += p[j]
            centroid.append(total / n)
        worst = pts[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        f_r = guarded(reflected)
        if f_r < vals[0] and evals < max_evals:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_e = guarded(expanded)
            if f_e < f_r:
                pts[-1], vals[-1] = expanded, f_e
            else:
                pts[-1], vals[-1] = reflected, f_r
        elif f_r < vals[-2]:
            pts[-1], vals[-1] = reflected, f_r
        else:
            if evals >= max_evals:
                break
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            f_c = guarded(contracted)
            if f_c < vals[-1]:
                pts[-1], vals[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = [b + 0.5 * (a - b) for a, b in zip(pts[i], best)]
                    vals[i] = guarded(pts[i])

    i = min(range(n + 1), key=vals.__getitem__)   # first of the stable order
    return list(pts[i]), vals[i], evals


_DESIGN_KEYS = ("w", "t", "h", "a_ne")


def old_optimize_geometry(objective: Callable[[Device], float],
                          bounds: Mapping[str, tuple[float, float]],
                          device: Device, *,
                          start: Mapping[str, float] | None = None,
                          max_evals: int = 400,
                          diam_tol: float = 1.0e-6) -> OptimizationResult:
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
    corner = old_with_gate(device, **{**lows, "t": lows["t"] + widths["t"]})
    violations = validate_geometry(corner.geometry)
    if violations:
        raise ValueError("bounds admit an invalid geometry: "
                         + "; ".join(violations))

    def params_at(x: list[float]) -> dict[str, float]:
        p = dict(lows)
        for xi, k in zip(x, free):
            p[k] = lows[k] + min(max(xi, 0.0), 1.0) * widths[k]
        return p

    def value_at(x: list[float]) -> float:
        excess = 0.0
        outside = False
        for xi in x:
            over = max(0.0, xi - 1.0)
            under = max(0.0, -xi)
            if over or under:
                outside = True
            excess += over * over + under * under
        penalty = 1.0e9 * (1.0 + excess) if outside else 0.0
        return objective(old_with_gate(device, **params_at(x))) + penalty

    if not free:
        params = dict(lows)
        cand = old_with_gate(device, **params)
        try:
            value = float(objective(cand))
        except Exception:
            value = math.inf
        return OptimizationResult(device=cand, params=params, value=value,
                                  evaluations=1, converged=True)

    if start is None:
        x0 = [0.5] * len(free)
    else:
        x0 = [(float(start[k]) - lows[k]) / widths[k] for k in free]
        if not all(0.0 <= xi <= 1.0 for xi in x0):
            raise ValueError("start must lie inside the bounds")

    best_x, best_f, evals = old_nelder_mead(value_at, x0,
                                            max_evals=max_evals,
                                            diam_tol=diam_tol)
    params = params_at(best_x)
    return OptimizationResult(device=old_with_gate(device, **params),
                              params=params, value=best_f,
                              evaluations=evals,
                              converged=evals < max_evals)


def old_suction_objective(coeffs, q_star: float) -> Callable[[Device], float]:
    if not 0.0 <= q_star < math.inf:
        raise ValueError("q_star must be nonnegative and finite")

    def objective(candidate: Device) -> float:
        return solve_operating_point(q_star, candidate, coeffs).p_out

    return objective


def old_blowing_objective(coeffs, q_star: float) -> Callable[[Device], float]:
    suction = old_suction_objective(coeffs, q_star)

    def objective(candidate: Device) -> float:
        return -suction(candidate)

    return objective


# --- the comparison -----------------------------------------------------------

# every DeviceGeometry field away from its default
_ODD = Device(
    geometry=DeviceGeometry(a_in=4.4e-6, a_branch=2.148e-6, a_ne=0.36e-6,
                            n_nozzles=3, a_ex=6.5e-6, a_out=5.5e-6,
                            channel_width_ref=9.0e-3,
                            gate=FlapGateGeometry(9.5e-3, 0.45e-3, 1.9e-3),
                            split_design_rule=False),
    material=Material.from_shore_a(20.0),
    type_id="odd")

_TEMPLATES = [catalog_device(tid) for tid in CATALOG_TYPE_IDS] + [_ODD]

# (lo, hi) a box side is drawn from, per key [m], [m^2]
_RANGES = {"w": (5.0e-3, 12.0e-3), "t": (0.3e-3, 0.7e-3),
           "h": (1.5e-3, 2.5e-3), "a_ne": (0.25e-6, 0.55e-6)}


def _bits(x: float) -> str:
    return float(x).hex()


def _device_bits(device: Device):
    """Every field of the device, floats as their bits."""
    def flat(value):
        if isinstance(value, float):
            return _bits(value)
        if hasattr(value, "_fields"):
            return [flat(v) for v in value._asdict().values()]
        return value

    return flat(device)


@st.composite
def searches(draw):
    """(template, bounds, start, max_evals, objective name, its argument)."""
    template = draw(st.sampled_from(_TEMPLATES))
    keys = draw(st.lists(st.sampled_from(_DESIGN_KEYS), min_size=1,
                         max_size=4, unique=True))
    bounds = {}
    for key in keys:
        lo, hi = _RANGES[key]
        a = draw(st.floats(lo, hi))
        b = draw(st.floats(lo, hi))
        bounds[key] = (min(a, b), max(a, b))
    start = None
    if draw(st.booleans()):
        start = {k: lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
                 for k, (lo, hi) in bounds.items()}
    max_evals = draw(st.integers(5, 40))
    name = draw(st.sampled_from(["suction", "blowing", "switching",
                                 "switching-target"]))
    if name == "switching-target":
        arg = draw(st.floats(5.0e3, 40.0e3))
    else:
        arg = draw(st.floats(0.0, 30.0)) * M3S_PER_LPM
    return template, bounds, start, max_evals, name, arg


def _objectives(name: str, arg: float):
    """(the objective before, the objective now)."""
    if name == "suction":
        return (old_suction_objective(DEFAULT_COEFFS, arg),
                suction_objective(DEFAULT_COEFFS, arg))
    if name == "blowing":
        return (old_blowing_objective(DEFAULT_COEFFS, arg),
                blowing_objective(DEFAULT_COEFFS, arg))
    target = arg if name == "switching-target" else None
    shared = switching_objective(DEFAULT_COEFFS, target_p_in=target)
    return shared, shared


def _run(search: Callable, objective, template, bounds, start, max_evals):
    """The search's result (or the message of its ``ValueError``) and the
    warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = search(objective, bounds, template, start=start,
                            max_evals=max_evals)
        except ValueError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


@_PROPERTY
@given(searches())
def test_search_matches_the_search_before_bit_for_bit(search):
    template, bounds, start, max_evals, name, arg = search
    old_objective, new_objective = _objectives(name, arg)
    old, old_warnings = _run(old_optimize_geometry, old_objective, template,
                             bounds, start, max_evals)
    new, new_warnings = _run(optimize_geometry, new_objective, template,
                             bounds, start, max_evals)
    # the search before warned at each sonic candidate, a binding warns
    # at the first one only, with the same category and message
    assert new_warnings == old_warnings[:1]
    if isinstance(old, str):
        assert new == old
        return
    assert new.device == old.device
    assert _device_bits(new.device) == _device_bits(old.device)
    assert list(new.params) == list(old.params) == list(_DESIGN_KEYS)
    assert ([_bits(v) for v in new.params.values()]
            == [_bits(v) for v in old.params.values()])
    assert _bits(new.value) == _bits(old.value)
    assert new.evaluations == old.evaluations
    assert new.converged is old.converged


# Coordinates that overflowed to inf and differences that went nan:
# ``max`` of ``max`` keeps a nan that comes first and skips a later one.
_COORDINATE = st.one_of(st.floats(), st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0]))
_TOLERANCES = (0.0, -1.0, 1.0e-9, 1.0e-6, 0.5, math.inf)


@st.composite
def simplices(draw):
    # n = 0 is the one point of an empty x0
    n = draw(st.integers(0, 4))
    point = st.lists(_COORDINATE, min_size=n, max_size=n)
    return [draw(point) for _ in range(n + 1)]


def old_stop(pts: list[list[float]], tol: float) -> bool:
    """The stop test before: the whole diameter, then one comparison."""
    best = pts[0]
    diam = (max(max(abs(a - b) for a, b in zip(p, best)) for p in pts[1:])
            if best else 0.0)
    return diam < tol


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(simplices(), st.sampled_from(_TOLERANCES))
# a later point with a nan first distance is skipped, with its far
# coordinates; a later nan distance is passed over
@example([[0.0, 0.0], [0.0, 0.0], [math.nan, 1.0]], 0.5)
@example([[0.0, 0.0], [0.25, math.nan], [math.nan, math.inf]], 0.5)
# inf - inf: a nan first distance is never collapsed
@example([[math.inf, 0.0], [math.inf, 0.0]], math.inf)
@example([[]], 0.0)
def test_diameter_picks_what_max_of_max_picked(pts, tol):
    assert _collapsed(pts, tol) is old_stop(pts, tol)
