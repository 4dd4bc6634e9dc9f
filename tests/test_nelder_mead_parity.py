"""The float Nelder-Mead kernel takes the numpy kernel's steps bit for bit.

``numpy_nelder_mead`` below is the array form the engine used before its
kernel moved to plain Python floats, copied unchanged.  On random
starting points, budgets and objectives that tie, raise or return nan,
both kernels must evaluate the same points in the same order and return
the same point, value and evaluation count, compared as float bits.  The
float kernel re-sorts its simplex only after the initial simplex and a
shrink, and inserts each other step's new point; objectives with a few
levels and +inf plateaus make that point tie the values around it and
make contractions fail into shrinks.
"""

import math
from typing import Callable, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from fdrsim import nelder_mead

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)


def numpy_nelder_mead(f: Callable[[np.ndarray], float], x0: Sequence[float], *,
                step: float = 0.1, max_evals: int = 400,
                diam_tol: float = 1.0e-6) -> tuple[np.ndarray, float, int]:
    """Minimize ``f`` from ``x0`` with a fixed-coefficient Nelder-Mead.

    Reflection 1, expansion 2, contraction 0.5, shrink 0.5.  The initial
    simplex offsets each coordinate by ``step`` (flipped downward when
    that would leave the unit box).  Stops when the simplex diameter
    falls below ``diam_tol`` or the evaluation budget is spent; the
    budget is strict and never overrun.  Returns (best x, best f, evals).
    Deterministic for identical inputs; evaluation failures count as
    +infinity.
    """
    import numpy as np
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n == 0:
        raise ValueError("x0 must have at least one coordinate")
    if max_evals < n + 1:
        raise ValueError("max_evals too small for the initial simplex")

    evals = 0

    def guarded(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        try:
            y = float(f(x))
        except Exception:
            return math.inf
        return y if not math.isnan(y) else math.inf

    pts = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] = v[i] + step if v[i] + step <= 1.0 else v[i] - step
        pts.append(v)
    pts = np.array(pts)
    vals = np.array([guarded(p) for p in pts])

    while evals < max_evals:
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        diam = max(float(np.max(np.abs(pts[i] - pts[0])))
                   for i in range(1, n + 1))
        if diam < diam_tol:
            break
        centroid = pts[:-1].mean(axis=0)
        reflected = centroid + (centroid - pts[-1])
        f_r = guarded(reflected)
        if f_r < vals[0] and evals < max_evals:
            expanded = centroid + 2.0 * (centroid - pts[-1])
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
            contracted = centroid + 0.5 * (pts[-1] - centroid)
            f_c = guarded(contracted)
            if f_c < vals[-1]:
                pts[-1], vals[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = guarded(pts[i])

    order = np.argsort(vals, kind="stable")
    return pts[order][0].copy(), float(vals[order][0]), evals


def _bits(xs) -> list[str]:
    return [float(v).hex() for v in xs]


@st.composite
def problems(draw):
    """(x0, max_evals, diam_tol, objective parameters) for one search."""
    n = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    x0 = draw(st.lists(unit, min_size=n, max_size=n))
    max_evals = draw(st.integers(n + 1, 400))
    diam_tol = draw(st.sampled_from([1.0e-6, 1.0e-9, 1.0e-3]))
    center = draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    # a quantum > 0 makes plateaus, so simplex values tie
    quantum = draw(st.one_of(st.just(0.0), st.floats(1.0e-3, 0.5)))
    raise_above = draw(st.one_of(st.none(), st.floats(0.2, 1.2)))
    nan_below = draw(st.one_of(st.none(), st.floats(-0.2, 0.8)))
    return x0, max_evals, diam_tol, (center, weights, quantum, raise_above,
                                     nan_below)


def _objective(params, calls: list):
    center, weights, quantum, raise_above, nan_below = params

    def f(x):
        xs = [float(v) for v in x]
        calls.append(_bits(xs))
        if raise_above is not None and xs[0] > raise_above:
            raise RuntimeError("outside the model")
        if nan_below is not None and xs[-1] < nan_below:
            return math.nan
        y = 0.0
        for v, c, w in zip(xs, center, weights):
            y += w * (v - c) * (v - c)
        return math.floor(y / quantum) * quantum if quantum else y

    return f


@_PROPERTY
@given(problems())
def test_float_kernel_matches_numpy_kernel_bit_for_bit(problem):
    x0, max_evals, diam_tol, params = problem
    new_calls: list = []
    old_calls: list = []
    new = nelder_mead(_objective(params, new_calls), x0,
                      max_evals=max_evals, diam_tol=diam_tol)
    old = numpy_nelder_mead(_objective(params, old_calls), x0,
                            max_evals=max_evals, diam_tol=diam_tol)
    assert new_calls == old_calls
    assert isinstance(new[0], list)
    assert _bits(new[0]) == _bits(old[0].tolist())
    assert _bits([new[1]]) == _bits([old[1]])
    assert new[2] == old[2] == len(new_calls)


@st.composite
def plateau_problems(draw):
    """(x0, max_evals, diam_tol, objective parameters) for a search whose
    values tie: a bowl cut to a few levels, +inf outside a radius."""
    n = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    x0 = draw(st.lists(unit, min_size=n, max_size=n))
    max_evals = draw(st.integers(n + 1, 200))
    diam_tol = draw(st.sampled_from([1.0e-6, 1.0e-3]))
    center = draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n))
    levels = draw(st.integers(1, 4))
    step = draw(st.floats(0.01, 1.0))
    inf_above = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    return x0, max_evals, diam_tol, (center, levels, step, inf_above)


def _plateau_objective(params, calls: list):
    center, levels, step, inf_above = params

    def f(x):
        xs = [float(v) for v in x]
        calls.append(_bits(xs))
        y = 0.0
        for v, c in zip(xs, center):
            y += (v - c) * (v - c)
        if inf_above is not None and y > inf_above:
            return math.inf
        return min(math.floor(y / step), levels) * step

    return f


@_PROPERTY
@given(plateau_problems())
def test_float_kernel_matches_numpy_kernel_on_ties_and_plateaus(problem):
    x0, max_evals, diam_tol, params = problem
    new_calls: list = []
    old_calls: list = []
    new = nelder_mead(_plateau_objective(params, new_calls), x0,
                      max_evals=max_evals, diam_tol=diam_tol)
    old = numpy_nelder_mead(_plateau_objective(params, old_calls), x0,
                            max_evals=max_evals, diam_tol=diam_tol)
    assert new_calls == old_calls
    assert _bits(new[0]) == _bits(old[0].tolist())
    assert _bits([new[1]]) == _bits([old[1]])
    assert new[2] == old[2] == len(new_calls)


def test_float_kernel_hands_the_objective_lists():
    seen = set()

    def f(x):
        seen.add(type(x))
        return sum(v * v for v in x)

    nelder_mead(f, [0.5, 0.5], max_evals=30)
    assert seen == {list}
