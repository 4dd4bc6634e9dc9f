"""A design objective bound to its template scores each candidate as the
objective scores that candidate's device.

``optimize_geometry`` binds the engine's objectives to its template once
and scores each candidate's (w, t, h, a_ne) without building a device;
any other callable gets the candidate's ``with_gate`` copy, as every
objective did before.  On random templates (reclosing junctions, and
templates whose own terms fail, included), coefficients and candidates,
the bound score must equal ``objective(with_gate(template, ...))`` bit
for bit, fail with the same exception, and raise the same warnings; on
random boxes the search must return the same result through either path,
and the same as the search before.  A binding warns once in a search, at
its first candidate whose jet is sonic, where a plain callable warns at
each such candidate.
"""

import math
import warnings

from hypothesis import example, given, settings, strategies as st
from test_design_search_parity import (_device_bits, old_blowing_objective,
                                       old_optimize_geometry,
                                       old_suction_objective)

from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    Material,
    SupersonicJetWarning,
    blowing_objective,
    catalog_device,
    optimize_geometry,
    suction_objective,
    switching_objective,
    with_gate,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.engine import _DESIGN_KEYS, _DesignObjective

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def _material(youngs_modulus):
    """Soft elastomer with any modulus, as a Python caller can build one
    past ``Material``'s own check."""
    material = object.__new__(Material)
    object.__setattr__(material, "shore_a", 10.0)
    object.__setattr__(material, "youngs_modulus", youngs_modulus)
    return material


# one template change per set-up check the template alone can fail
_BAD_TEMPLATE = {
    "a_in": {"a_in": 0.0},
    "split": {"a_branch": 1.0e-300},
    "youngs_modulus": {"material": 0.0},
    "a_ex": {"a_ex": 0.0},
    "w_ref": {"channel_width_ref": 0.0},
    "no-outlet": {"a_out": 0.0},
    "negative-outlet": {"a_out": -6.0e-6},
    "n_nozzles": {"n_nozzles": 0},
}


def _template(type_id, a_branch, youngs_modulus=None, **geometry):
    device = catalog_device(type_id)
    g = device.geometry._replace(a_branch=a_branch,
                                 split_design_rule=False, **geometry)
    material = (device.material if youngs_modulus is None
                else _material(youngs_modulus))
    return device._replace(geometry=g, material=material)


@st.composite
def templates(draw):
    """Catalog templates with an even, narrow (reclosing) or wide branch,
    and up to two changes that fail the template's own checks."""
    type_id = draw(st.sampled_from(CATALOG_TYPE_IDS))
    # a_in = 4 mm^2: a branch under 2 mm^2 lets the junction reclose
    a_branch = draw(st.sampled_from([2.0e-6, 1.5e-6, 1.6e-6, 2.148e-6,
                                     2.5e-6]))
    changes = {}
    if not draw(st.sampled_from(range(4))):
        for name in draw(st.lists(st.sampled_from(sorted(_BAD_TEMPLATE)),
                                  min_size=1, max_size=2, unique=True)):
            changes.update(_BAD_TEMPLATE[name])
    youngs = changes.pop("material", None)
    if "a_branch" in changes:
        a_branch = changes.pop("a_branch")
    return _template(type_id, a_branch, youngs, **changes)


@st.composite
def coefficients(draw):
    """Mostly the default set; else a gate that never opens, one saturated
    open, or terms near the float range's ends."""
    changes = draw(st.sampled_from([
        {}, {}, {}, {}, {}, {"p_c": 1.0e6}, {"k0": 1.0e-6, "p_c": 0.0}, {"k0": 1.0e300},
        {"cd_out": 1.0e-300}, {"eta": 1.0e-300, "c_recirc": 1.0e300},
        {"c_recirc": 0.0}, {"c_recirc": 20.0}]))
    return DEFAULT_COEFFS._replace(**changes)


@st.composite
def candidates(draw):
    """A (w, t, h, a_ne) inside the catalog's ranges, with about one value
    in eight out of any range."""
    def dimension(lo, hi):
        if draw(st.sampled_from(range(8))):
            return draw(st.floats(lo, hi))
        return draw(st.sampled_from([0.0, -lo, 1.0e-200, 1.0e200, math.inf,
                                     math.nan]))

    return (dimension(3.0e-3, 14.0e-3), dimension(0.2e-3, 0.9e-3),
            dimension(1.2e-3, 3.0e-3), dimension(0.1e-6, 1.0e-6))


# (objective name, its flow [L/min] or target [Pa])
_SPECS = st.one_of(
    st.tuples(st.sampled_from(["suction", "blowing"]),
              st.sampled_from([None, None, None, 1.0e200]).flatmap(
                  lambda huge: st.just(huge) if huge else
                  st.floats(0.0, 40.0))),
    st.tuples(st.just("switching"),
              st.one_of(st.none(), st.floats(-5.0e4, 5.0e4))))


def _objective(spec, coeffs):
    name, arg = spec
    if name == "suction":
        return suction_objective(coeffs, arg * M3S_PER_LPM)
    if name == "blowing":
        return blowing_objective(coeffs, arg * M3S_PER_LPM)
    return switching_objective(coeffs, target_p_in=arg)


def _outcome(action, score, *args):
    """The score's bits, or its exception's type, message and flow, and
    the warnings it raised, in order, under a ``action`` filter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            result = float(score(*args)).hex()
        except Exception as exc:   # noqa: BLE001 - compared, not handled
            result = (type(exc), str(exc), getattr(exc, "q_in", None))
    return result, [(w.category, str(w.message)) for w in caught]


@_PROPERTY
@given(templates(), coefficients(), _SPECS, candidates(),
       st.sampled_from(["always", "always", "error"]))
# a sonic jet, reported or raised, on a reclosing junction and an even one
@example(_template("B", 1.6e-6), DEFAULT_COEFFS, ("switching", None),
         (8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), "error")
@example(_template("B", 2.0e-6), DEFAULT_COEFFS, ("suction", 30.0),
         (8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), "always")
# no outlet: the guard's blowing bound divides by zero, yet every row fails
@example(_template("B", 2.0e-6, a_out=0.0), DEFAULT_COEFFS,
         ("switching", 2.0e4), (8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), "always")
# a failing template check is raised after the candidate's earlier ones
@example(_template("B", 2.0e-6, 0.0), DEFAULT_COEFFS, ("suction", 10.0),
         (0.0, 0.5e-3, 2.0e-3, 0.4e-6), "always")
@example(_template("B", 2.0e-6, n_nozzles=0), DEFAULT_COEFFS,
         ("blowing", 10.0), (8.0e-3, 0.5e-3, 2.0e-3, 0.0), "always")
def test_bound_score_equals_the_objective_on_the_candidate(
        template, coeffs, spec, dimensions, action):
    objective = _objective(spec, coeffs)
    candidate = with_gate(template, **dict(zip(_DESIGN_KEYS, dimensions)))
    assert (_outcome(action, objective.bind(template), *dimensions)
            == _outcome(action, objective, candidate))


@st.composite
def boxes(draw):
    """Bounds of positive width on one to four keys (the search before
    treated a box of zero volume apart), and a budget."""
    ranges = {"w": (5.0e-3, 8.0e-3, 12.0e-3), "t": (0.3e-3, 0.5e-3, 0.7e-3),
              "h": (1.5e-3, 2.0e-3, 2.5e-3),
              "a_ne": (0.25e-6, 0.4e-6, 0.55e-6)}
    bounds = {}
    for key in draw(st.lists(st.sampled_from(_DESIGN_KEYS), min_size=1,
                             max_size=4, unique=True)):
        lo, mid, hi = ranges[key]
        bounds[key] = (draw(st.floats(lo, mid)),
                       draw(st.floats(mid, hi, exclude_min=True)))
    return bounds, draw(st.integers(1, 30))


def _counted(objective, calls):
    """``objective`` with each candidate it scores appended to ``calls``:
    bound, as the engine's objectives are, or as a plain callable."""
    def dimensions(values):
        return tuple(float(v).hex() for v in values)

    if not isinstance(objective, _DesignObjective):
        def plain(candidate):
            g = candidate.geometry
            calls.append(dimensions((g.gate.w, g.gate.t, g.gate.h, g.a_ne)))
            return objective(candidate)

        return plain

    def bind(template):
        score = objective.bind(template)

        def counted(*values):
            calls.append(dimensions(values))
            return score(*values)

        return counted

    return _DesignObjective(bind)


def _search(search, objective, template, bounds, max_evals, action):
    """The search's result as bits (or its exception's type and message),
    the candidates it scored and the warnings it raised, in order, each
    with the number of candidates scored when it was raised, under an
    ``action`` filter."""
    calls = []
    caught = []

    def record(message, category, *_):
        caught.append((len(calls), category, str(message)))

    with warnings.catch_warnings():
        warnings.simplefilter(action)
        warnings.showwarning = record
        try:
            r = search(_counted(objective, calls), bounds, template,
                       max_evals=max_evals)
            result = (_device_bits(r.device), list(r.params),
                      [v.hex() for v in r.params.values()],
                      float(r.value).hex(), r.evaluations, r.converged)
        except (ValueError, Warning) as exc:
            result = (type(exc), str(exc))
    return result, calls, caught


@_PROPERTY
@given(templates(), coefficients(), _SPECS, boxes(),
       st.sampled_from(["always", "error"]))
# a sonic jet at the first candidate: raised there under an error filter
@example(_template("B", 2.0e-6), DEFAULT_COEFFS, ("suction", 25.0),
         ({"w": (6.0e-3, 10.0e-3)}, 20), "error")
@example(_template("B", 2.0e-6), DEFAULT_COEFFS, ("switching", None),
         ({"h": (1.8e-3, 2.0e-3)}, 10), "error")
# every candidate fails: each scores +inf, through either path
@example(_template("B", 2.0e-6), DEFAULT_COEFFS._replace(k0=1.0e300),
         ("switching", None), ({"h": (1.8e-3, 2.0e-3)}, 10), "always")
def test_search_scores_the_same_bound_or_through_a_device(
        template, coeffs, spec, box, action):
    bounds, max_evals = box
    objective = _objective(spec, coeffs)

    def plain(candidate):
        return objective(candidate)

    result, calls, caught = _search(optimize_geometry, objective, template,
                                    bounds, max_evals, action)

    def assert_same(search, objective):
        # the same result and candidates; a binding warns once, at the
        # first sonic candidate, where a plain callable warns at each one,
        # and under an error filter both raise at that candidate
        other, other_calls, other_caught = _search(
            search, objective, template, bounds, max_evals, action)
        assert (other, other_calls) == (result, calls)
        assert caught == other_caught[:1]

    assert_same(optimize_geometry, plain)
    # a plain callable gets the search before's result; that search scored
    # a warning raised under an error filter +inf, and is left out there
    name, arg = spec
    before = {"suction": old_suction_objective,
              "blowing": old_blowing_objective}.get(name)
    if before is not None:
        old = before(coeffs, arg * M3S_PER_LPM)
        assert_same(optimize_geometry, old)
        if action == "always":
            assert_same(old_optimize_geometry, old)


def test_a_suction_search_over_a_sonic_box_warns_once():
    # every candidate's jet is sonic at 30 L/min: the four-key search
    # scores dozens of them and records one warning, at the first
    bounds = {"w": (6.0e-3, 10.0e-3), "t": (0.4e-3, 0.6e-3),
              "h": (1.8e-3, 2.2e-3), "a_ne": (0.3e-6, 0.5e-6)}
    result, calls, caught = _search(
        optimize_geometry, suction_objective(DEFAULT_COEFFS,
                                             30.0 * M3S_PER_LPM),
        catalog_device("B"), bounds, 400, "always")
    assert len(calls) == result[4] > 10
    assert [(n, category) for n, category, _ in caught] == [
        (1, SupersonicJetWarning)]
