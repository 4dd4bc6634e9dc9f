"""Operating points, flow ramps, design comparison, and the optimizer."""

import math

import numpy as np
import pytest

import fdrsim.engine as engine
from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    Device,
    Material,
    MODE_BLOWING,
    MODE_NEUTRAL,
    MODE_SUCTION,
    OperatingState,
    SweepResult,
    catalog_device,
    compare_designs,
    design_orderings,
    input_pressure,
    nelder_mead,
    optimize_geometry,
    solve_operating_point,
    suction_objective,
    blowing_objective,
    switching_objective,
    sweep,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.calib import _misfit, _spread
from fdrsim.model import _RHO, _point_law

_B = catalog_device("B")


def test_rest_state_is_all_zero():
    st = solve_operating_point(0.0, _B)
    assert st == OperatingState(q_in=0.0, p_in=0.0, p_chamber=0.0,
                                a_fg=0.0, p_out=0.0)
    assert st.mode == MODE_NEUTRAL


def test_type_b_blows_low_and_sucks_high():
    low = solve_operating_point(10.0 * M3S_PER_LPM, _B)
    high = solve_operating_point(30.0 * M3S_PER_LPM, _B)
    assert low.mode == MODE_BLOWING and low.p_out > 0.0
    assert high.mode == MODE_SUCTION and high.p_out < 0.0
    assert high.a_fg > low.a_fg > 0.0
    assert high.p_in > low.p_in > 0.0


def test_negative_flow_rejected():
    with pytest.raises(ValueError):
        solve_operating_point(-1.0e-4, _B)


# the last flow is finite but overflows the chain's squares
@pytest.mark.parametrize("q_in", [math.nan, math.inf, -math.inf,
                                  1.0e200 * M3S_PER_LPM])
def test_non_finite_flow_rejected(q_in):
    with pytest.raises(ValueError, match="finite"):
        solve_operating_point(q_in, _B)


def test_shut_gate_blows_at_every_flow():
    # a gate that never cracks blocks the air: every flow but zero blows
    # through the output restriction, in the grid and the scalar path
    shut = DEFAULT_COEFFS._replace(p_c=1.0e9)
    res = sweep(_B, shut, step=1.0 * M3S_PER_LPM)
    half_rho = 0.5 * _RHO
    for st in res.states:
        assert st == solve_operating_point(st.q_in, _B, shut)
        assert st.a_fg == 0.0
        assert st.p_out == pytest.approx(
            half_rho * (st.q_in / (shut.cd_out * _B.geometry.a_out)) ** 2,
            rel=1e-12)
        assert st.mode == (MODE_NEUTRAL if st.q_in == 0.0 else MODE_BLOWING)
    assert res.states[0].p_out == 0.0


def test_fixed_point_matches_closed_form():
    # unequal split, linear supply law, zero cracking pressure: the
    # self-consistent opening has a hand-computable closed form
    geom = _B.geometry._replace(a_branch=1.5e-6,
                                split_design_rule=False)
    device = Device(geometry=geom, material=Material.from_shore_a(10.0))
    coeffs = DEFAULT_COEFFS._replace(c1=9.6e7, c2=0.0,
                                     k0=1.0e-11, p_c=0.0)
    q = 20.0 * M3S_PER_LPM

    p_in = 9.6e7 * q
    corr = (0.4 / 2.8) * 1.204 * (q / 4.0e-6) ** 2 \
        * (1.0 - (4.0e-6 / (2.0 * 1.5e-6)) ** 2)
    p_ch = p_in + corr
    a_star = 1.0e-11 * p_ch          # nominal gate, gain equals k0
    s = a_star / 1.6e-5              # open fraction over the 8x2 mm window
    vent = min(1.0, a_star / 6.0e-6)
    jet = 0.5 * 1.204 * ((q / 2.0) / 0.4e-6) ** 2
    blow = 0.5 * 1.204 * ((1.0 - s) * q / (0.8 * 6.0e-6)) ** 2
    p_out = (1.0 - s) * blow - s * 0.25 * jet * vent

    st = solve_operating_point(q, device, coeffs)
    assert st.p_in == pytest.approx(p_in, rel=1e-9)
    assert st.p_chamber == pytest.approx(p_ch, rel=1e-9)
    assert st.a_fg == pytest.approx(a_star, rel=1e-9)
    assert st.p_out == pytest.approx(p_out, rel=1e-9)


def test_all_catalog_types_solve_everywhere():
    for tid in CATALOG_TYPE_IDS:
        dev = catalog_device(tid)
        for q in (0.0, 10.0, 20.0, 30.0):
            st = solve_operating_point(q * M3S_PER_LPM, dev)
            assert st.mode in (MODE_BLOWING, MODE_SUCTION, MODE_NEUTRAL)


def test_sweep_grid_and_switching():
    res = sweep(_B)
    assert len(res.states) == 301
    qs = [st.q_in for st in res.states]
    assert qs[0] == 0.0
    assert qs[-1] == pytest.approx(30.0 * M3S_PER_LPM, rel=1e-12)
    assert all(b > a for a, b in zip(qs, qs[1:]))
    # one blowing-to-suction handoff on the way up
    assert res.switching_q is not None
    assert 13.0 * M3S_PER_LPM < res.switching_q < 14.0 * M3S_PER_LPM
    assert res.switching_p_in == input_pressure(res.switching_q,
                                                DEFAULT_COEFFS)
    assert res.max_blow > 0.0
    assert res.max_suck > 0.0
    signs = [math.copysign(1.0, st.p_out) for st in res.states
             if st.p_out != 0.0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1


def test_sweep_continuity():
    res = sweep(_B)
    ps = np.array([st.p_out for st in res.states])
    span = ps.max() - ps.min()
    assert np.max(np.abs(np.diff(ps))) < 0.1 * span


def test_sweep_direction_independent():
    step = 0.5 * M3S_PER_LPM
    res = sweep(_B, step=step)
    down = [solve_operating_point(st.q_in, _B)
            for st in reversed(res.states)]
    assert tuple(reversed(down)) == res.states


def test_sweep_deterministic():
    a = sweep(_B, step=0.5 * M3S_PER_LPM)
    b = sweep(_B, step=0.5 * M3S_PER_LPM)
    assert a == b


def test_sweep_bad_grids_rejected():
    with pytest.raises(ValueError):
        sweep(_B, step=-0.1 * M3S_PER_LPM)
    with pytest.raises(ValueError):
        sweep(_B, q_start=10.0 * M3S_PER_LPM, q_end=10.0 * M3S_PER_LPM)
    # a grid starting below zero is a bad grid, not a failed row
    with pytest.raises(ValueError, match="q_start must be nonnegative"):
        sweep(_B, q_start=-5.0 * M3S_PER_LPM, q_end=5.0 * M3S_PER_LPM,
              step=1.0 * M3S_PER_LPM)
    # a step that does not divide the range would overshoot q_end
    with pytest.raises(ValueError, match="divide"):
        sweep(_B, q_end=1.0 * M3S_PER_LPM, step=0.35 * M3S_PER_LPM)
    # over the cap: rejected before anything is allocated
    with pytest.raises(ValueError, match="points"):
        sweep(_B, q_end=30.0 * M3S_PER_LPM, step=1.0e-9 * M3S_PER_LPM)
    # a non-finite bound or step is named as such, before any other check
    for name in ("q_start", "q_end", "step"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                sweep(_B, **{name: value})


def test_grid_points_and_cap():
    step = 0.1 * M3S_PER_LPM
    qs = engine._grid(0.0, 30.0 * M3S_PER_LPM, step)
    assert qs == [0.0 + i * step for i in range(301)]
    top = (engine.MAX_GRID_POINTS - 1) * 1.0e-6
    assert len(engine._grid(0.0, top, 1.0e-6)) == engine.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="points"):
        engine._grid(0.0, top + 1.0e-6, 1.0e-6)


def test_sweep_locates_stub_closure_root(monkeypatch):
    # synthetic closure crossing zero at exactly 15 L/min, for the grid
    # rows and for the bisection alike: both evaluate the one point law
    def stub_law(device, coeffs):
        def law(q_in):
            return 0.0, 0.0, 0.0, 1.0e3 * (q_in / M3S_PER_LPM - 15.0)
        return law

    monkeypatch.setattr(engine, "_point_law", stub_law)
    res = engine.sweep(_B, step=1.0 * M3S_PER_LPM)
    assert res.switching_q == pytest.approx(15.0 * M3S_PER_LPM,
                                            abs=0.01 * M3S_PER_LPM)


def test_sweep_without_sign_change_reports_none():
    # a cracking pressure no supply reaches keeps the gate shut: blow only
    coeffs = DEFAULT_COEFFS._replace(p_c=1.0e6)
    res = sweep(_B, coeffs, step=1.0 * M3S_PER_LPM)
    assert res.switching_q is None
    assert res.switching_p_in is None
    assert all(st.p_out >= 0.0 for st in res.states)
    # the rest point is the least p_out: no suction is +0, not -0
    assert res.max_suck == 0.0 and math.copysign(1.0, res.max_suck) == 1.0


def test_sweep_non_finite_row_fails_at_first_bad_flow():
    step = 1.0e199 * M3S_PER_LPM
    with pytest.raises(engine.SweepError, match="not finite") as exc:
        sweep(_B, q_end=10.0 * step, step=step)
    assert exc.value.q_in == step


def test_sweep_result_validation():
    st0 = solve_operating_point(0.0, _B)
    st1 = solve_operating_point(10.0 * M3S_PER_LPM, _B)
    with pytest.raises(ValueError):
        SweepResult(states=(st1, st0), switching_q=None,
                    switching_p_in=None, max_blow=0.0, max_suck=0.0)
    with pytest.raises(ValueError):
        SweepResult(states=(st0, st1), switching_q=1.0e-4,
                    switching_p_in=None, max_blow=0.0, max_suck=0.0)


def test_compare_singleton_equals_sweep():
    step = 1.0 * M3S_PER_LPM
    table = compare_designs(["B"], step=step)
    assert set(table) == {"B"}
    assert table["B"] == sweep(_B, step=step)


def test_compare_rejects_bad_input():
    with pytest.raises(ValueError):
        compare_designs([])
    with pytest.raises(ValueError):
        compare_designs(["B", "Z"])


def test_compare_rejects_repeated_type():
    # ids match after strip/upper, so "a " repeats "A" and "B" repeats "b"
    with pytest.raises(ValueError, match="repeated type ids: A, B"):
        compare_designs(["A", "a ", "b", "C", "B"])


def test_design_orderings_ranks_descending():
    table = compare_designs(["A", "B", "C"], step=0.5 * M3S_PER_LPM)
    orders = design_orderings(table)
    assert orders["switching_p_in"] == ("A", "B", "C")
    blow = orders["max_blow"]
    assert table[blow[0]].max_blow >= table[blow[1]].max_blow \
        >= table[blow[2]].max_blow
    suck = orders["max_suck"]
    assert table[suck[0]].max_suck >= table[suck[1]].max_suck \
        >= table[suck[2]].max_suck


def test_design_orderings_put_non_switching_last():
    res = sweep(_B, step=1.0 * M3S_PER_LPM)
    silent = SweepResult(states=res.states[:1], switching_q=None,
                         switching_p_in=None, max_blow=0.0, max_suck=0.0)
    orders = design_orderings({"X": silent, "B": res})
    assert orders["switching_p_in"][-1] == "X"


def test_nelder_mead_finds_quadratic_minimum():
    target = np.array([0.3, 0.7])

    def bowl(x):
        return float(np.sum((x - target) ** 2))

    x, f, evals = nelder_mead(bowl, [0.0, 0.0], max_evals=200)
    assert np.all(np.abs(x - target) < 1.0e-4)
    assert f < 1.0e-8
    assert evals <= 200


def test_nelder_mead_respects_eval_budget():
    count = 0

    def rosen(x):
        nonlocal count
        count += 1
        return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    for budget in (3, 10, 57):
        count = 0
        _, _, evals = nelder_mead(rosen, [-1.2, 1.0], max_evals=budget)
        assert count <= budget
        assert evals == count


def test_nelder_mead_deterministic():
    def bumpy(x):
        return sum(v * v for v in x) + 0.1 * math.sin(5.0 * x[0])

    a = nelder_mead(bumpy, [1.0, -1.0], max_evals=120)
    b = nelder_mead(bumpy, [1.0, -1.0], max_evals=120)
    assert a == b
    assert a[1] < 0.0 < a[2] <= 120


@pytest.mark.parametrize("x0", [[math.nan], [0.5, math.inf]])
def test_nelder_mead_rejects_non_finite_start(x0):
    with pytest.raises(ValueError, match="finite"):
        nelder_mead(lambda x: 0.0, x0)


@pytest.mark.parametrize("kwargs", [{"diam_tol": math.nan}],
                         ids=["diam-tol-nan"])
def test_nelder_mead_rejects_degenerate_step_or_tolerance(kwargs):
    # it would spend the budget on a simplex that cannot converge, and
    # return x0 as if it had searched
    calls = []
    with pytest.raises(ValueError, match="diam_tol"):
        nelder_mead(lambda x: calls.append(x) or 0.0, [0.5, 0.5], **kwargs)
    assert calls == []


@pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5])
def test_nelder_mead_rejects_a_budget_that_is_not_an_integer(budget):
    # nan ended the search after the initial simplex, inf could search
    # forever on a simplex that never collapses
    calls = []
    with pytest.raises(ValueError, match="^max_evals must be an integer"):
        nelder_mead(lambda x: calls.append(x) or 0.0, [0.5], max_evals=budget)
    assert calls == []


def test_nelder_mead_empty_start_evaluates_once():
    # zero coordinates make a one-point simplex of diameter 0
    calls = []

    def f(x):
        calls.append(list(x))
        return 2.5

    assert nelder_mead(f, []) == ([], 2.5, 1)
    assert calls == [[]]


def test_nelder_mead_treats_failures_as_infinite():
    def sometimes(x):
        if x[0] < 0.0:
            raise RuntimeError("out of range")
        return float((x[0] - 0.5) ** 2)

    x, f, _ = nelder_mead(sometimes, [0.9], max_evals=100)
    assert abs(x[0] - 0.5) < 1.0e-4
    assert f < 1.0e-7


def test_optimize_degenerate_box_single_eval():
    calls = []

    def objective(device):
        calls.append(device)
        return device.geometry.gate.h

    res = optimize_geometry(objective, {"h": (1.9e-3, 1.9e-3)}, _B)
    assert len(calls) == 1
    assert res.evaluations == 1
    assert res.converged is True
    assert res.params["h"] == 1.9e-3
    assert res.params["w"] == _B.geometry.gate.w
    assert res.device.geometry.gate.h == 1.9e-3
    assert res.device.type_id is None


def test_optimize_degenerate_box_checks_budget_as_any_box():
    calls = []

    def objective(device):
        calls.append(device)
        return 1.0

    box = {"h": (1.9e-3, 1.9e-3)}
    for max_evals in (0, -1):
        with pytest.raises(ValueError,
                           match="max_evals too small for the initial simplex"):
            optimize_geometry(objective, box, _B, max_evals=max_evals)
    assert calls == []
    # a budget that ends with the simplex has not converged
    res = optimize_geometry(objective, box, _B, max_evals=1)
    assert (len(calls), res.evaluations, res.converged) == (1, 1, False)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 2.5])
def test_optimize_rejects_a_budget_that_is_not_an_integer(budget):
    calls = []
    with pytest.raises(ValueError, match="^max_evals must be an integer"):
        optimize_geometry(lambda d: calls.append(d) or 1.0,
                          {"h": (1.8e-3, 2.0e-3)}, _B, max_evals=budget)
    assert calls == []


def test_optimize_degenerate_box_scores_nan_as_infinite():
    # the single point of a zero-volume box is scored as a search scores
    def nan(device):
        return math.nan

    for w_box in ((8.0e-3, 8.0e-3), (7.0e-3, 8.0e-3)):
        assert optimize_geometry(nan, {"w": w_box}, _B).value == math.inf


def test_optimize_validation():
    obj = lambda device: 0.0  # noqa: E731
    with pytest.raises(ValueError):
        optimize_geometry(obj, {"radius": (1.0, 2.0)}, _B)
    with pytest.raises(ValueError):
        optimize_geometry(obj, {"h": (2.0e-3, 1.8e-3)}, _B)
    with pytest.raises(ValueError):
        optimize_geometry(obj, {"h": (0.0, 1.8e-3)}, _B)
    # a non-finite bound is named as such, not as an unordered pair
    for bounds in ((math.nan, 8.0e-3), (1.8e-3, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            optimize_geometry(obj, {"w": bounds}, _B)
    for h in (2.5e-3, math.nan):
        with pytest.raises(ValueError, match="start"):
            optimize_geometry(obj, {"h": (1.8e-3, 2.0e-3)}, _B,
                              start={"h": h})


@pytest.mark.parametrize("start", [{}, {"w": 8.0e-3}, {"h": None},
                                   {"h": "tall"}, {"h": [1.9e-3]},
                                   {"h": 10 ** 400}],
                         ids=["empty", "frozen-key-only", "none", "text",
                              "list", "huge-int"])
def test_optimize_start_must_give_every_free_key_a_number(start):
    calls = []

    def objective(device):
        calls.append(device)
        return 0.0

    with pytest.raises(ValueError, match="start.*h"):
        optimize_geometry(objective, {"h": (1.8e-3, 2.0e-3)}, _B, start=start)
    assert calls == []


def test_optimize_start_ignores_frozen_keys():
    box = {"h": (1.8e-3, 2.0e-3)}
    seeded = optimize_geometry(lambda d: d.geometry.gate.h, box, _B,
                               start={"h": 1.9e-3, "w": 1.0}, max_evals=30)
    plain = optimize_geometry(lambda d: d.geometry.gate.h, box, _B,
                              start={"h": 1.9e-3}, max_evals=30)
    assert seeded == plain


def test_optimize_scores_out_of_box_candidates_clipped_plus_penalty(
        monkeypatch):
    # the kernel replaced by a probe that scores chosen box coordinates:
    # a candidate outside the box is the clipped one plus
    # 1e9 * (1 + squared distance outside, summed over coordinates)
    probes = ([0.5, 0.5], [1.5, 0.5], [-0.25, 0.5], [1.5, -0.25],
              [-0.0, 1.0], [1.0 + 2.0 ** -52, 0.5])
    values = []
    seen = []

    def probe_kernel(f, x0, **kwargs):
        values.extend(f(list(x)) for x in probes)
        return list(x0), values[0], len(probes)

    def objective(device):
        seen.append((device.geometry.gate.w, device.geometry.gate.h))
        return 0.0

    monkeypatch.setattr(engine, "nelder_mead", probe_kernel)
    box = {"w": (6.0e-3, 10.0e-3), "h": (1.8e-3, 2.0e-3)}
    optimize_geometry(objective, box, _B)
    assert values == [0.0, 1.0e9 * 1.25, 1.0e9 * 1.0625,
                      1.0e9 * (1.0 + 0.25 + 0.0625), 0.0,
                      # 2 ** -104 is lost next to 1, but the candidate
                      # is still outside
                      1.0e9]
    (w_lo, w_hi), (h_lo, h_hi) = box["w"], box["h"]
    w_mid, h_mid = w_lo + 0.5 * (w_hi - w_lo), h_lo + 0.5 * (h_hi - h_lo)
    assert seen == [(w_mid, h_mid), (w_hi, h_mid), (w_lo, h_mid),
                    (w_hi, h_lo), (w_lo, h_hi), (w_hi, h_mid)]


def test_optimize_pushes_height_to_lower_bound():
    objective = switching_objective(DEFAULT_COEFFS)
    res = optimize_geometry(objective, {"h": (1.8e-3, 2.0e-3)}, _B,
                            max_evals=80)
    assert res.converged
    assert res.params["h"] == pytest.approx(1.8e-3, rel=1e-6)
    assert res.evaluations <= 80


def test_optimize_failing_objective_reports_inf():
    def broken(device):
        raise RuntimeError("no")

    res = optimize_geometry(broken, {"h": (1.8e-3, 2.0e-3)}, _B,
                            max_evals=20)
    assert math.isinf(res.value)


def test_suction_and_blowing_objectives():
    q30 = 30.0 * M3S_PER_LPM
    q10 = 10.0 * M3S_PER_LPM
    st30 = solve_operating_point(q30, _B)
    st10 = solve_operating_point(q10, _B)
    assert suction_objective(DEFAULT_COEFFS, q30)(_B) == st30.p_out
    assert blowing_objective(DEFAULT_COEFFS, q10)(_B) == -st10.p_out


def test_switching_objective_modes():
    step = 1.0 * M3S_PER_LPM
    ref = sweep(_B, step=step)
    minimize = switching_objective(DEFAULT_COEFFS)
    assert minimize(_B) == ref.switching_p_in
    # squared, normalized mismatch against an explicit target
    targeted = switching_objective(DEFAULT_COEFFS,
                                   target_p_in=ref.switching_p_in)
    assert targeted(_B) == pytest.approx(0.0, abs=1e-18)
    # a design that never switches gets the flat large score
    coeffs = DEFAULT_COEFFS._replace(p_c=1.0e6)
    assert switching_objective(coeffs)(_B) == 1.0e6


def test_curve_match_objective_zero_on_self():
    # the closure fit's misfit, on a sweep's own p_out curve
    target = sweep(_B, step=1.0 * M3S_PER_LPM)
    qs = [st.q_in for st in target.states]
    ps = [st.p_out for st in target.states]
    scale = _spread(ps)

    def objective(candidate):
        return _misfit(qs, ps, scale, _point_law(candidate, DEFAULT_COEFFS))

    assert objective(_B) == pytest.approx(0.0, abs=1e-18)
    assert objective(catalog_device("H")) > 1.0


def test_spread_is_population_std_independent_of_order():
    rng = np.random.default_rng(12)
    values = rng.normal(-3.0e3, 2.0e4, size=31).tolist()
    assert _spread(values) == pytest.approx(float(np.std(values)), rel=1e-14)
    assert _spread(values[::-1]) == _spread(values)
    assert _spread([5.0, 5.0]) == 0.0
    # the squared deviations overflow: an infinite spread, not an error
    assert _spread([1.0e300, -1.0e300]) == math.inf


@pytest.mark.parametrize("make", [
    lambda: suction_objective(DEFAULT_COEFFS, math.nan),
    lambda: suction_objective(DEFAULT_COEFFS, math.inf),
    lambda: suction_objective(DEFAULT_COEFFS, -1.0e-4),
    lambda: blowing_objective(DEFAULT_COEFFS, math.nan),
    lambda: switching_objective(DEFAULT_COEFFS, target_p_in=math.nan),
    lambda: switching_objective(DEFAULT_COEFFS, target_p_in=-math.inf),
], ids=["suction-nan", "suction-inf", "suction-negative", "blowing-nan",
        "switching-nan", "switching-inf"])
def test_objective_factories_reject_non_finite(make):
    # raised when the objective is built, not inside the guarded search
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("box", [(1.8e-3, math.inf), (-math.inf, 2.0e-3)])
def test_optimize_rejects_non_finite_bounds(box):
    with pytest.raises(ValueError, match="finite"):
        optimize_geometry(lambda device: 0.0, {"h": box}, _B)
