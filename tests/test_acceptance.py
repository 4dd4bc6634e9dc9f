"""End-to-end acceptance gate: ten pinned behavioral criteria.

Each test covers one criterion, asserts the pinned tolerance, and prints
a single ``criterion N: PASS`` line (visible with ``pytest -s`` or in the
captured output block).
"""

import time

import numpy as np
import pytest

from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    Device,
    DeviceGeometry,
    Material,
    MODE_BLOWING,
    MODE_SUCTION,
    builtin_calibration_points,
    catalog_device,
    compare_designs,
    fit_closures,
    fit_input_pressure,
    friction_curve,
    input_pressure,
    optimize_geometry,
    solve_operating_point,
    sweep,
)
from fdrsim.calib import _misfit, _spread
from fdrsim.cli import main as cli_main
from fdrsim.model import _point_law
from fdrsim._units import M3S_PER_LPM, N_PER_GF

_B = catalog_device("B")


def test_criterion_01_junction_identity():
    # an exactly split inlet keeps the junction pressure equal to the
    # supply pressure to round-off
    t0 = time.perf_counter()
    # junction pressure through the point law, the supply tuned to give
    # the drawn p_in at the drawn flow
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        a_in = rng.uniform(1.0e-6, 1.0e-5)
        geom = DeviceGeometry()._replace(a_in=a_in,
                                         a_branch=a_in / 2.0)
        q = rng.uniform(0.0, 1.0e-3)
        coeffs = DEFAULT_COEFFS._replace(c1=rng.uniform(0.0, 6.0e4) / q,
                                         c2=0.0)
        law = _point_law(Device(geometry=geom, material=_B.material),
                         coeffs)
        p_in, p, _, _ = law(q)
        assert abs(p - p_in) <= 1.0e-12 * max(1.0, p_in)
    assert time.perf_counter() - t0 < 1.0
    print("criterion 1: PASS")


def test_criterion_02_supply_fit():
    t0 = time.perf_counter()
    (c1, c2), report = fit_input_pressure(builtin_calibration_points())
    assert report.rms_residual["p_in"] <= 2.5e3
    assert c1 >= 0.0 and c2 >= 0.0
    coeffs = DEFAULT_COEFFS._replace(c1=c1, c2=c2)
    ps = [input_pressure(q, coeffs)
          for q in np.linspace(0.0, 30.0, 301) * M3S_PER_LPM]
    assert all(b >= a for a, b in zip(ps, ps[1:]))
    assert time.perf_counter() - t0 < 1.0
    print("criterion 2: PASS")


def test_criterion_03_reversal_on_one_knob():
    t0 = time.perf_counter()
    low = solve_operating_point(10.0 * M3S_PER_LPM, _B)
    high = solve_operating_point(30.0 * M3S_PER_LPM, _B)
    assert low.mode == MODE_BLOWING and low.p_out > 0.0
    assert high.mode == MODE_SUCTION and high.p_out < 0.0
    res = sweep(_B)  # 0..30 L/min, 0.1 steps
    signs = [np.sign(st.p_out) for st in res.states if st.p_out != 0.0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    assert res.switching_q is not None
    assert time.perf_counter() - t0 < 5.0
    print("criterion 3: PASS")


@pytest.fixture(scope="module")
def catalog_run():
    t0 = time.perf_counter()
    table = compare_designs(CATALOG_TYPE_IDS)
    return table, time.perf_counter() - t0


def test_criterion_04_switching_pressure_trends(catalog_run):
    catalog_table, elapsed = catalog_run
    assert elapsed < 30.0  # full 11-type comparison on the default grid
    sw = {tid: catalog_table[tid].switching_p_in for tid in CATALOG_TYPE_IDS}
    for tid in CATALOG_TYPE_IDS:
        assert sw[tid] is not None, tid
    assert sw["A"] > sw["B"] > sw["C"]      # narrower wall switches later
    assert sw["E"] > sw["B"] > sw["D"]      # thicker wall switches later
    assert sw["B"] > sw["G"] > sw["F"]      # shorter wall switches earlier
    assert sw["I"] > sw["B"] > sw["H"]      # bigger nozzles switch later
    assert sw["K"] > sw["J"] > sw["B"]      # harder material switches later
    print("criterion 4: PASS")


def test_criterion_05_performance_trends(catalog_run):
    catalog_table, _ = catalog_run
    blow = {tid: catalog_table[tid].max_blow for tid in CATALOG_TYPE_IDS}
    assert blow["A"] > blow["B"] > blow["C"]
    assert blow["E"] > blow["B"] > blow["D"]
    assert blow["K"] > blow["J"] > blow["B"]

    q30 = 30.0 * M3S_PER_LPM
    # entrainment penalty off: the wide-window nominal gate out-sucks the
    # narrow one on vent area alone
    plain = DEFAULT_COEFFS._replace(c_recirc=0.0)
    suck_off = {tid: -solve_operating_point(q30, catalog_device(tid),
                                            plain).p_out
                for tid in ("A", "B")}
    assert suck_off["B"] > suck_off["A"]
    # penalty on: the widest gate loses entrainment and drops below narrow
    suck_on = {tid: catalog_table[tid].max_suck for tid in ("A", "C")}
    assert suck_on["A"] > suck_on["C"]
    print("criterion 5: PASS")


def test_criterion_06_friction_scaling():
    qs = [0.0, 10.0 * M3S_PER_LPM, 20.0 * M3S_PER_LPM, 30.0 * M3S_PER_LPM]
    rel = {}
    for grams in (16.0, 100.0, 200.0):
        w = grams * N_PER_GF
        pts = friction_curve(_B, mu0_s=0.5, mu0_k=0.4, weight_load=w,
                             a_eff=1.0e-4, q_list=qs)
        mu = [p.prediction.mu_s for p in pts]
        assert mu[1] < mu[0] < mu[2] < mu[3], grams
        rel[grams] = mu[3] / mu[0] - 1.0
    # lighter payloads feel the port pressure proportionally more
    assert rel[16.0] > rel[100.0] > rel[200.0]
    assert rel[100.0] / rel[200.0] == pytest.approx(2.0, rel=1e-9)
    print("criterion 6: PASS")


def test_criterion_07_conservation_and_determinism(tmp_path):
    # repeated runs produce identical bytes
    paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "r3.csv")]
    argv = ["sweep", "--type", "B", "--step-lpm", "0.5"]
    for path in paths:
        assert cli_main(argv + ["--out", str(path)]) == 0
    b0, b1, b2 = (p.read_bytes() for p in paths)
    assert b0 == b1 == b2
    print("criterion 7: PASS")


def test_criterion_08_numerical_checks():
    # self-consistent opening against its closed form (linear supply, no
    # cracking, an unequal split so the junction's kinetic term counts)
    geom = DeviceGeometry()._replace(a_branch=1.5e-6,
                                     split_design_rule=False)
    device = Device(geometry=geom, material=Material.from_shore_a(10.0))
    coeffs = DEFAULT_COEFFS._replace(c1=9.6e7, c2=0.0,
                                     k0=1.0e-11, p_c=0.0)
    q = 20.0 * M3S_PER_LPM
    p_ch = 9.6e7 * q + (0.4 / 2.8) * 1.204 * (q / 4.0e-6) ** 2 \
        * (1.0 - (4.0e-6 / (2.0 * 1.5e-6)) ** 2)
    a_star = 1.0e-11 * p_ch
    st = solve_operating_point(q, device, coeffs)
    assert st.a_fg == pytest.approx(a_star, rel=1e-9)
    print("criterion 8: PASS")


def test_criterion_09_geometry_recovery():
    t0 = time.perf_counter()
    target = sweep(_B, step=1.0 * M3S_PER_LPM)
    # least-squares distance of a candidate's p_out curve from the
    # target's, on the target's grid, scaled by the target's spread
    qs = [st.q_in for st in target.states]
    ps = [st.p_out for st in target.states]
    scale = _spread(ps)

    def objective(candidate):
        return _misfit(qs, ps, scale, _point_law(candidate, DEFAULT_COEFFS))

    bounds = {"w": (6.0e-3, 10.0e-3), "t": (0.4e-3, 0.6e-3),
              "h": (1.8e-3, 2.0e-3)}
    truth = {"w": 8.0e-3, "t": 0.5e-3, "h": 2.0e-3}
    start = {"w": 8.8e-3, "t": 0.54e-3, "h": 1.96e-3}
    res = optimize_geometry(objective, bounds, _B, start=start,
                            max_evals=400)
    assert res.evaluations <= 400
    for key, exact in truth.items():
        assert abs(res.params[key] - exact) <= 0.05 * exact, key
    assert time.perf_counter() - t0 < 60.0
    print("criterion 9: PASS")


def test_criterion_10_coefficient_recovery():
    from fdrsim import MeasurementRow, MeasurementSet

    rows = []
    for q_lpm in range(0, 31, 2):
        st = solve_operating_point(q_lpm * M3S_PER_LPM, _B)
        rows.append(MeasurementRow(q_in=st.q_in, p_in=st.p_in,
                                   p_out=st.p_out, a_fg=st.a_fg))
    data = MeasurementSet(rows=tuple(rows))

    start = DEFAULT_COEFFS._replace(eta=DEFAULT_COEFFS.eta * 1.15,
                                    k0=DEFAULT_COEFFS.k0 * 0.85,
                                    p_c=DEFAULT_COEFFS.p_c * 1.2)
    fitted, report = fit_closures(data, _B, start=start)
    assert abs(fitted.eta - DEFAULT_COEFFS.eta) <= 0.02 * DEFAULT_COEFFS.eta
    assert abs(fitted.k0 - DEFAULT_COEFFS.k0) <= 0.02 * DEFAULT_COEFFS.k0
    assert abs(fitted.p_c - DEFAULT_COEFFS.p_c) <= 0.02 * DEFAULT_COEFFS.p_c
    assert report.rms_residual["p_out"] <= 50.0
    print("criterion 10: PASS")
