"""Pad friction scaling with output-port pressure."""

import warnings

import numpy as np
import pytest

from fdrsim import (
    FrictionPrediction,
    SupersonicJetWarning,
    catalog_device,
    effective_normal,
    friction_curve,
    predict_coefficients,
    solve_operating_point,
)
from fdrsim._units import M3S_PER_LPM

_B = catalog_device("B")


def test_effective_normal_frozen():
    # suction of 2 kPa over 1 cm2 adds 0.2 N to a 0.981 N weight
    n = effective_normal(0.981, -2000.0, 1.0e-4)
    assert n == pytest.approx(1.181, rel=1e-12)


def test_effective_normal_clamps_at_liftoff():
    # blowing at 2 kPa lifts a 0.157 N weight entirely
    assert effective_normal(0.157, 2000.0, 1.0e-4) == 0.0
    assert effective_normal(0.157, 0.0, 1.0e-4) == 0.157
    with pytest.raises(ValueError):
        effective_normal(-1.0, 0.0, 1.0e-4)
    with pytest.raises(ValueError):
        effective_normal(1.0, 0.0, 0.0)


def test_predicted_coefficients_frozen():
    pred = predict_coefficients(0.5, 0.4, 0.981, -2000.0, 1.0e-4)
    assert pred.mu_s == pytest.approx(0.6019367991845056, rel=1e-12)
    assert pred.mu_k == pytest.approx(0.4 * 1.181 / 0.981, rel=1e-12)
    assert pred.n_eff == pytest.approx(1.181, rel=1e-12)


def test_prediction_identity_at_zero_pressure():
    pred = predict_coefficients(0.5, 0.4, 0.981, 0.0, 1.0e-4)
    assert pred.mu_s == 0.5
    assert pred.mu_k == 0.4


def test_prediction_zero_after_liftoff():
    pred = predict_coefficients(0.5, 0.4, 0.157, 2000.0, 1.0e-4)
    assert pred.mu_s == 0.0 and pred.mu_k == 0.0 and pred.n_eff == 0.0


def test_prediction_validation():
    with pytest.raises(ValueError):
        predict_coefficients(0.0, 0.4, 1.0, 0.0, 1.0e-4)
    with pytest.raises(ValueError):
        predict_coefficients(0.5, 0.4, 0.0, 0.0, 1.0e-4)
    with pytest.raises(ValueError):
        FrictionPrediction(mu_s=-0.1, mu_k=0.1, n_eff=0.0)


@pytest.mark.parametrize("p_out", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_port_pressure_is_rejected(p_out):
    # max(0.0, nan) is 0.0: unchecked, a nan or +inf pressure would read
    # as a lifted pad with zero coefficients
    with pytest.raises(ValueError, match="^p_out must be finite$"):
        effective_normal(1.0, p_out, 1.0e-4)
    with pytest.raises(ValueError, match="^p_out must be finite$"):
        predict_coefficients(0.5, 0.4, 1.0, p_out, 1.0e-4)


def test_prediction_monotone_in_pressure():
    ps = np.linspace(-20.0e3, 5.0e3, 60)
    mus = [predict_coefficients(0.5, 0.4, 0.981, p, 1.0e-4).mu_s for p in ps]
    assert all(b <= a for a, b in zip(mus, mus[1:]))


def test_prediction_preserves_static_kinetic_ratio():
    rng = np.random.default_rng(515)
    for _ in range(50):
        p = rng.uniform(-30.0e3, 1.0e3)
        pred = predict_coefficients(0.5, 0.4, 0.981, p, 1.0e-4)
        if pred.mu_k > 0.0:
            assert pred.mu_s / pred.mu_k == pytest.approx(1.25, rel=1e-12)


def test_relative_increase_halves_with_doubled_weight():
    p = -10.0e3
    light = predict_coefficients(0.5, 0.4, 0.5, p, 1.0e-4)
    heavy = predict_coefficients(0.5, 0.4, 1.0, p, 1.0e-4)
    rel_light = light.mu_s / 0.5 - 1.0
    rel_heavy = heavy.mu_s / 0.5 - 1.0
    assert rel_light == pytest.approx(2.0 * rel_heavy, rel=1e-12)


def test_friction_curve_mode_ordering():
    qs = [0.0, 10.0 * M3S_PER_LPM, 20.0 * M3S_PER_LPM, 30.0 * M3S_PER_LPM]
    pts = friction_curve(_B, mu0_s=0.5, mu0_k=0.4, weight_load=0.981,
                         a_eff=1.0e-4, q_list=qs)
    mus = {round(p.q_in / M3S_PER_LPM): p.prediction.mu_s for p in pts}
    # blowing at 10 drops friction below rest; suction piles it on
    assert mus[10] < mus[0] < mus[20] < mus[30]
    assert mus[0] == 0.5


def test_friction_curve_identical_flows_identical_predictions():
    q = 10.0 * M3S_PER_LPM
    pts = friction_curve(_B, mu0_s=0.5, mu0_k=0.4, weight_load=0.981,
                         a_eff=1.0e-4, q_list=[q, q])
    assert pts[0].prediction == pts[1].prediction
    assert pts[0].state == pts[1].state


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [w.category for w in caught]


def test_friction_curve_states_equal_operating_points():
    # one law for the whole curve: each state and each sonic warning as
    # solve_operating_point gives them at its flow
    qs = [q * M3S_PER_LPM for q in (30.0, 0.0, 12.5, 30.0)]
    points, curve_warnings = _recorded(lambda: friction_curve(
        _B, mu0_s=0.5, mu0_k=0.4, weight_load=0.981, a_eff=1.0e-4,
        q_list=qs))
    states, point_warnings = _recorded(
        lambda: [solve_operating_point(q, _B) for q in qs])
    assert [p.state for p in points] == states
    assert curve_warnings == point_warnings == [SupersonicJetWarning] * 2


def test_friction_curve_rejects_empty():
    with pytest.raises(ValueError):
        friction_curve(_B, mu0_s=0.5, mu0_k=0.4, weight_load=0.981,
                       a_eff=1.0e-4, q_list=[])


@pytest.mark.parametrize("args", [
    (float("nan"), 0.4, 1.0), (0.5, float("nan"), 1.0),
    (0.5, float("inf"), 1.0), (0.5, 0.4, float("nan")),
    (0.5, 0.4, float("inf")),
])
def test_prediction_rejects_non_finite(args):
    mu0_s, mu0_k, weight = args
    with pytest.raises(ValueError, match="finite"):
        predict_coefficients(mu0_s, mu0_k, weight, -2000.0, 1.0e-4)


@pytest.mark.parametrize("weight,a_eff", [
    (float("nan"), 1.0e-4), (float("inf"), 1.0e-4),
    (1.0, float("inf")), (1.0, float("nan")),
])
def test_effective_normal_rejects_non_finite(weight, a_eff):
    with pytest.raises(ValueError, match="finite"):
        effective_normal(weight, -2000.0, a_eff)
