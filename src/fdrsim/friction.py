"""Friction variation under blowing and suction at the output port.

A pad resting on the port with weight ``W`` is measured by the usual
ratios: static coefficient from the force at slip onset, kinetic from the
mean sliding force,

    mu_s = f_slip / W        mu_k = f_mean / W.

The port pressure changes the normal force the surfaces actually carry:
suction (p_out < 0) pulls the pad down over the acting contact area
``a_eff``, blowing (p_out > 0) lifts it, clamped at liftoff,

    n_eff = max(0, W + (-p_out) a_eff).

Reported coefficients keep the weight in the denominator (that is how
the measurement is normalized), so predictions scale the no-flow base
coefficients by ``n_eff / W``.  The relative change above the liftoff
clamp is exactly ``(-p_out) a_eff / W``: suction gains fall off as 1/W.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import Device
from .engine import OperatingState
from .model import (DEFAULT_COEFFS, ModelCoefficients, _point_law,
                    _warn_if_sonic)

__all__ = [
    "FrictionPrediction",
    "FrictionCurvePoint",
    "effective_normal",
    "predict_coefficients",
    "friction_curve",
]

class _PredictionFields(NamedTuple):
    mu_s: float    # static coefficient
    mu_k: float    # kinetic coefficient
    n_eff: float   # effective normal force [N]


class FrictionPrediction(_PredictionFields):
    """Predicted friction coefficients and normal force; every
    construction, ``_replace`` included, checks that each is nonnegative
    and finite."""

    __slots__ = ()

    def __new__(cls, mu_s: float, mu_k: float,
                n_eff: float) -> "FrictionPrediction":
        if not all(0.0 <= x < math.inf for x in (mu_s, mu_k, n_eff)):
            raise ValueError("prediction fields must be nonnegative and "
                             "finite")
        return super().__new__(cls, mu_s, mu_k, n_eff)

    @classmethod
    def _make(cls, iterable) -> "FrictionPrediction":
        return cls(*iterable)


class FrictionCurvePoint(NamedTuple):
    q_in: float                    # [m^3/s]
    state: OperatingState          # solved device state at q_in
    prediction: FrictionPrediction


def effective_normal(weight_load: float, p_out: float, a_eff: float) -> float:
    """Normal force [N] carried by the contact under port pressure.

    Suction adds (-p_out) a_eff, blowing subtracts; clamped at zero when
    blowing lifts the pad off.  A non-finite ``p_out`` raises
    ``ValueError``: the clamp would read a nan pressure as liftoff.
    """
    if not 0.0 <= weight_load < math.inf:
        raise ValueError("weight_load must be nonnegative and finite")
    if not 0.0 < a_eff < math.inf:
        raise ValueError("a_eff must be positive and finite")
    if not math.isfinite(p_out):
        raise ValueError("p_out must be finite")
    return max(0.0, weight_load + (-p_out) * a_eff)


def predict_coefficients(mu0_s: float, mu0_k: float, weight_load: float,
                         p_out: float, a_eff: float) -> FrictionPrediction:
    """Scale no-flow base coefficients by the normal-force change.

    Both coefficients share the factor n_eff / W, so their ratio never
    moves; the relative change is (-p_out) a_eff / W above liftoff.  A
    prediction that overflows to a non-finite value raises ``ValueError``.
    """
    if not (0.0 < mu0_s < math.inf and 0.0 < mu0_k < math.inf):
        raise ValueError("base coefficients must be positive and finite")
    if not 0.0 < weight_load < math.inf:
        raise ValueError("weight_load must be positive and finite")
    n_eff = effective_normal(weight_load, p_out, a_eff)
    factor = n_eff / weight_load
    return FrictionPrediction(mu_s=mu0_s * factor, mu_k=mu0_k * factor,
                              n_eff=n_eff)


def friction_curve(device: Device,
                   coeffs: ModelCoefficients = DEFAULT_COEFFS, *,
                   mu0_s: float, mu0_k: float, weight_load: float,
                   a_eff: float,
                   q_list: Sequence[float]) -> tuple[FrictionCurvePoint, ...]:
    """Predicted coefficients at each supply flow in ``q_list`` for a pad
    of weight ``weight_load`` [N] whose contact area ``a_eff`` [m^2] the
    port pressure acts on; each state equals ``solve_operating_point`` at
    its flow, warning included."""
    if not q_list:
        raise ValueError("q_list must be non-empty")
    law = _point_law(device, coeffs)
    points = []
    for q in q_list:
        state = OperatingState(q, *law(q))
        _warn_if_sonic(q, device)
        prediction = predict_coefficients(mu0_s, mu0_k, weight_load,
                                          state.p_out, a_eff)
        points.append(FrictionCurvePoint(q_in=q, state=state,
                                         prediction=prediction))
    return tuple(points)
