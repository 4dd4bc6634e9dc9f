"""The device law: one commanded flow to one steady operating point.

One operating point is a straight chain of four calibrated pieces.  The
gate opening depends on the chamber pressure alone and nothing
downstream feeds back into it, so each step runs once and the chain has
a closed form:

    p_in      = c1 q + c2 q^2
    p_chamber = p_in + (gamma - 1)/(2 gamma) rho (q / a_in)^2
                       (1 - (a_in / (2 a_branch))^2)
    a_fg      = min(a_fg_max, gain max(0, max(0, p_chamber) - p_c)),
                a_fg_max = w h, gain = k0 D_ref / D, D = E t^3 h / w
    s         = a_fg / a_fg_max
    p_out     = (1 - s) p_blow - s p_suck
    p_blow    = rho/2 ((1 - s) q / (cd_out a_out))^2
    p_suck    = eta rho/2 v^2 min(1, a_fg / a_ex) penalty(w),
                v = (q / n_nozzles) / a_ne
    penalty   = 1 / (1 + c_recirc max(0, (w - w_ref)/w_ref)^2)

The chain runs in two stages.  The flow stage, ``p_in``, ``p_chamber``
and ``q / n_nozzles``, depends only on the device's ports and nozzles
and on ``c1``, ``c2``; the finish takes a stage and the gate's and
coefficients' terms to ``a_fg`` and ``p_out``.  A point is the finish of
its flow's stage, so a design search or closure fit that returns to the
same flows computes each one's stage once.  One call per template
(``_design_terms``) sets up both stages, and each binding of a template
here makes that call once and hands its caller the whole binding: the
law, a loop, or the switching search's row guard.

Two searches read only ``p_out``, and only part of the chain moves from
one trial to the next: a closure fit varies ``eta``, ``k0`` and ``p_c``
on one device's measured flows, and a suction or blowing search varies
the gate and nozzles at one flow.  Each has its own loop beside the
finish (``_fit_misfit``, ``_port_p_out``), which stages its own flows.
A loop computes what its search holds fixed once, then runs the rest of
the finish's operations in the finish's order, so it gives the finish's
bits and raises its errors.  A fit's final residuals come from the
device's law at the fitted coefficients.

The working gas is ambient air throughout: density ``rho = 1.204``
kg/m^3 and heat-capacity ratio ``gamma = 1.4``, the same on both sides
of the junction.

*Supply law.*  The inlet gauge pressure, quadratic in flow, with
``c1``/``c2`` fitted to bench data.

*Junction balance.*  The junction feeding the inflatable chambers holds
a static pressure given by a compressible energy balance between the
inlet (area ``a_in``) and one of the two downstream branches (area
``a_branch``).  With ``a_in == 2 a_branch`` the kinetic term vanishes
identically and the junction simply holds the inlet pressure.  The
chambers are dead ends and carry no steady flow.

*Gate compliance.*  The gate is a pair of cantilevered elastomer walls
(width ``w``, thickness ``t``, height ``h``) spanning the exhaust
channel; chamber pressure inflates the side chambers, presses the walls
apart and opens a flow area ``a_fg``.  A full plate solution is overkill
for ranking designs, so the model reduces to a flexural-rigidity proxy
``D = E t^3 h / w`` [N m] that orders gates by how hard they are to push
open, and a saturating linear compliance.  ``k0`` [m^2/Pa] is the
opening gain quoted for the nominal gate (whose stiffness is
``D_ref``), ``p_c`` [Pa] the cracking pressure below which the walls
stay sealed, and ``a_fg_max`` caps the opening at the physical window.
Softer, thinner or wider gates have smaller ``D`` and therefore open
further at the same pressure.

*Jet closure.*  The nozzle bank turns supply flow into a high-speed jet
across the exhaust window.  Whatever fraction ``s`` of the gate window
is open vents that jet and lets it entrain air from the output port
(suction); the sealed fraction forces the flow out through the output
restriction instead (blowing).  The port pressure blends the two
single-mode limits.  ``rho/2 v^2`` is the per-nozzle jet dynamic
pressure, and the recirculation ``penalty`` knocks down entrainment for
gates wider than the reference channel (recirculation in the oversized
cavity).  A gate shut below ``p_c`` blocks the air, so the supply blows
out of the port; no leak path is modelled.

Sign convention throughout: positive ``p_out`` means blowing (air pushed
out of the port), negative means suction.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

from .core import P_ATM, Device, FlapGateGeometry, Material, _Frozen

__all__ = [
    "SupersonicJetWarning",
    "ModelCoefficients",
    "DEFAULT_COEFFS",
    "input_pressure",
    "gate_stiffness",
]


_RHO = 1.204     # air density [kg/m^3]
_GAMMA = 1.4     # air's heat-capacity ratio cp/cv
_HALF_RHO = 0.5 * _RHO
_KINETIC_SCALE = (_GAMMA - 1.0) / (2.0 * _GAMMA) * _RHO   # junction term
_SONIC_SPEED = math.sqrt(_GAMMA * P_ATM / _RHO)          # ambient [m/s]


class SupersonicJetWarning(UserWarning):
    """Nozzle exit velocity exceeds the ambient speed of sound; the
    incompressible jet closure is extrapolating."""


class ModelCoefficients(_Frozen):
    """Calibrated closure coefficients, SI units.

    ``c1`` [Pa s/m^3] and ``c2`` [Pa s^2/m^6] define the supply law
    ``p_in = c1 q + c2 q^2`` fitted to bench data.  ``eta`` is the
    entrainment efficiency, ``c_recirc`` the wide-gate recirculation
    weight, ``k0`` [m^2/Pa] the nominal gate's opening gain, ``p_c``
    [Pa] the cracking pressure, and ``cd_out`` the discharge coefficient
    of the output restriction.
    """

    __slots__ = _fields = ("c1", "c2", "eta", "c_recirc", "k0", "p_c",
                           "cd_out")

    def __init__(self, c1: float = 79528125.0,
                 c2: float = 35758928571.428566, eta: float = 0.25,
                 c_recirc: float = 2.5, k0: float = 1.7e-10,
                 p_c: float = 4500.0, cd_out: float = 0.8) -> None:
        self._set(c1, c2, eta, c_recirc, k0, p_c, cd_out)
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if c1 < 0.0 or c2 < 0.0:
            raise ValueError("supply law coefficients must be nonnegative")
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        if c_recirc < 0.0:
            raise ValueError("c_recirc must be nonnegative")
        if k0 <= 0.0:
            raise ValueError("k0 must be positive")
        if p_c < 0.0:
            raise ValueError("p_c must be nonnegative")
        if not 0.0 < cd_out <= 1.0:
            raise ValueError("cd_out must lie in (0, 1]")


DEFAULT_COEFFS = ModelCoefficients()


def input_pressure(q_in: float, coeffs: ModelCoefficients) -> float:
    """Supply gauge pressure [Pa] delivered at the inlet for a commanded flow,
    following the calibrated law ``p_in = c1 q_in + c2 q_in^2``.  A flow
    that is not finite and nonnegative raises ``ValueError``."""
    _check_flow(q_in)
    return coeffs.c1 * q_in + coeffs.c2 * q_in * q_in


def gate_stiffness(geom: FlapGateGeometry, mat: Material) -> float:
    """Flexural-rigidity proxy D = E t^3 h / w [N m].

    Strictly increasing in modulus, thickness, and height; strictly
    decreasing in width.  Raises ``ValueError`` when D is not positive
    and finite, as when ``t * t * t`` underflows to zero for a gate far
    thinner than any build.
    """
    if geom.w <= 0.0 or geom.t <= 0.0 or geom.h <= 0.0:
        raise ValueError("gate dimensions must be positive")
    if mat.youngs_modulus <= 0.0:
        raise ValueError("youngs_modulus must be positive")
    return _stiffness(mat.youngs_modulus, geom.w, geom.t, geom.h)


def _stiffness(youngs: float, w: float, t: float, h: float) -> float:
    """:func:`gate_stiffness` past its sign checks: ``E t^3 h / w``, which
    must come out positive and finite (``ValueError``)."""
    stiffness = youngs * (t * t * t) * h / w
    if not 0.0 < stiffness < math.inf:
        raise ValueError("gate stiffness E t^3 h / w must be positive "
                         "and finite")
    return stiffness


# stiffness of the nominal gate; anchors the opening gain k0 so that the
# same k0 means the same compliance on the nominal build
_REFERENCE_STIFFNESS = gate_stiffness(FlapGateGeometry(w=8.0e-3, t=0.5e-3,
                                                       h=2.0e-3),
                                      Material.from_shore_a(10.0))


_NOT_FINITE = "operating point is not finite (flow beyond the model's range)"


def _check_flow(q_in: float) -> None:
    if not math.isfinite(q_in):
        raise ValueError("q_in must be finite")
    if q_in < 0.0:
        raise ValueError("q_in must be nonnegative")


_Point = tuple[float, float, float, float]   # p_in, p_chamber, a_fg, p_out
_Law = Callable[[float], _Point]
_Terms = tuple[float, float, float, float]   # a_max, gain, penalty, out_area
_Stage = tuple[float, float, float, float]   # q_in, p_in, p_chamber, q_in / n_nozzles
_Finish = Callable[[_Stage], _Point]


def _design_terms(template: Device, coeffs: ModelCoefficients
                  ) -> tuple[float, Callable[[float], _Stage],
                             Callable[..., _Terms]]:
    """The whole set-up of ``template``'s law that its gate, nozzles and
    closure coefficients leave alone, as ``(split, stage, terms)``.

    ``split = 1 - (a_in / (2 a_branch))^2`` is the junction factor.
    ``stage(q_in)`` is the flow stage, from the template and ``c1, c2``
    alone: it checks the flow, then computes ``p_in``, ``p_chamber`` and
    ``q_in / n_nozzles``; a bad flow, or pressures beyond the float
    range, raise ``ValueError``.  ``terms(w, t, h, a_ne, k0)`` gives the
    other terms with the gate's ``w, t, h``, the nozzles' ``a_ne`` and
    the gain's ``k0`` replaced: ``a_fg_max = w h``, the gain ``k0 D_ref /
    D``, ``penalty(w)`` and ``cd_out a_out``.

    What the template alone fixes is built and checked here, once; each
    call builds and checks the rest.  The checks run in this order, and
    the first to fail raises ``ValueError`` from ``terms``: the areas and
    the junction factor; ``a_fg_max``; the gate's dimensions, ``E`` and
    ``D``, as :func:`gate_stiffness` checks them; the gain; ``a_ex``,
    ``w_ref`` and ``cd_out a_out``; ``a_ne``; ``n_nozzles``.  A template
    check that fails is raised in its place in that order, after the
    candidate's checks that come before it; ``split`` and ``stage`` then
    mean nothing, so a caller stages a flow only after ``terms`` has
    returned, and a failing term is raised first, as in the law.
    """
    g = template.geometry
    youngs = template.material.youngs_modulus
    # the template's first failing check, ``message``, is raised after
    # ``stop`` of the candidate's three groups of checks (a_fg_max and the
    # dimensions; D and the gain; a_ne); 4: none fails
    stop, message = 0, ""
    split = w_ref = out_area = math.nan
    try:
        if g.a_in <= 0.0 or g.a_branch <= 0.0:
            raise ValueError("areas must be positive")
        ratio = g.a_in / (2.0 * g.a_branch)
        square = ratio * ratio
        if square == math.inf and ratio < math.inf:   # out of float range
            raise ValueError(_NOT_FINITE)
        split = 1.0 - square
        stop = 1
        if youngs <= 0.0:
            raise ValueError("youngs_modulus must be positive")
        stop = 2
        if g.a_ex <= 0.0:
            raise ValueError("a_ex must be positive")
        w_ref = g.channel_width_ref
        if w_ref <= 0.0:
            raise ValueError("w_ref must be positive")
        out_area = coeffs.cd_out * g.a_out
        if not 0.0 < out_area < math.inf:
            raise ValueError("cd_out * a_out must be positive and finite")
        stop = 3
        # the row's jet velocity divides by it and by a_ne
        if g.n_nozzles <= 0:
            raise ValueError("n_nozzles must be positive")
        stop = 4
    except ValueError as exc:
        message = str(exc)
    reference = _REFERENCE_STIFFNESS
    c_recirc, inf = coeffs.c_recirc, math.inf

    def terms(w: float, t: float, h: float, a_ne: float, k0: float
              ) -> _Terms:
        if stop == 0:
            raise ValueError(message)
        # each derived divisor or scale positive and finite: a zero or
        # infinite one turns rows into a division by zero or inf * 0 = nan
        a_max = w * h
        if not 0.0 < a_max < inf:
            raise ValueError("a_fg_max must be positive and finite")
        if w <= 0.0 or t <= 0.0 or h <= 0.0:
            raise ValueError("gate dimensions must be positive")
        if stop == 1:
            raise ValueError(message)
        gain = k0 * reference / _stiffness(youngs, w, t, h)
        if not 0.0 < gain < inf:
            raise ValueError("gate gain k0 D_ref / D must be positive "
                             "and finite")
        if stop == 2:
            raise ValueError(message)
        excess = max(0.0, (w - w_ref) / w_ref)
        penalty = 1.0 / (1.0 + c_recirc * excess * excess)
        if a_ne <= 0.0:
            raise ValueError("a_ne must be positive")
        if stop == 3:
            raise ValueError(message)
        return a_max, gain, penalty, out_area

    c1, c2 = coeffs.c1, coeffs.c2
    a_in, n_nozzles = g.a_in, g.n_nozzles
    kinetic_scale = _KINETIC_SCALE

    def stage(q_in: float) -> _Stage:
        if not 0.0 <= q_in < inf:
            _check_flow(q_in)
        p_in = c1 * q_in + c2 * q_in * q_in
        u = q_in / a_in
        p_chamber = p_in + kinetic_scale * (u * u) * split
        if not (-inf < p_in < inf and -inf < p_chamber < inf):
            raise ValueError(_NOT_FINITE)
        return q_in, p_in, p_chamber, q_in / n_nozzles

    return split, stage, terms


def _design_chain(template: Device, coeffs: ModelCoefficients
                  ) -> tuple[Callable[[float], _Stage], Callable[..., _Finish]]:
    """The point law of ``template`` in two stages, ``(stage,
    finish_at)``: with its gate's ``w, t, h``, its nozzles' ``a_ne`` and
    the coefficients' ``eta, k0, p_c`` replaced, the law at ``q_in`` is
    ``finish_at(w, t, h, a_ne, eta, k0, p_c)(stage(q_in))``, the chain in
    this module's docstring.

    ``stage(q_in)`` is the flow stage, and ``finish_at`` builds and
    checks the candidate's terms, both from one :func:`_design_terms`
    call; ``finish_at`` raises the first failing check's ``ValueError``
    and returns ``finish``, the rest of the row: a stage to its (p_in,
    p_chamber, a_fg, p_out).  A caller that returns to the same flows
    computes each one's stage once.

    A switching search binds this to its template once; each candidate
    then pays only for its own terms and the finish of the rows it reads.
    The device's law (:func:`_point_law`) finishes its rows here too: a
    point, a sweep and a fit's final residuals.  Searches that read one
    number per row without the rest of the point have their own loops,
    :func:`_fit_misfit` and :func:`_port_p_out`: the same operations in
    the same order, on what their search holds fixed computed once.  Both
    stages run in the order written, squares as products.  A ``p_out``
    beyond the float range raises ``ValueError`` from ``finish``.  A stage
    is defined only for a template that passes its checks: compute it
    after a ``finish_at`` has returned, so that a failing term is raised
    first, as in the law.
    """
    _, stage, terms_at = _design_terms(template, coeffs)
    a_ex, half_rho, inf = template.geometry.a_ex, _HALF_RHO, math.inf

    def finish_at(w: float, t: float, h: float, a_ne: float, eta: float,
                  k0: float, crack: float) -> _Finish:
        a_max, gain, penalty, out_area = terms_at(w, t, h, a_ne, k0)

        # max(lo, x) as ``x if x > lo else lo``, min(hi, x) as ``x if x < hi
        # else hi``: the builtins' own comparison, without their call cost
        def finish(stage: _Stage) -> _Point:
            q_in, p_in, p_chamber, q_nozzle = stage
            excess = (p_chamber if p_chamber > 0.0 else 0.0) - crack
            opening = gain * (excess if excess > 0.0 else 0.0)
            a_fg = opening if opening < a_max else a_max
            s = a_fg / a_max
            u = (1.0 - s) * q_in / out_area
            p_blow = half_rho * (u * u)
            v = q_nozzle / a_ne
            vent = a_fg / a_ex
            p_suck = (eta * (half_rho * v * v) * (vent if vent < 1.0 else 1.0)
                      * penalty)
            p_out = (1.0 - s) * p_blow - s * p_suck
            # a_fg lies in [0, a_fg_max] by construction
            if not -inf < p_out < inf:
                raise ValueError(_NOT_FINITE)
            return p_in, p_chamber, a_fg, p_out

        return finish

    return stage, finish_at


# a closure fit's measured row: q_in, max(p_chamber, 0), rho/2 v^2, p_ref
_FitRow = tuple[float, float, float, float]


def _fit_misfit(template: Device, coeffs: ModelCoefficients,
                qs: Sequence[float], ps: Sequence[float],
                scale: float) -> Callable[[float, float, float], float]:
    """A closure fit's residual on ``template`` at its own gate and
    nozzles, ``misfit(eta, k0, p_c)``: the sum over the measured flows
    ``qs``, in row order, of ``((p_out - p_ref) / scale)^2``, with
    ``p_ref`` from ``ps`` and ``p_out`` the finish (:func:`_design_chain`)
    at the template's ``w, t, h, a_ne`` and the trial's ``eta, k0, p_c``
    of the flow's stage.  The same bits, and the same ``ValueError`` at
    the same row, as the finish would give.

    Only ``eta``, ``k0`` and ``p_c`` change from trial to trial.  So the
    loop stages the measured flows itself, once, at the first trial whose
    terms pass (so a failing term is still raised before a failing
    stage), and keeps each row's ``q_in``, ``max(p_chamber, 0)``, jet
    term ``rho/2 v^2`` and ``p_ref``; each trial checks its terms and
    runs the rest of the finish on each row, with ``eta rho/2 v^2`` as
    the finish computes it.
    """
    _, stage, terms_at = _design_terms(template, coeffs)
    g = template.geometry
    w, t, h, a_ne, a_ex = g.gate.w, g.gate.t, g.gate.h, g.a_ne, g.a_ex
    half_rho, inf = _HALF_RHO, math.inf
    rows: list[_FitRow] | None = None

    def misfit(eta: float, k0: float, crack: float) -> float:
        nonlocal rows
        a_max, gain, penalty, out_area = terms_at(w, t, h, a_ne, k0)
        if rows is None:
            built = []
            for q, p_ref in zip(qs, ps):
                q_in, _, p_chamber, q_nozzle = stage(q)
                v = q_nozzle / a_ne
                built.append((q_in, p_chamber if p_chamber > 0.0 else 0.0,
                              half_rho * v * v, p_ref))
            rows = built
        total = 0.0
        for q_in, pressure, jet, p_ref in rows:
            excess = pressure - crack
            opening = gain * (excess if excess > 0.0 else 0.0)
            a_fg = opening if opening < a_max else a_max
            s = a_fg / a_max
            u = (1.0 - s) * q_in / out_area
            vent = a_fg / a_ex
            p_out = ((1.0 - s) * (half_rho * (u * u))
                     - s * (eta * jet * (vent if vent < 1.0 else 1.0)
                            * penalty))
            if not -inf < p_out < inf:
                raise ValueError(_NOT_FINITE)
            miss = (p_out - p_ref) / scale
            total += miss * miss
        return total

    return misfit


def _port_p_out(template: Device, coeffs: ModelCoefficients,
                q_star: float) -> Callable[..., float]:
    """``p_out`` at the flow ``q_star`` with ``template``'s gate's ``w, t,
    h`` and its nozzles' ``a_ne`` replaced, as ``port(w, t, h, a_ne)``:
    the finish (:func:`_design_chain`) of the stage at ``q_star``, the
    same bits, and the same ``ValueError``, checks in the same order.

    Only the four dimensions change from candidate to candidate.  So the
    stage's ``q_in`` and ``q_in / n_nozzles`` and the open gate's excess
    pressure ``max(max(p_chamber, 0) - p_c, 0)`` are worked out once, at
    the first candidate whose terms pass (a failing term is still raised
    before a failing stage), and each candidate checks its terms and runs
    the rest of the finish.
    """
    _, stage, terms_at = _design_terms(template, coeffs)
    eta, k0, crack = coeffs.eta, coeffs.k0, coeffs.p_c
    a_ex, half_rho, inf = template.geometry.a_ex, _HALF_RHO, math.inf
    staged = False
    q_in = q_nozzle = excess = math.nan

    def port(w: float, t: float, h: float, a_ne: float) -> float:
        nonlocal staged, q_in, q_nozzle, excess
        a_max, gain, penalty, out_area = terms_at(w, t, h, a_ne, k0)
        if not staged:
            q_in, _, p_chamber, q_nozzle = stage(q_star)
            excess = (p_chamber if p_chamber > 0.0 else 0.0) - crack
            excess = excess if excess > 0.0 else 0.0
            staged = True
        opening = gain * excess
        a_fg = opening if opening < a_max else a_max
        s = a_fg / a_max
        u = (1.0 - s) * q_in / out_area
        v = q_nozzle / a_ne
        vent = a_fg / a_ex
        p_out = ((1.0 - s) * (half_rho * (u * u))
                 - s * (eta * (half_rho * v * v)
                        * (vent if vent < 1.0 else 1.0) * penalty))
        if not -inf < p_out < inf:
            raise ValueError(_NOT_FINITE)
        return p_out

    return port


def _point_law(device: Device, coeffs: ModelCoefficients) -> _Law:
    """The device's own point law: the map from a flow ``q_in`` to its
    (p_in, p_chamber, a_fg, p_out), the finish of the flow's stage
    (:func:`_design_chain`) at the device's own dimensions and
    coefficients, so a device and the same candidate of a design search
    share their bits, checks and messages.

    A bad flow, then a bad term, or pressures beyond the float range
    raise ``ValueError``, from the law.  No warning: callers use
    :func:`_warn_if_sonic`.
    """
    g = device.geometry
    stage, finish_at = _design_chain(device, coeffs)
    try:
        finish = finish_at(g.gate.w, g.gate.t, g.gate.h, g.a_ne, coeffs.eta,
                           coeffs.k0, coeffs.p_c)
    except ValueError as exc:
        message = str(exc)

        def failing(q_in: float) -> _Point:
            _check_flow(q_in)
            raise ValueError(message)

        return failing

    def law(q_in: float) -> _Point:
        return finish(stage(q_in))

    return law


def _no_row_fails(template: Device, coeffs: ModelCoefficients,
                  q_top: float) -> Callable[[_Law], _Point | None]:
    """``guard(law)``, for ``law`` the point law of ``template`` with its
    gate and nozzles replaced: ``law(q_top)``, only if ``law`` returns at
    every flow in ``[0, q_top]``, so a scan may stop early without
    skipping a ``ValueError``; ``None`` otherwise.  ``guard`` calls the law once, at
    ``q_top``, and hands its point back so that a caller need not compute
    it again.  The blocked-gate blowing bound ``rho/2 (q_top / (cd_out
    a_out))^2``, which the template alone fixes, is worked out here once;
    it is inf when it overflows, or when ``cd_out a_out`` is zero, which
    fails every row of the law.

    Every operation of the law, squares included, is a ``+ - * /`` that
    IEEE 754 rounds correctly, so each rounds monotonically; and with
    ``c1, c2 >= 0`` the magnitudes of ``p_in``, of both terms of
    ``p_chamber``, of the blocked flow ``(1 - s) q`` and of the jet
    velocity ``v`` never fall as the flow grows.  So a finite
    ``law(q_top)`` keeps ``p_in`` and ``p_chamber`` finite at every lower
    flow, and ``s = a_fg / a_fg_max`` lies in [0, 1] whatever the gate
    does.  The blowing term is at most its value with the gate shut, the
    blocked-gate bound, and the suction term at most ``eta rho/2
    v_top^2``, as the vent and the penalty lie in [0, 1].  That factor of
    the law's own suction term at ``q_top`` is finite whenever
    ``law(q_top)`` is: were it inf, that term and ``p_out`` would be inf
    or nan (as a nan penalty, ``c_recirc = 0`` times an infinite width
    excess, makes every row's).  So when the blowing bound is finite,
    ``p_out`` is the difference of two finite nonnegative terms and no
    row is inf or nan.  A blowing bound that overflows only means the
    check cannot rule a failure out.
    """
    try:
        u = q_top / (coeffs.cd_out * template.geometry.a_out)
    except ZeroDivisionError:
        bounded = False
    else:
        bounded = _HALF_RHO * (u * u) < math.inf

    def guard(law: _Law) -> _Point | None:
        try:
            top = law(q_top)
        except ValueError:
            return None
        return top if bounded else None

    return guard


def _warn_if_sonic(q_in: float, device: Device) -> None:
    """Warn with :class:`SupersonicJetWarning`, attributed to the caller's
    line, if the jet at ``q_in``, a call's largest flow, tops the ambient
    speed of sound sqrt(gamma P_atm / rho)."""
    g = device.geometry
    _warn_if_jet_sonic(q_in, g.n_nozzles, g.a_ne, stacklevel=3)


def _warn_if_jet_sonic(q_in: float, n_nozzles: int, a_ne: float, *,
                       stacklevel: int = 2) -> bool:
    """:func:`_warn_if_sonic` for the jet of ``n_nozzles`` nozzles of exit
    area ``a_ne`` at ``q_in``, whose velocity is the law's ``(q_in /
    n_nozzles) / a_ne``, attributed to the caller's line at the default
    ``stacklevel``; whether it warned.  A design search passes its
    candidate's ``a_ne``."""
    if (q_in / n_nozzles) / a_ne > _SONIC_SPEED:
        # static message so repeated sweep points collapse to one report
        warnings.warn("jet velocity exceeds the ambient speed of sound; "
                      "the incompressible jet closure is extrapolating",
                      SupersonicJetWarning, stacklevel=stacklevel)
        return True
    return False
