"""The contract of the 13 public value types, pinned type by type.

For each type: the constructor's parameter names, which have defaults
and their values, construction by keyword and by position, the
attribute names and their order (through the ``repr`` text), that no
attribute can be assigned, equality and hashing of equal values, a
``copy`` and ``pickle`` round trip, and ``_fields``, ``_asdict`` and a
``_replace`` that runs the constructor's checks again.

The input types are records of their own type; the result types are
``NamedTuple``s, so they iterate and equal a plain tuple of their values.
"""

import copy
import inspect
import pickle
from typing import Any, NamedTuple

import pytest

from fdrsim import (Device, DeviceGeometry, FitReport, FlapGateGeometry,
                    FrictionCurvePoint, FrictionPrediction, Material,
                    MeasurementRow, MeasurementSet, ModelCoefficients,
                    OperatingState, OptimizationResult, SweepResult)

_GATE = FlapGateGeometry(w=0.008, t=0.0005, h=0.002)
_GATE_REPR = "FlapGateGeometry(w=0.008, t=0.0005, h=0.002)"
_GEOMETRY_REPR = ("DeviceGeometry(a_in=4e-06, a_branch=2e-06, a_ne=4e-07, "
                  f"n_nozzles=2, a_ex=6e-06, a_out=6e-06, "
                  f"channel_width_ref=0.008, gate={_GATE_REPR}, "
                  "split_design_rule=True)")
_MATERIAL = Material(shore_a=10.0, youngs_modulus=400000.0)
_MATERIAL_REPR = "Material(shore_a=10.0, youngs_modulus=400000.0)"
_DEVICE = Device(geometry=DeviceGeometry(), material=_MATERIAL, type_id="B")
_DEVICE_REPR = (f"Device(geometry={_GEOMETRY_REPR}, "
                f"material={_MATERIAL_REPR}, type_id='B')")
_ROW = MeasurementRow(q_in=0.0001, p_in=100.0)
_ROW_REPR = "MeasurementRow(q_in=0.0001, p_in=100.0, p_out=None, a_fg=None)"
_STATES = (OperatingState(q_in=0.0, p_in=0.0, p_chamber=0.0, a_fg=0.0,
                          p_out=0.0),
           OperatingState(q_in=0.0001, p_in=100.0, p_chamber=99.5,
                          a_fg=1e-07, p_out=-5.0))
_STATE_REPR = ("OperatingState(q_in=0.0001, p_in=100.0, p_chamber=99.5, "
               "a_fg=1e-07, p_out=-5.0)")
_PREDICTION = FrictionPrediction(mu_s=0.5, mu_k=0.25, n_eff=2.0)
_PREDICTION_REPR = "FrictionPrediction(mu_s=0.5, mu_k=0.25, n_eff=2.0)"


class _Case(NamedTuple):
    cls: type
    kwargs: dict[str, Any]         # every constructor parameter, in order
    defaults: dict[str, Any]       # the parameters that have a default
    attributes: tuple[str, ...]    # in order
    repr_text: str
    hashable: bool = True
    bad: dict[str, Any] | None = None   # a change the constructor rejects


_CASES = [
    _Case(Material, {"shore_a": 10.0, "youngs_modulus": 400000.0}, {},
          ("shore_a", "youngs_modulus"), _MATERIAL_REPR,
          bad={"shore_a": 100.0}),
    _Case(FlapGateGeometry, {"w": 0.008, "t": 0.0005, "h": 0.002}, {},
          ("w", "t", "h"), _GATE_REPR),
    _Case(DeviceGeometry,
          {"a_in": 4e-06, "a_branch": 2e-06, "a_ne": 4e-07, "n_nozzles": 2,
           "a_ex": 6e-06, "a_out": 6e-06, "channel_width_ref": 0.008,
           "gate": _GATE, "split_design_rule": True},
          {"a_in": 4e-06, "a_branch": 2e-06, "a_ne": 4e-07, "n_nozzles": 2,
           "a_ex": 6e-06, "a_out": 6e-06, "channel_width_ref": 0.008,
           "gate": _GATE, "split_design_rule": True},
          ("a_in", "a_branch", "a_ne", "n_nozzles", "a_ex", "a_out",
           "channel_width_ref", "gate", "split_design_rule"),
          _GEOMETRY_REPR),
    _Case(Device, {"geometry": DeviceGeometry(), "material": _MATERIAL,
                   "type_id": "B"},
          {"type_id": None}, ("geometry", "material", "type_id"),
          _DEVICE_REPR),
    _Case(ModelCoefficients,
          {"c1": 79528125.0, "c2": 35758928571.428566, "eta": 0.25,
           "c_recirc": 2.5, "k0": 1.7e-10, "p_c": 4500.0, "cd_out": 0.8},
          {"c1": 79528125.0, "c2": 35758928571.428566, "eta": 0.25,
           "c_recirc": 2.5, "k0": 1.7e-10, "p_c": 4500.0, "cd_out": 0.8},
          ("c1", "c2", "eta", "c_recirc", "k0", "p_c", "cd_out"),
          "ModelCoefficients(c1=79528125.0, c2=35758928571.428566, "
          "eta=0.25, c_recirc=2.5, k0=1.7e-10, p_c=4500.0, cd_out=0.8)",
          bad={"eta": 0.0}),
    _Case(MeasurementRow, {"q_in": 0.0001, "p_in": 100.0, "p_out": None,
                           "a_fg": None},
          {"p_in": None, "p_out": None, "a_fg": None},
          ("q_in", "p_in", "p_out", "a_fg"), _ROW_REPR,
          bad={"q_in": -1.0}),
    _Case(MeasurementSet, {"rows": (_ROW,)}, {}, ("rows",),
          f"MeasurementSet(rows=({_ROW_REPR},))",
          bad={"rows": (_ROW, MeasurementRow(q_in=0.0001, p_in=1.0))}),
    _Case(OperatingState, {"q_in": 0.0001, "p_in": 100.0, "p_chamber": 99.5,
                           "a_fg": 1e-07, "p_out": -5.0}, {},
          ("q_in", "p_in", "p_chamber", "a_fg", "p_out"), _STATE_REPR),
    _Case(SweepResult, {"states": _STATES, "switching_q": 5e-05,
                        "switching_p_in": 50.0, "max_blow": 0.0,
                        "max_suck": 5.0}, {},
          ("states", "switching_q", "switching_p_in", "max_blow",
           "max_suck"),
          f"SweepResult(states=({_STATES[0]!r}, {_STATE_REPR}), "
          "switching_q=5e-05, switching_p_in=50.0, max_blow=0.0, "
          "max_suck=5.0)", bad={"states": _STATES[::-1]}),
    _Case(OptimizationResult, {"device": _DEVICE, "params": {"w": 0.008},
                               "value": 1.5, "evaluations": 3,
                               "converged": True}, {},
          ("device", "params", "value", "evaluations", "converged"),
          f"OptimizationResult(device={_DEVICE_REPR}, params={{'w': 0.008}}, "
          "value=1.5, evaluations=3, converged=True)", hashable=False),
    _Case(FrictionPrediction, {"mu_s": 0.5, "mu_k": 0.25, "n_eff": 2.0}, {},
          ("mu_s", "mu_k", "n_eff"), _PREDICTION_REPR, bad={"mu_s": -1.0}),
    _Case(FrictionCurvePoint, {"q_in": 0.0001, "state": _STATES[1],
                               "prediction": _PREDICTION}, {},
          ("q_in", "state", "prediction"),
          f"FrictionCurvePoint(q_in=0.0001, state={_STATE_REPR}, "
          f"prediction={_PREDICTION_REPR})"),
    _Case(FitReport, {"coefficients": {"c1": 1.0},
                      "residuals": {"p_in": (3.0, 4.0)},
                      "warnings": ("w",)},
          {"warnings": ()},
          ("coefficients", "rms_residual", "residuals", "warnings"),
          "FitReport(coefficients={'c1': 1.0}, "
          "rms_residual={'p_in': 3.5355339059327378}, "
          "residuals={'p_in': (3.0, 4.0)}, warnings=('w',))",
          hashable=False, bad={"residuals": {"p_in": ()}}),
]

_IDS = [case.cls.__name__ for case in _CASES]
_RESULTS = {OperatingState, SweepResult, OptimizationResult,
            FrictionPrediction, FrictionCurvePoint, FitReport}


@pytest.fixture(params=_CASES, ids=_IDS)
def case(request):
    return request.param


def test_the_cases_cover_every_public_value_type():
    assert len({case.cls for case in _CASES}) == 13


def test_constructor_parameters(case):
    params = inspect.signature(case.cls).parameters
    assert list(params) == list(case.kwargs)
    assert [name for name, p in params.items()
            if p.default is not p.empty] == list(case.defaults)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


def test_keyword_and_positional_construction_agree(case):
    assert case.cls(**case.kwargs) == case.cls(*case.kwargs.values())


def test_defaults(case):
    required = {k: v for k, v in case.kwargs.items()
                if k not in case.defaults}
    value = case.cls(**required)
    for name, default in case.defaults.items():
        assert getattr(value, name) == default


def test_attributes_and_repr(case):
    value = case.cls(**case.kwargs)
    assert repr(value) == case.repr_text
    for name in case.attributes:
        assert f"{name}={getattr(value, name)!r}" in case.repr_text


def test_no_attribute_can_be_assigned(case):
    value = case.cls(**case.kwargs)
    for name in (*case.attributes, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == case.repr_text


def test_equality_and_hash(case):
    value, twin = case.cls(**case.kwargs), case.cls(**case.kwargs)
    assert value == twin and not value != twin
    assert value != object()
    values = tuple(getattr(value, n) for n in case.attributes)
    if case.cls in _RESULTS:
        # a NamedTuple: its values in order, equal to a plain tuple of them
        assert tuple(value) == values and value == values
    else:
        # equal only to its own type: not to a tuple of the same values
        assert value != values
    if case.hashable:
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(case, clone):
    value = case.cls(**case.kwargs)
    twin = clone(value)
    assert type(twin) is case.cls
    assert twin == value
    assert repr(twin) == case.repr_text


def test_fields_asdict_and_replace(case):
    value = case.cls(**case.kwargs)
    assert value._fields == case.attributes
    assert value._asdict() == {n: getattr(value, n) for n in case.attributes}
    # ``copy.replace`` (Python 3.13+) is ``_replace``
    replacers = [value._replace] + ([lambda **changes: copy.replace(
        value, **changes)] if hasattr(copy, "replace") else [])
    for replace in replacers:
        twin = replace()
        assert type(twin) is case.cls and twin == value
        if case.bad is not None:
            with pytest.raises(ValueError):
                replace(**case.bad)


def test_replace_derives_again():
    # a replaced report's RMS comes from its new residuals, and a
    # replaced set collapses its exact repeats
    report = FitReport(coefficients={}, residuals={"p_in": (3.0, 4.0)})
    assert report._replace(residuals={"p_out": (2.0,)}).rms_residual == {
        "p_out": 2.0}
    assert report._replace(rms_residual={}).rms_residual == {
        "p_in": 3.5355339059327378}
    rows = MeasurementSet(rows=(_ROW,))._replace(rows=(_ROW, _ROW)).rows
    assert rows == (_ROW,)
