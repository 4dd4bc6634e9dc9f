"""Material law, device catalog, geometry validation, and the package's
public names."""

import importlib
import inspect
import itertools
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import fdrsim
from fdrsim import core, model
from fdrsim import (
    CATALOG_TYPE_IDS,
    Device,
    DeviceGeometry,
    FlapGateGeometry,
    Material,
    catalog_device,
    shore_to_modulus,
    validate_geometry,
    with_gate,
)


def test_modulus_frozen_values():
    # precomputed from the hardness-to-modulus law
    assert shore_to_modulus(10.0) == pytest.approx(413826.0398261825, rel=1e-12)
    assert shore_to_modulus(20.0) == pytest.approx(734494.4077910411, rel=1e-12)
    assert shore_to_modulus(30.0) == pytest.approx(1146782.309460145, rel=1e-12)


def test_modulus_strictly_increasing_and_positive():
    shore = np.linspace(1.0, 99.0, 99)
    e = np.array([shore_to_modulus(s) for s in shore])
    assert np.all(e > 0.0)
    assert np.all(np.diff(e) > 0.0)


@pytest.mark.parametrize("bad", [0.0, -5.0, 100.0, 130.0])
def test_modulus_domain_errors(bad):
    with pytest.raises(ValueError):
        shore_to_modulus(bad)


def test_material_from_shore_a():
    mat = Material.from_shore_a(10.0)
    assert mat.shore_a == 10.0
    assert mat.youngs_modulus == shore_to_modulus(10.0)


def test_material_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        Material(shore_a=10.0, youngs_modulus=0.0)


def test_fluid_validation():
    # the working gas is air, on both sides of the junction
    assert model._RHO == 1.204 and model._GAMMA == 1.4


def test_catalog_nominal_type_b():
    dev = catalog_device("B")
    g = dev.geometry
    assert dev.type_id == "B"
    assert dev.material.shore_a == 10.0
    assert (g.a_in, g.a_branch, g.a_ne) == (4.0e-6, 2.0e-6, 0.4e-6)
    assert (g.a_ex, g.a_out, g.n_nozzles) == (6.0e-6, 6.0e-6, 2)
    assert g.channel_width_ref == 8.0e-3
    assert (g.gate.w, g.gate.t, g.gate.h) == (8.0e-3, 0.5e-3, 2.0e-3)
    assert g.split_design_rule is True


# every non-nominal type deviates from B in exactly one quantity
_DEVIATIONS = {
    "A": ("gate_w", 6.0e-3),
    "C": ("gate_w", 10.0e-3),
    "D": ("gate_t", 0.4e-3),
    "E": ("gate_t", 0.6e-3),
    "F": ("gate_h", 1.8e-3),
    "G": ("gate_h", 1.9e-3),
    "H": ("a_ne", 0.32e-6),
    "I": ("a_ne", 0.48e-6),
    "J": ("shore_a", 20.0),
    "K": ("shore_a", 30.0),
}


def _flatten(dev):
    g = dev.geometry
    return {
        "shore_a": dev.material.shore_a,
        "a_in": g.a_in, "a_branch": g.a_branch, "a_ne": g.a_ne,
        "n_nozzles": g.n_nozzles, "a_ex": g.a_ex, "a_out": g.a_out,
        "channel_width_ref": g.channel_width_ref,
        "gate_w": g.gate.w, "gate_t": g.gate.t, "gate_h": g.gate.h,
    }


def test_catalog_types_deviate_from_b_in_one_field_only():
    assert CATALOG_TYPE_IDS == tuple("ABCDEFGHIJK")
    base = _flatten(catalog_device("B"))
    for tid, (field, value) in _DEVIATIONS.items():
        flat = _flatten(catalog_device(tid))
        assert flat[field] == value, tid
        for key in base:
            if key != field:
                assert flat[key] == base[key], (tid, key)


def test_catalog_rejects_unknown_type():
    with pytest.raises(ValueError, match="A"):
        catalog_device("Z")
    with pytest.raises(ValueError) as exc:
        catalog_device(" z ")
    assert str(exc.value) == ("unknown device type ' z '; valid types: "
                              "A, B, C, D, E, F, G, H, I, J, K")
    assert "Z" not in core._CATALOG_DEVICES


def _built_from_table(type_id: str) -> Device:
    shore_a, a_ne, w, t, h = core._CATALOG[type_id]
    return Device(DeviceGeometry(a_ne=a_ne, gate=FlapGateGeometry(w, t, h)),
                  Material.from_shore_a(shore_a), type_id)


@pytest.mark.parametrize("type_id", CATALOG_TYPE_IDS)
def test_catalog_device_is_built_once_and_shared(type_id):
    device = catalog_device(type_id)
    for spelling in (type_id, type_id.lower(), f" {type_id}\t",
                     f"\n{type_id.lower()}  "):
        assert catalog_device(spelling) is device
    built = _built_from_table(type_id)
    assert device is not built
    assert device == built and repr(device) == repr(built)


def test_catalog_device_copies_leave_the_shared_one_unchanged():
    base = catalog_device("B")
    before = repr(base)
    copies = [with_gate(base, w=7.0e-3), with_gate(base, a_ne=0.3e-6),
              base._replace(type_id=None),
              base._replace(material=Material.from_shore_a(20.0)),
              base._replace(geometry=base.geometry._replace(a_ex=5.0e-6))]
    for changed in copies:
        assert changed is not base and changed != base
    with pytest.raises(AttributeError):
        base.type_id = "C"
    assert catalog_device("B") is base
    assert repr(base) == before and base == _built_from_table("B")


def test_with_gate_overrides_and_clears_type_id():
    base = catalog_device("B")
    dev = with_gate(base, t=0.45e-3, a_ne=0.36e-6)
    assert dev.type_id is None
    assert dev.geometry.gate.t == 0.45e-3
    assert dev.geometry.a_ne == 0.36e-6
    assert dev.geometry.gate.w == base.geometry.gate.w
    assert dev.geometry.gate.h == base.geometry.gate.h
    assert dev.material == base.material
    # the original is untouched
    assert base.geometry.gate.t == 0.5e-3


def _away_from_default(name: str, default):
    """A value for DeviceGeometry field ``name`` that is not its
    ``default``."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 1.25
    if isinstance(default, FlapGateGeometry):
        return FlapGateGeometry(w=9.5e-3, t=0.45e-3, h=1.9e-3)
    raise AssertionError(f"no test value for DeviceGeometry.{name}")


def _with_gate_by_replace(device, **dims):
    gate_dims = {k: v for k, v in dims.items() if k != "a_ne"}
    gate = device.geometry.gate._replace(**gate_dims)
    geometry = device.geometry._replace(
        gate=gate, **{k: v for k, v in dims.items() if k == "a_ne"})
    return device._replace(geometry=geometry, type_id=None)


_GATE_DIMS = {"w": 7.0e-3, "t": 0.35e-3, "h": 2.2e-3, "a_ne": 0.45e-6}


@pytest.mark.parametrize("keys", [
    keys for r in range(len(_GATE_DIMS) + 1)
    for keys in itertools.combinations(_GATE_DIMS, r)], ids=repr)
def test_with_gate_matches_replace_on_every_field(keys):
    # every field away from its default, so a field the constructor drops
    # (and so resets to its default) shows; a field added later of a new
    # type must be given a value in _away_from_default
    fields = DeviceGeometry._fields
    odd = Device(
        geometry=DeviceGeometry(**{
            name: _away_from_default(name, default)
            for name, default in DeviceGeometry()._asdict().items()}),
        material=Material.from_shore_a(20.0), type_id="odd")
    dims = {k: _GATE_DIMS[k] for k in keys}
    for base in (catalog_device("C"), odd):
        got = with_gate(base, **dims)
        want = _with_gate_by_replace(base, **dims)
        assert got == want
        assert got.type_id is None
        assert got.material is base.material
        for name in fields:
            value = getattr(got.geometry, name)
            assert value == getattr(want.geometry, name), name
            assert type(value) is type(getattr(want.geometry, name))
    for name in fields:
        assert (getattr(odd.geometry, name)
                != getattr(DeviceGeometry(), name)), name


def test_validate_geometry_accepts_catalog():
    for tid in CATALOG_TYPE_IDS:
        assert validate_geometry(catalog_device(tid).geometry) == []


def test_validate_geometry_names_offending_field():
    g = DeviceGeometry()._replace(gate=FlapGateGeometry(8.0e-3, 0.0, 2.0e-3))
    messages = validate_geometry(g)
    assert any("gate.t" in m for m in messages)


def test_validate_geometry_rejects_non_finite():
    g = DeviceGeometry()._replace(
        a_ne=math.inf, gate=FlapGateGeometry(math.nan, 0.5e-3, 2.0e-3))
    messages = validate_geometry(g)
    assert any("a_ne" in m and "finite" in m for m in messages)
    assert any("gate.w" in m and "finite" in m for m in messages)


def test_validate_geometry_bounds_the_vent_ratio():
    # a_ex positive and finite, but a_fg / a_ex overflows at a full gate
    g = DeviceGeometry()._replace(a_ex=1e-320)
    assert validate_geometry(g) == ["gate.w * gate.h / a_ex must be finite"]
    assert validate_geometry(g._replace(a_ex=1e-300)) == []


def test_validate_geometry_split_rule():
    g = DeviceGeometry()._replace(a_in=6.0e-6)  # 3x branch area
    messages = validate_geometry(g)
    assert any("a_in" in m and "a_branch" in m for m in messages)
    # turning the rule declaration off silences that check
    g2 = g._replace(split_design_rule=False)
    assert not any("a_branch" in m for m in validate_geometry(g2))


def test_validate_geometry_thin_plate():
    g = DeviceGeometry()._replace(gate=FlapGateGeometry(0.4e-3, 0.5e-3,
                                                        2.0e-3))
    assert any("gate.t" in m and "gate.w" in m
               for m in validate_geometry(g))
    g = DeviceGeometry()._replace(gate=FlapGateGeometry(8.0e-3, 0.5e-3,
                                                        0.4e-3))
    assert any("gate.t" in m and "gate.h" in m
               for m in validate_geometry(g))


_PUBLIC_NAMES = [
    "CATALOG_TYPE_IDS", "DEFAULT_COEFFS", "Device", "DeviceGeometry",
    "FitError", "FitReport", "FlapGateGeometry", "FrictionCurvePoint",
    "FrictionPrediction",
    "MODE_BLOWING", "MODE_NEUTRAL", "MODE_SUCTION", "Material",
    "MeasurementRow", "MeasurementSet", "ModelCoefficients",
    "OperatingState", "OptimizationResult", "P_ATM",
    "SupersonicJetWarning", "SweepError", "SweepResult", "__version__",
    "blowing_objective", "builtin_calibration_points", "catalog_device",
    "compare_designs", "design_orderings", "effective_normal",
    "fit_closures", "fit_input_pressure", "friction_curve",
    "gate_stiffness", "input_pressure", "load_measurements", "nelder_mead",
    "optimize_geometry", "predict_coefficients", "shore_to_modulus",
    "solve_operating_point", "suction_objective", "sweep",
    "switching_objective", "validate_geometry", "with_gate",
]


def test_public_names_pinned_and_resolve():
    assert sorted(fdrsim.__all__) == _PUBLIC_NAMES
    for name in fdrsim.__all__:
        assert getattr(fdrsim, name) is not None


# each public function's parameters and each public class's constructor
# parameters, so a new setting is a test change
_PUBLIC_SETTINGS = {
    "Device": ("geometry", "material", "type_id"),
    "DeviceGeometry": ("a_in", "a_branch", "a_ne", "n_nozzles", "a_ex",
                       "a_out", "channel_width_ref", "gate",
                       "split_design_rule"),
    "FitReport": ("coefficients", "residuals", "warnings"),
    "FlapGateGeometry": ("w", "t", "h"),
    "FrictionCurvePoint": ("q_in", "state", "prediction"),
    "FrictionPrediction": ("mu_s", "mu_k", "n_eff"),
    "Material": ("shore_a", "youngs_modulus"),
    "MeasurementRow": ("q_in", "p_in", "p_out", "a_fg"),
    "MeasurementSet": ("rows",),
    "ModelCoefficients": ("c1", "c2", "eta", "c_recirc", "k0", "p_c",
                          "cd_out"),
    "OperatingState": ("q_in", "p_in", "p_chamber", "a_fg", "p_out"),
    "OptimizationResult": ("device", "params", "value", "evaluations",
                           "converged"),
    "SweepError": ("message", "q_in"),
    "SweepResult": ("states", "switching_q", "switching_p_in", "max_blow",
                    "max_suck"),
    "blowing_objective": ("coeffs", "q_star"),
    "builtin_calibration_points": (),
    "catalog_device": ("type_id",),
    "compare_designs": ("type_ids", "coeffs", "q_start", "q_end", "step"),
    "design_orderings": ("table",),
    "effective_normal": ("weight_load", "p_out", "a_eff"),
    "fit_closures": ("data", "device", "start", "max_evals"),
    "fit_input_pressure": ("data",),
    "friction_curve": ("device", "coeffs", "mu0_s", "mu0_k", "weight_load",
                       "a_eff", "q_list"),
    "gate_stiffness": ("geom", "mat"),
    "input_pressure": ("q_in", "coeffs"),
    "load_measurements": ("path",),
    "nelder_mead": ("f", "x0", "max_evals", "diam_tol"),
    "optimize_geometry": ("objective", "bounds", "device", "start",
                          "max_evals"),
    "predict_coefficients": ("mu0_s", "mu0_k", "weight_load", "p_out",
                             "a_eff"),
    "shore_to_modulus": ("shore_a",),
    "solve_operating_point": ("q_in", "device", "coeffs"),
    "suction_objective": ("coeffs", "q_star"),
    "sweep": ("device", "coeffs", "q_start", "q_end", "step"),
    "switching_objective": ("coeffs", "target_p_in"),
    "validate_geometry": ("g",),
    "with_gate": ("device", "w", "t", "h", "a_ne"),
}


def test_public_settings_pinned():
    # the exceptions without a constructor of their own take what
    # Exception takes, and inspect finds no signature for a builtin
    settings = {}
    for name in fdrsim.__all__:
        obj = getattr(fdrsim, name)
        if callable(obj) and name not in ("FitError", "SupersonicJetWarning"):
            settings[name] = tuple(inspect.signature(obj).parameters)
    assert settings == _PUBLIC_SETTINGS


def test_each_public_name_has_one_home_module():
    # every package-level name is exported by exactly one submodule, and
    # is that module's own object
    modules = [importlib.import_module(f"fdrsim.{info.name}")
               for info in pkgutil.iter_modules(fdrsim.__path__)]
    for name in fdrsim.__all__:
        if name == "__version__":
            continue
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        assert getattr(homes[0], name) is getattr(fdrsim, name)


def test_warning_filter_names_the_public_class():
    # pyproject.toml's pytest filter silences the jet warning by dotted
    # path; a moved class would leave it naming nothing
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml"
            ).read_text(encoding="utf-8")
    path = "fdrsim.SupersonicJetWarning"
    assert path in re.findall(r'"ignore::([\w.]+)"', text)
    module, _, name = path.rpartition(".")
    assert (getattr(importlib.import_module(module), name)
            is fdrsim.SupersonicJetWarning)
