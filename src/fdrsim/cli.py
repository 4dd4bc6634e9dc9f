"""Command-line front end: config loading, dispatch, CSV/JSON emission.

This is the only layer that speaks display units (L/min, kPa, mm, mm2);
everything behind it is strict SI.  Numeric CSV fields carry 9
significant digits, files always end in a newline, and comment lines
start with ``#``, so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 fit
failure.  A sweep grid whose step does not divide the range, or that
would exceed ``engine.MAX_GRID_POINTS`` points, is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from ._units import (M2_PER_CM2, M2_PER_MM2, M3S_PER_LPM, M_PER_MM,
                     PA_PER_KPA)
from . import calib, engine, friction
from .core import (CATALOG_TYPE_IDS, Device, Material, catalog_device,
                   validate_geometry)
from .ejector import DEFAULT_COEFFS, ModelCoefficients
from .gate import opening_ratio

__all__ = ["main"]

_EXIT_CONFIG = 2
_EXIT_SOLVER = 3
_EXIT_FIT = 4


class ConfigError(RuntimeError):
    pass


def _fmt(x: float) -> str:
    """Numeric CSV formatting contract: 9 significant digits."""
    return f"{x:.9g}"


# --- config loading -----------------------------------------------------------

_DEVICE_KEYS = {
    "type": str,
    "shore_a": float,
    "a_in_mm2": float,
    "a_branch_mm2": float,
    "a_ne_mm2": float,
    "n_nozzles": int,
    "a_ex_mm2": float,
    "a_out_mm2": float,
    "channel_width_ref_mm": float,
    "w_mm": float,
    "t_mm": float,
    "h_mm": float,
    "split_design_rule": bool,
}

_COEFF_KEYS = ("c1", "c2", "eta", "c_recirc", "k0", "p_c", "cd_out",
               "cd_gate", "leak_fraction")


def _load_device_config(path: str) -> Device:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_DEVICE_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown fields {sorted(unknown)}")

    device = catalog_device(str(raw.get("type", "B")))
    g = device.geometry
    gate = g.gate
    gate = replace(
        gate,
        w=float(raw["w_mm"]) * M_PER_MM if "w_mm" in raw else gate.w,
        t=float(raw["t_mm"]) * M_PER_MM if "t_mm" in raw else gate.t,
        h=float(raw["h_mm"]) * M_PER_MM if "h_mm" in raw else gate.h,
    )
    g = replace(
        g,
        gate=gate,
        a_in=float(raw["a_in_mm2"]) * M2_PER_MM2 if "a_in_mm2" in raw else g.a_in,
        a_branch=(float(raw["a_branch_mm2"]) * M2_PER_MM2
                  if "a_branch_mm2" in raw else g.a_branch),
        a_ne=float(raw["a_ne_mm2"]) * M2_PER_MM2 if "a_ne_mm2" in raw else g.a_ne,
        n_nozzles=int(raw["n_nozzles"]) if "n_nozzles" in raw else g.n_nozzles,
        a_ex=float(raw["a_ex_mm2"]) * M2_PER_MM2 if "a_ex_mm2" in raw else g.a_ex,
        a_out=float(raw["a_out_mm2"]) * M2_PER_MM2 if "a_out_mm2" in raw else g.a_out,
        channel_width_ref=(float(raw["channel_width_ref_mm"]) * M_PER_MM
                           if "channel_width_ref_mm" in raw
                           else g.channel_width_ref),
        split_design_rule=bool(raw.get("split_design_rule",
                                       g.split_design_rule)),
    )
    material = (Material.from_shore_a(float(raw["shore_a"]))
                if "shore_a" in raw else device.material)
    violations = validate_geometry(g)
    if violations:
        raise ConfigError(f"config {path} invalid: " + "; ".join(violations))
    return replace(device, geometry=g, material=material,
                   type_id=None if set(raw) - {"type"} else device.type_id)


def _load_coeffs(path: str | None) -> ModelCoefficients:
    if path is None:
        return DEFAULT_COEFFS
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read coefficients {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"coefficients {path} not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"coefficients {path} must hold a JSON object")
    if "coefficients" in raw and isinstance(raw["coefficients"], dict):
        raw = raw["coefficients"]  # accept a calibrate-command report
    fields = {k: float(v) for k, v in raw.items() if k in _COEFF_KEYS}
    unknown = set(raw) - set(_COEFF_KEYS) - {"rms_residual", "residuals",
                                             "warnings"}
    if unknown:
        raise ConfigError(
            f"coefficients {path}: unknown fields {sorted(unknown)}")
    try:
        return replace(DEFAULT_COEFFS, **fields)
    except ValueError as exc:
        raise ConfigError(f"coefficients {path} out of range: {exc}") from exc


def _device_from_args(args: argparse.Namespace) -> Device:
    if args.config is not None:
        return _load_device_config(args.config)
    try:
        return catalog_device(args.type)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _state_row(st: engine.OperatingState, a_ex: float, si: bool) -> list[str]:
    row = [
        _fmt(st.q_in / M3S_PER_LPM),
        _fmt(st.p_in / PA_PER_KPA),
        _fmt(st.p_chamber / PA_PER_KPA),
        _fmt(st.a_fg / M2_PER_MM2),
        _fmt(opening_ratio(st.a_fg, a_ex)),
        _fmt(st.p_out / PA_PER_KPA),
        st.mode,
    ]
    if si:
        row += [_fmt(st.q_in), _fmt(st.p_in), _fmt(st.p_chamber),
                _fmt(st.a_fg), _fmt(st.p_out)]
    return row


def _state_json(st: engine.OperatingState, a_ex: float) -> dict:
    return {
        "q_in_lpm": st.q_in / M3S_PER_LPM,
        "p_in_kpa": st.p_in / PA_PER_KPA,
        "p_chamber_kpa": st.p_chamber / PA_PER_KPA,
        "a_fg_mm2": st.a_fg / M2_PER_MM2,
        "a_fg_over_a_ex": opening_ratio(st.a_fg, a_ex),
        "p_out_kpa": st.p_out / PA_PER_KPA,
        "mode": st.mode,
        "si": {"q_in": st.q_in, "p_in": st.p_in, "p_chamber": st.p_chamber,
               "a_fg": st.a_fg, "p_out": st.p_out},
    }


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- commands -----------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    q_in = args.qin_lpm * M3S_PER_LPM
    st = engine.solve_operating_point(q_in, device, coeffs)
    a_ex = device.geometry.a_ex
    print(f"q_in      = {_fmt(args.qin_lpm)} L/min ({_fmt(st.q_in)} m^3/s)")
    print(f"p_in      = {_fmt(st.p_in / PA_PER_KPA)} kPa ({_fmt(st.p_in)} Pa)")
    print(f"p_chamber = {_fmt(st.p_chamber / PA_PER_KPA)} kPa "
          f"({_fmt(st.p_chamber)} Pa)")
    print(f"a_fg      = {_fmt(st.a_fg / M2_PER_MM2)} mm^2 ({_fmt(st.a_fg)} m^2)"
          f", a_fg/a_ex = {_fmt(opening_ratio(st.a_fg, a_ex))}")
    print(f"p_out     = {_fmt(st.p_out / PA_PER_KPA)} kPa ({_fmt(st.p_out)} Pa)")
    print(f"mode      = {st.mode}")
    return 0


_SWEEP_HEADER = ("q_in_lpm,p_in_kpa,p_chamber_kpa,a_fg_mm2,a_fg_over_a_ex,"
                 "p_out_kpa,mode")
_SWEEP_HEADER_SI = _SWEEP_HEADER + ",q_in_m3s,p_in_pa,p_chamber_pa,a_fg_m2,p_out_pa"


def _sweep_comments(result: engine.SweepResult) -> list[str]:
    if result.switching_q is not None:
        sq = _fmt(result.switching_q / M3S_PER_LPM)
        sp = _fmt(result.switching_p_in / PA_PER_KPA)
    else:
        sq = sp = "none"
    return [
        f"# switching_q_lpm={sq}",
        f"# switching_p_in_kpa={sp}",
        f"# max_blow_kpa={_fmt(result.max_blow / PA_PER_KPA)}",
        f"# max_suck_kpa={_fmt(result.max_suck / PA_PER_KPA)}",
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    result = engine.sweep(device, coeffs,
                          args.qin_start_lpm * M3S_PER_LPM,
                          args.qin_end_lpm * M3S_PER_LPM,
                          args.step_lpm * M3S_PER_LPM)
    a_ex = device.geometry.a_ex
    if args.format == "csv":
        lines = [_SWEEP_HEADER_SI if args.si else _SWEEP_HEADER]
        lines += [",".join(_state_row(st, a_ex, args.si))
                  for st in result.states]
        lines += _sweep_comments(result)
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "states": [_state_json(st, a_ex) for st in result.states],
            "switching_q_lpm": (result.switching_q / M3S_PER_LPM
                                if result.switching_q is not None else None),
            "switching_p_in_kpa": (result.switching_p_in / PA_PER_KPA
                                   if result.switching_p_in is not None
                                   else None),
            "max_blow_kpa": result.max_blow / PA_PER_KPA,
            "max_suck_kpa": result.max_suck / PA_PER_KPA,
        }
        _write_text(args.out, _json_text(payload))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    coeffs = _load_coeffs(args.coeffs)
    type_ids = [t.strip() for t in args.types.split(",") if t.strip()]
    if not type_ids:
        raise ConfigError("--types must name at least one catalog type")
    try:
        table = engine.compare_designs(
            type_ids, coeffs,
            q_start=args.qin_start_lpm * M3S_PER_LPM,
            q_end=args.qin_end_lpm * M3S_PER_LPM,
            step=args.step_lpm * M3S_PER_LPM)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    orderings = engine.design_orderings(table)

    def row(tid: str) -> list[str]:
        r = table[tid]
        sq = (_fmt(r.switching_q / M3S_PER_LPM)
              if r.switching_q is not None else "none")
        sp = (_fmt(r.switching_p_in / PA_PER_KPA)
              if r.switching_p_in is not None else "none")
        return [tid, sq, sp, _fmt(r.max_blow / PA_PER_KPA),
                _fmt(r.max_suck / PA_PER_KPA)]

    if args.format == "csv":
        lines = ["type,switching_q_lpm,switching_p_in_kpa,max_blow_kpa,"
                 "max_suck_kpa"]
        lines += [",".join(row(tid)) for tid in table]
        lines += [f"# order_{key}=" + ">".join(order)
                  for key, order in orderings.items()]
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "types": {tid: {
                "switching_q_lpm": (r.switching_q / M3S_PER_LPM
                                    if r.switching_q is not None else None),
                "switching_p_in_kpa": (r.switching_p_in / PA_PER_KPA
                                       if r.switching_p_in is not None
                                       else None),
                "max_blow_kpa": r.max_blow / PA_PER_KPA,
                "max_suck_kpa": r.max_suck / PA_PER_KPA,
            } for tid, r in table.items()},
            "orderings": {k: list(v) for k, v in orderings.items()},
        }
        _write_text(args.out, _json_text(payload))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.data == "builtin":
        data = calib.builtin_calibration_points()
    else:
        data = calib.load_measurements(args.data)
    if args.fit == "input":
        (_, report) = calib.fit_input_pressure(data)
    else:
        device = _device_from_args(args)
        start = _load_coeffs(args.coeffs)
        (_, report) = calib.fit_closures(data, device, start=start,
                                         max_evals=args.max_evals)
    payload = {
        "coefficients": report.coefficients,
        "rms_residual": report.rms_residual,
        "residuals": {k: list(v) for k, v in report.residuals.items()},
        "warnings": list(report.warnings),
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _parse_bounds(text: str | None, scale: float,
                  flag: str) -> tuple[float, float] | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects LO:HI, got {text!r}")
    try:
        lo, hi = (float(p) * scale for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from exc
    return lo, hi


def _cmd_optimize(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    if args.objective == "switching":
        target = (args.target_p_in_kpa * PA_PER_KPA
                  if args.target_p_in_kpa is not None else None)
        objective = engine.switching_objective(coeffs, target_p_in=target)
    elif args.objective == "suction":
        objective = engine.suction_objective(coeffs,
                                             args.at_qin_lpm * M3S_PER_LPM)
    else:
        objective = engine.blowing_objective(coeffs,
                                             args.at_qin_lpm * M3S_PER_LPM)

    bounds: dict[str, tuple[float, float]] = {}
    for key, text, scale, flag in (
            ("w", args.bounds_w_mm, M_PER_MM, "--bounds-w-mm"),
            ("t", args.bounds_t_mm, M_PER_MM, "--bounds-t-mm"),
            ("h", args.bounds_h_mm, M_PER_MM, "--bounds-h-mm"),
            ("a_ne", args.bounds_ane_mm2, M2_PER_MM2, "--bounds-ane-mm2")):
        parsed = _parse_bounds(text, scale, flag)
        if parsed is not None:
            bounds[key] = parsed
    if not bounds:
        raise ConfigError("give at least one of --bounds-w-mm, --bounds-t-mm, "
                          "--bounds-h-mm, --bounds-ane-mm2")
    try:
        result = engine.optimize_geometry(objective, bounds, device,
                                          max_evals=args.max_evals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "w_mm": result.params["w"] / M_PER_MM,
        "t_mm": result.params["t"] / M_PER_MM,
        "h_mm": result.params["h"] / M_PER_MM,
        "a_ne_mm2": result.params["a_ne"] / M2_PER_MM2,
        "objective_value": result.value,
        "evaluations": result.evaluations,
        "converged": result.converged,
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _cmd_friction(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    try:
        q_list = [float(tok) * M3S_PER_LPM
                  for tok in args.qin_lpm.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--qin-lpm expects comma-separated numbers: {exc}"
                          ) from exc
    if not q_list:
        raise ConfigError("--qin-lpm must list at least one flow")
    if args.weight_n <= 0.0:
        raise ConfigError("--weight-n must be positive")
    points = friction.friction_curve(
        device, coeffs, mu0_s=args.mu0_s, mu0_k=args.mu0_k,
        weight_load=args.weight_n, a_eff=args.a_eff_cm2 * M2_PER_CM2,
        q_list=q_list)
    if args.format == "csv":
        lines = ["q_in_lpm,p_out_kpa,n_eff_n,mu_s,mu_k"]
        for pt in points:
            lines.append(",".join([
                _fmt(pt.q_in / M3S_PER_LPM),
                _fmt(pt.state.p_out / PA_PER_KPA),
                _fmt(pt.prediction.n_eff),
                _fmt(pt.prediction.mu_s),
                _fmt(pt.prediction.mu_k),
            ]))
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        payload = [{
            "q_in_lpm": pt.q_in / M3S_PER_LPM,
            "p_out_kpa": pt.state.p_out / PA_PER_KPA,
            "n_eff_n": pt.prediction.n_eff,
            "mu_s": pt.prediction.mu_s,
            "mu_k": pt.prediction.mu_k,
        } for pt in points]
        _write_text(args.out, _json_text(payload))
    return 0


# --- parser -------------------------------------------------------------------

def _add_device_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--type", default="B", metavar="LETTER",
                       help="catalog device type, one of "
                            f"{'/'.join(CATALOG_TYPE_IDS)} (default B)")
    group.add_argument("--config", metavar="PATH", default=None,
                       help="device config JSON (unit-suffixed fields, "
                            "e.g. a_ne_mm2, w_mm)")
    sub.add_argument("--coeffs", metavar="PATH", default=None,
                     help="closure coefficients JSON in SI units "
                          "(default: built-in calibrated set)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdr",
        description="Lumped-parameter simulator for a single-input "
                    "blow/suck flow-reversal device.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate",
                          help="solve one operating point and print it")
    _add_device_flags(sim)
    sim.add_argument("--qin-lpm", type=float, required=True,
                     help="supply flow rate in L/min")
    sim.set_defaults(func=_cmd_simulate)

    sw = subs.add_parser("sweep", help="quasi-static ramp to a CSV/JSON file")
    _add_device_flags(sw)
    sw.add_argument("--qin-start-lpm", type=float, default=0.0,
                    help="ramp start in L/min (default 0)")
    sw.add_argument("--qin-end-lpm", type=float, default=30.0,
                    help="ramp end in L/min (default 30)")
    sw.add_argument("--step-lpm", type=float, default=0.1,
                    help="grid step in L/min (default 0.1)")
    sw.add_argument("--out", required=True, metavar="PATH",
                    help="output file path")
    sw.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    sw.add_argument("--si", action="store_true",
                    help="append SI columns (m^3/s, Pa, m^2) to the CSV")
    sw.set_defaults(func=_cmd_sweep)

    cmp_ = subs.add_parser("compare",
                           help="sweep several catalog types side by side")
    cmp_.add_argument("--types", required=True,
                      help="comma-separated catalog letters, e.g. A,B,C")
    cmp_.add_argument("--coeffs", metavar="PATH", default=None,
                      help="closure coefficients JSON in SI units")
    cmp_.add_argument("--qin-start-lpm", type=float, default=0.0,
                      help="ramp start in L/min (default 0)")
    cmp_.add_argument("--qin-end-lpm", type=float, default=30.0,
                      help="ramp end in L/min (default 30)")
    cmp_.add_argument("--step-lpm", type=float, default=0.1,
                      help="grid step in L/min (default 0.1)")
    cmp_.add_argument("--out", required=True, metavar="PATH",
                      help="output file path")
    cmp_.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="output format (default csv)")
    cmp_.set_defaults(func=_cmd_compare)

    cal = subs.add_parser("calibrate", help="fit coefficients to measurements")
    _add_device_flags(cal)
    cal.add_argument("--data", required=True, metavar="SOURCE",
                     help="'builtin' for the built-in supply points, or a "
                          "measurement CSV path (q_in_lpm,p_in_kpa,"
                          "p_out_kpa,a_fg_mm2)")
    cal.add_argument("--fit", choices=("input", "closures"), default="input",
                     help="which coefficients to fit (default input)")
    cal.add_argument("--max-evals", type=int, default=400,
                     help="evaluation budget for the closures fit "
                          "(default 400)")
    cal.add_argument("--out", required=True, metavar="PATH",
                     help="fit report JSON path")
    cal.set_defaults(func=_cmd_calibrate)

    opt = subs.add_parser("optimize", help="search gate/nozzle dimensions")
    _add_device_flags(opt)
    opt.add_argument("--objective", choices=("switching", "suction",
                                             "blowing"), required=True,
                     help="switching: target/minimize the switching supply "
                          "pressure; suction/blowing: extremize p_out at "
                          "--at-qin-lpm")
    opt.add_argument("--target-p-in-kpa", type=float, default=None,
                     help="switching-pressure target in kPa "
                          "(omit to minimize it)")
    opt.add_argument("--at-qin-lpm", type=float, default=30.0,
                     help="flow in L/min for suction/blowing objectives "
                          "(default 30)")
    opt.add_argument("--bounds-w-mm", metavar="LO:HI", default=None,
                     help="gate width bounds in mm")
    opt.add_argument("--bounds-t-mm", metavar="LO:HI", default=None,
                     help="gate thickness bounds in mm")
    opt.add_argument("--bounds-h-mm", metavar="LO:HI", default=None,
                     help="gate height bounds in mm")
    opt.add_argument("--bounds-ane-mm2", metavar="LO:HI", default=None,
                     help="per-nozzle exit area bounds in mm^2")
    opt.add_argument("--max-evals", type=int, default=400,
                     help="objective evaluation budget (default 400)")
    opt.add_argument("--out", required=True, metavar="PATH",
                     help="result JSON path")
    opt.set_defaults(func=_cmd_optimize)

    fr = subs.add_parser("friction",
                         help="predict friction coefficients under flow")
    _add_device_flags(fr)
    fr.add_argument("--weight-n", type=float, required=True,
                    help="pad weight in N")
    fr.add_argument("--mu0-s", type=float, default=0.5,
                    help="no-flow static coefficient (default 0.5)")
    fr.add_argument("--mu0-k", type=float, default=0.4,
                    help="no-flow kinetic coefficient (default 0.4)")
    fr.add_argument("--a-eff-cm2", type=float, default=1.0,
                    help="contact area the port pressure acts on, in cm^2 "
                         "(default 1)")
    fr.add_argument("--qin-lpm", default="0,10,20,30",
                    help="comma-separated flows in L/min "
                         "(default 0,10,20,30)")
    fr.add_argument("--out", required=True, metavar="PATH",
                    help="output file path")
    fr.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv)")
    fr.set_defaults(func=_cmd_friction)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except calib.FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return _EXIT_FIT
    except engine.SweepError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        # unreadable --data / unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
