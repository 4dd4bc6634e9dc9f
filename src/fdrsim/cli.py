"""Command-line front end: config loading, dispatch, CSV/JSON emission.

This is the only layer that speaks display units (L/min, kPa, mm, mm2);
everything behind it is strict SI.  Each output is a table of ``_Column``
specs (name, ``_units.Unit``, SI getter) written by one CSV and one JSON
writer; config keys take their names and scales from the same units.
Numeric CSV fields carry 9 significant digits, a missing value reads
``none`` (JSON ``null``), files end in a newline and comment lines start
with ``#``, so identical invocations produce byte-identical files.  An
existing ``--out`` file is written over in place and cut to length, so it
keeps its inode, mode and links, and a symlink writes its target; the
write is not atomic.  ``--out`` is opened before the command's work: one
that cannot be opened fails first, and a command that fails after that
leaves no new file behind and an existing one as it was.

A JSON file is byte for byte what ``json.dumps(value, indent=2,
sort_keys=True)`` writes, plus a newline.  Every scalar is formatted by
the stdlib's C encoder, not its pure-Python one, which ``indent`` would
select.  A table (sweep rows, friction points) goes from its columns to
the file without row dicts: each column's values are taken once and
encoded in one call, then joined by one template per row.  A CSV row is
one template too: ``%.9g`` for a column of numbers, ``%s`` for one of
strings or of formatted cells.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 fit
failure.  A sweep grid whose step does not divide the range, or that
would exceed ``engine.MAX_GRID_POINTS`` points, is a configuration error,
and so is a flag the command would ignore: ``--target-p-in-kpa`` outside
the switching objective, ``--at-qin-lpm`` in it, ``--max-evals`` with
``calibrate --fit input``, and ``--si`` with ``--format json``.  A flow
given as ``-0`` reads as ``0``.
A ``SupersonicJetWarning`` reaches stderr as one ``warning: <message>``
line per distinct message and call; under an ``error`` warning filter
(``python -W error``, ``PYTHONWARNINGS=error``) it is a solver failure
instead, exit 3 with one ``solver error: <message>`` line.

Each invocation builds only its own command's parser (``_COMMANDS``)
under a root parser whose usage line lists every command, so
``fdr <command> --help`` and every argparse error read as from the full
parser.  ``main`` builds the full parser, with every command's flags,
when the first argument names no command, so ``fdr --help`` and the
errors for a missing or unknown command come from it.  A parser is built
per call, and holds the terminal width of that call, read once.

Each invocation also imports only the modules its command runs:
``calib`` (with ``csv``) is imported by ``calibrate`` and by a
``--coeffs`` file that holds a calibrate report, ``friction`` by
``friction``.  A shell user pays the start-up of one process per
command, and ``simulate``, ``sweep``, ``compare`` and ``optimize`` need
neither module.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import stat
import sys
import warnings
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ._units import (AREA, FLOW, FORCE, LENGTH, M2_PER_CM2, PRESSURE,
                     UNITLESS, Unit)
from . import engine
from .core import (CATALOG_TYPE_IDS, Device, DeviceGeometry, Material,
                   catalog_device, validate_geometry)
from .engine import _DESIGN_KEYS
from .model import (DEFAULT_COEFFS, ModelCoefficients, SupersonicJetWarning,
                    gate_stiffness)

__all__ = ["main"]

_EXIT_CONFIG = 2
_EXIT_SOLVER = 3
_EXIT_FIT = 4


def _fmt(x: float) -> str:
    """Numeric CSV formatting contract: 9 significant digits."""
    return f"{x:.9g}"


_SCALARS = {str, int, float, bool, type(None)}

# json.dumps's C encoder without indent, its items split by newlines, which
# ``ensure_ascii`` escapes inside every string (None where there is no C
# encoder: every call then fails and ``_json_text`` falls back)
_c_encode = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii,
    None, ": ", "\n", True, False, False)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus
    a newline, byte for byte, with every scalar formatted by the C encoder;
    a ``_Table`` is written as its ``_json_records`` list.

    A value the fast path cannot write (a non-finite float, a key or value
    JSON has no form for, a cycle, a table column of non-scalars) goes to
    ``json.dumps``, which raises the stdlib's own error: allow_nan=False
    makes a non-finite number a ValueError (exit 2) instead of invalid JSON.
    """
    try:
        return _json_value(obj, "\n") + "\n"
    except (ValueError, TypeError, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_table_records) + "\n"


def _table_records(obj) -> list[dict]:
    """``json.dumps``'s ``default``: the stdlib's TypeError if no table."""
    if isinstance(obj, _Table):
        return _json_records(obj.columns, obj.records, si=obj.si)
    return json.JSONEncoder().default(obj)


def _json_scalars(values: Sequence) -> list[str]:
    return "".join(_c_encode(values, 0))[1:-1].split("\n")


def _json_items(values: Sequence, nl: str) -> list[str]:
    """Each of ``values`` as JSON: scalars in one C encoder call, anything
    else one value at a time."""
    if set(map(type, values)) <= _SCALARS:
        return _json_scalars(values)
    return [_json_value(v, nl) for v in values]


def _json_value(obj, nl: str) -> str:
    """``obj`` as JSON whose nested lines start with ``nl`` and indent."""
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        items = [f"{inner}{encode_basestring_ascii(k)}: {text}" for k, text
                 in zip(keys, _json_items([obj[k] for k in keys], inner))]
        return "{" + ",".join(items) + nl + "}"
    if isinstance(obj, _Table):
        items = _json_table(obj, inner)
    elif isinstance(obj, (list, tuple)):
        items = _json_items(obj, inner) if obj else []
    else:
        return _json_scalars([obj])[0]
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _open_out(path: str) -> tuple[int, bool]:
    """``--out`` opened for writing, and whether this call created it.

    The path is opened as given: ``pathlib.Path`` would drop a trailing
    slash, and ``results/`` would write a file named ``results``.  An
    existing file is opened in one call, without ``O_TRUNC``; a missing
    one is created with ``O_EXCL``, so the file a failing command removes
    is one it made.  A dangling symlink's target is created as a shell
    redirect creates it, and is not removed.
    """
    try:
        return os.open(path, os.O_WRONLY), False
    except FileNotFoundError:
        pass
    try:
        return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False


def _write_out(fd: int, text: str) -> None:
    # Written over from offset 0, then cut to length, not opened with
    # O_TRUNC: a rerun writes over its own earlier output, and truncating
    # a file that holds data frees its blocks only for the write to
    # allocate them again (ext4 also starts writeback at close).  Bytes,
    # inode, mode and links end as after a truncating open.  Only a
    # regular file is cut: ftruncate fails on a device or FIFO
    # (``--out /dev/null``), which holds no old bytes anyway.
    data = text.encode("utf-8")
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    if stat.S_ISREG(os.fstat(fd).st_mode):
        os.ftruncate(fd, len(data))


# --- output columns -----------------------------------------------------------

class _Column(NamedTuple):
    name: str                    # quantity name, the key without its suffix
    unit: Unit
    get: Callable[[Any], Any]    # record -> SI value


def _display_values(column: _Column, records: Sequence) -> list:
    """The column's display values over ``records`` (Unit.to_display)."""
    values = list(map(column.get, records))
    scale = column.unit.scale
    if scale is None:
        return values
    return [None if x is None else x / scale for x in values]


def _csv_cells(values: Iterable) -> list[str]:
    return [x if x.__class__ is str else "none" if x is None else _fmt(x)
            for x in values]


def _csv_field(values: list) -> tuple[str, list]:
    """A column's field in the CSV row template and the values it takes:
    numbers as ``%.9g`` (the bytes of ``_fmt``), strings as themselves,
    any other column as its ``_csv_cells``."""
    kinds = set(map(type, values))
    if kinds <= {float, int}:
        return "%.9g", values
    return "%s", values if kinds <= {str} else _csv_cells(values)


def _csv_text(columns: Sequence[_Column], records: Sequence, *,
              si: bool = False, comments: Sequence[str] = ()) -> str:
    """CSV in display units; ``si`` appends every dimensioned column in SI.
    Each row is one ``%`` template over the columns' values."""
    si_columns = [c for c in columns if si and c.unit.scale is not None]
    header = ([c.unit.key(c.name) for c in columns]
              + [f"{c.name}_{c.unit.si}" for c in si_columns])
    fields = [_csv_field(_display_values(c, records)) for c in columns]
    fields += [_csv_field(list(map(c.get, records))) for c in si_columns]
    row = ",".join(field for field, _ in fields)
    rows = [row % cells for cells in zip(*(values for _, values in fields))]
    return "\n".join([",".join(header), *rows, *comments]) + "\n"


def _json_records(columns: Sequence[_Column], records: Sequence, *,
                  si: bool = False) -> list[dict]:
    """One JSON object per record in display units; ``si`` adds an ``si``
    object holding every dimensioned column in SI under its bare name."""
    keys = [c.unit.key(c.name) for c in columns]
    objs = [dict(zip(keys, row))
            for row in zip(*(_display_values(c, records) for c in columns))]
    if si:
        si_columns = [c for c in columns if c.unit.scale is not None]
        for obj, rec in zip(objs, records):
            obj["si"] = {c.name: c.get(rec) for c in si_columns}
    return objs


class _Table:
    """Records under columns, written to JSON as their ``_json_records``."""

    __slots__ = ("columns", "records", "si")

    def __init__(self, columns: Sequence[_Column], records: Sequence,
                 si: bool = False) -> None:
        self.columns, self.records, self.si = columns, records, si


def _json_table(table: _Table, nl: str) -> list[str]:
    """Each of the table's records as JSON whose nested lines start with
    ``nl``: each column's values taken once and written in one C encoder
    call, then one ``%`` template per row, its keys sorted."""
    records, columns = table.records, []
    if not (records and table.columns):     # as ``_json_records``: no rows
        return []

    def template(fields: dict, nl: str) -> str:
        # fields: key -> a column's values, or a dict of them (``si``)
        inner, items = nl + "  ", []
        for key in sorted(fields):
            values = fields[key]
            if isinstance(values, dict):
                text = template(values, inner)
            elif set(map(type, values)) <= _SCALARS:
                columns.append(values)
                text = "%s"
            else:
                raise TypeError("a table column holds a non-scalar")
            key = encode_basestring_ascii(key).replace("%", "%%")
            items.append(f"{inner}{key}: {text}")
        return "{" + ",".join(items) + nl + "}" if items else "{}"

    fields = {c.unit.key(c.name): _display_values(c, records)
              for c in table.columns}
    if table.si:
        fields["si"] = {c.name: list(map(c.get, records))
                        for c in table.columns if c.unit.scale is not None}
    row = template(fields, nl)
    return [row % cells for cells in zip(*map(_json_scalars, columns))]


def _state_columns(a_ex: float) -> tuple[_Column, ...]:
    """Columns of one sweep row (an ``engine.OperatingState``)."""
    return (
        _Column("q_in", FLOW, attrgetter("q_in")),
        _Column("p_in", PRESSURE, attrgetter("p_in")),
        _Column("p_chamber", PRESSURE, attrgetter("p_chamber")),
        _Column("a_fg", AREA, attrgetter("a_fg")),
        _Column("a_fg_over_a_ex", UNITLESS, lambda st: st.a_fg / a_ex),
        _Column("p_out", PRESSURE, attrgetter("p_out")),
        _Column("mode", UNITLESS, attrgetter("mode")),
    )


# switching point and extremes of an ``engine.SweepResult``
_SUMMARY_COLUMNS = (
    _Column("switching_q", FLOW, attrgetter("switching_q")),
    _Column("switching_p_in", PRESSURE, attrgetter("switching_p_in")),
    _Column("max_blow", PRESSURE, attrgetter("max_blow")),
    _Column("max_suck", PRESSURE, attrgetter("max_suck")),
)

# one compare row: a (type id, SweepResult) pair
_COMPARE_COLUMNS = (_Column("type", UNITLESS, itemgetter(0)),) + tuple(
    c._replace(get=lambda item, get=c.get: get(item[1]))
    for c in _SUMMARY_COLUMNS)

# one ``friction.FrictionCurvePoint``
_FRICTION_COLUMNS = (
    _Column("q_in", FLOW, attrgetter("q_in")),
    _Column("p_out", PRESSURE, attrgetter("state.p_out")),
    _Column("n_eff", FORCE, attrgetter("prediction.n_eff")),
    _Column("mu_s", UNITLESS, attrgetter("prediction.mu_s")),
    _Column("mu_k", UNITLESS, attrgetter("prediction.mu_k")),
)

# Unit of each device dimension a config file or the optimizer sets.  The
# config key is ``unit.key(field)``; its value must have the field's type.
_DIMENSION_UNITS = {"a_in": AREA, "a_branch": AREA, "a_ne": AREA,
                    "n_nozzles": UNITLESS, "a_ex": AREA, "a_out": AREA,
                    "channel_width_ref": LENGTH,
                    "split_design_rule": UNITLESS,
                    "w": LENGTH, "t": LENGTH, "h": LENGTH}

# one ``engine.OptimizationResult``
_OPTIMIZE_COLUMNS = tuple(
    _Column(key, _DIMENSION_UNITS[key], lambda r, key=key: r.params[key])
    for key in _DESIGN_KEYS) + (
    _Column("objective_value", UNITLESS, attrgetter("value")),
    _Column("evaluations", UNITLESS, attrgetter("evaluations")),
    _Column("converged", UNITLESS, attrgetter("converged")),
)


# --- config loading -----------------------------------------------------------

# each geometry field's type, float, int or bool, read off the defaults
_FIELD_TYPES = {name: type(value)
                for part in (DeviceGeometry(), DeviceGeometry().gate)
                for name, value in part._asdict().items()}
# config key -> (geometry field, unit), e.g. w_mm -> (w, LENGTH)
_CONFIG_FIELDS = {unit.key(name): (name, unit)
                  for name, unit in _DIMENSION_UNITS.items()}
_CONFIG_KEYS = {"type", "shore_a", *_CONFIG_FIELDS}

_COEFF_NAMES = frozenset(ModelCoefficients._fields)


def _config_value(value, kind: type, key: str):
    """A JSON value read as ``kind``: a bool or str as itself, a float from
    a number or numeric string, an int from a whole number."""
    try:
        if kind in (bool, str) or isinstance(value, bool):
            ok = type(value) is kind
        else:
            value = float(value)
            ok = kind is float or value.is_integer()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _read_json_object(path: str, what: str) -> dict:
    # opened as given, as ``--out`` is: ``pathlib.Path`` reads ``dev.json/``
    # as ``dev.json`` and ``''`` as ``.``
    try:
        with open(path, encoding="utf-8-sig") as file:
            raw = json.loads(file.read())
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer past Python's
        # digit limit; RecursionError: nested past the recursion limit
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return raw


def _load_device_config(path: str) -> Device:
    raw = _read_json_object(path, "config")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"config {path}: unknown fields {sorted(unknown)}")

    device = catalog_device(_config_value(raw.get("type", "B"), str, "type"))
    values = {
        name: unit.to_si(_config_value(raw[key], _FIELD_TYPES[name], key))
        for key, (name, unit) in _CONFIG_FIELDS.items() if key in raw}
    g = device.geometry
    gate = g.gate._replace(**{name: values.pop(name)
                              for name in g.gate._fields if name in values})
    g = g._replace(gate=gate, **values)
    material = (Material.from_shore_a(
                    _config_value(raw["shore_a"], float, "shore_a"))
                if "shore_a" in raw else device.material)
    violations = validate_geometry(g)
    if not violations:
        try:
            gate_stiffness(g.gate, material)
        except ValueError as exc:
            violations = [str(exc)]
    if violations:
        raise ValueError(f"config {path} invalid: " + "; ".join(violations))
    return Device(g, material,
                  None if set(raw) - {"type"} else device.type_id)


def _load_coeffs(path: str | None) -> ModelCoefficients:
    if path is None:
        return DEFAULT_COEFFS
    raw = _read_json_object(path, "coefficients")
    unknown = set()
    if isinstance(raw.get("coefficients"), dict):
        # a calibrate-command report: its fields, coefficients among them
        from .calib import FitReport
        unknown = set(raw) - set(FitReport._fields)
        raw = raw["coefficients"]
    unknown |= set(raw) - _COEFF_NAMES
    if unknown:
        raise ValueError(
            f"coefficients {path}: unknown fields {sorted(unknown)}")
    values = {k: _config_value(v, float, k) for k, v in raw.items()}
    try:
        return DEFAULT_COEFFS._replace(**values)
    except ValueError as exc:
        raise ValueError(f"coefficients {path} out of range: {exc}") from exc


def _device_from_args(args: argparse.Namespace) -> Device:
    if args.config is not None:
        return _load_device_config(args.config)
    return catalog_device("B" if args.type is None else args.type)


# --- commands -----------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> None:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    q_lpm = args.qin_lpm + 0.0   # -0 + 0 is 0; any other value is kept
    st = engine.solve_operating_point(FLOW.to_si(q_lpm), device, coeffs)
    a_ex = device.geometry.a_ex
    kpa, mm2 = PRESSURE.to_display, AREA.to_display
    print("\n".join([
        f"q_in      = {_fmt(q_lpm)} L/min ({_fmt(st.q_in)} m^3/s)",
        f"p_in      = {_fmt(kpa(st.p_in))} kPa ({_fmt(st.p_in)} Pa)",
        f"p_chamber = {_fmt(kpa(st.p_chamber))} kPa ({_fmt(st.p_chamber)} Pa)",
        f"a_fg      = {_fmt(mm2(st.a_fg))} mm^2 ({_fmt(st.a_fg)} m^2)"
        f", a_fg/a_ex = {_fmt(st.a_fg / a_ex)}",
        f"p_out     = {_fmt(kpa(st.p_out))} kPa ({_fmt(st.p_out)} Pa)",
        f"mode      = {st.mode}"]))


def _cmd_sweep(args: argparse.Namespace) -> str:
    if args.si and args.format == "json":
        raise ValueError("--si applies only to --format csv")
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    result = engine.sweep(device, coeffs, FLOW.to_si(args.qin_start_lpm),
                          FLOW.to_si(args.qin_end_lpm),
                          FLOW.to_si(args.step_lpm))
    columns = _state_columns(device.geometry.a_ex)
    [summary] = _json_records(_SUMMARY_COLUMNS, [result])
    if args.format == "csv":
        text = _csv_text(columns, result.states, si=args.si, comments=[
            f"# {key}={cell}"
            for key, cell in zip(summary, _csv_cells(summary.values()))])
    else:
        text = _json_text({**summary, "states": _Table(
            columns, result.states, si=True)})
    return text


def _cmd_compare(args: argparse.Namespace) -> str:
    coeffs = _load_coeffs(args.coeffs)
    type_ids = [t.strip() for t in args.types.split(",") if t.strip()]
    if not type_ids:
        raise ValueError("--types must name at least one catalog type")
    table = engine.compare_designs(
        type_ids, coeffs, q_start=FLOW.to_si(args.qin_start_lpm),
        q_end=FLOW.to_si(args.qin_end_lpm), step=FLOW.to_si(args.step_lpm))
    orderings = engine.design_orderings(table)
    if args.format == "csv":
        text = _csv_text(_COMPARE_COLUMNS, list(table.items()), comments=[
            f"# order_{key}=" + ">".join(order)
            for key, order in orderings.items()])
    else:
        text = _json_text({
            "types": dict(zip(table, _json_records(_SUMMARY_COLUMNS,
                                                   list(table.values())))),
            "orderings": {k: list(v) for k, v in orderings.items()},
        })
    return text


def _cmd_calibrate(args: argparse.Namespace) -> str:
    from . import calib
    if args.fit == "input" and args.max_evals is not None:
        raise ValueError("--max-evals applies only to --fit closures")
    if args.data == "builtin":
        data = calib.builtin_calibration_points()
    else:
        data = calib.load_measurements(args.data)
    device = _device_from_args(args)
    start = _load_coeffs(args.coeffs)
    if args.fit == "input":
        (_, report) = calib.fit_input_pressure(data)
    else:
        (_, report) = calib.fit_closures(
            data, device, start=start,
            max_evals=400 if args.max_evals is None else args.max_evals)
    return _json_text(report._asdict())


def _parse_bounds(text: str, unit: Unit, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (unit.to_si(float(p)) for p in text.split(":"))
    except ValueError as exc:   # not two fields, or not numbers
        raise ValueError(f"{flag} expects LO:HI numbers, got {text!r}"
                         ) from exc
    return lo, hi


def _cmd_optimize(args: argparse.Namespace) -> str:
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    if args.objective == "switching":
        if args.at_qin_lpm is not None:
            raise ValueError("--at-qin-lpm applies only to --objective "
                             "suction or blowing")
        target = (PRESSURE.to_si(args.target_p_in_kpa)
                  if args.target_p_in_kpa is not None else None)
        objective = engine.switching_objective(coeffs, target_p_in=target)
    else:
        if args.target_p_in_kpa is not None:
            raise ValueError("--target-p-in-kpa applies only to "
                             "--objective switching")
        q_star = FLOW.to_si(30.0 if args.at_qin_lpm is None
                            else args.at_qin_lpm)
        if args.objective == "suction":
            objective = engine.suction_objective(coeffs, q_star)
        else:
            objective = engine.blowing_objective(coeffs, q_star)

    bounds: dict[str, tuple[float, float]] = {}
    flags = []
    for key in _DESIGN_KEYS:
        unit = _DIMENSION_UNITS[key]
        flag = f"--bounds-{key.replace('_', '')}-{unit.display}"
        flags.append(flag)
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is not None:
            bounds[key] = _parse_bounds(text, unit, flag)
    if not bounds:
        raise ValueError("give at least one of " + ", ".join(flags))
    result = engine.optimize_geometry(objective, bounds, device,
                                      max_evals=args.max_evals)
    if not math.isfinite(result.value):
        raise ValueError("no candidate in the bounds has a finite "
                         "objective value")
    [payload] = _json_records(_OPTIMIZE_COLUMNS, [result])
    return _json_text(payload)


def _cmd_friction(args: argparse.Namespace) -> str:
    from . import friction
    device = _device_from_args(args)
    coeffs = _load_coeffs(args.coeffs)
    try:
        # -0 + 0 is 0; any other value is kept
        q_list = [FLOW.to_si(float(tok) + 0.0)
                  for tok in args.qin_lpm.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--qin-lpm expects comma-separated numbers: {exc}"
                          ) from exc
    if not q_list:
        raise ValueError("--qin-lpm must list at least one flow")
    points = friction.friction_curve(
        device, coeffs, mu0_s=args.mu0_s, mu0_k=args.mu0_k,
        weight_load=args.weight_n, a_eff=args.a_eff_cm2 * M2_PER_CM2,
        q_list=q_list)
    if args.format == "csv":
        text = _csv_text(_FRICTION_COLUMNS, points)
    else:
        text = _json_text(_Table(_FRICTION_COLUMNS, points))
    return text


# --- parser -------------------------------------------------------------------

def _add_device_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    # default None, not "B": argparse counts a flag as given only when its
    # value is not the default object, and an in-process "B" can be that
    # very (interned) string
    group.add_argument("--type", default=None, metavar="LETTER",
                       help="catalog device type, one of "
                            f"{'/'.join(CATALOG_TYPE_IDS)} (default B)")
    group.add_argument("--config", metavar="PATH", default=None,
                       help="device config JSON (unit-suffixed fields, "
                            "e.g. a_ne_mm2, w_mm)")
    sub.add_argument("--coeffs", metavar="PATH", default=None,
                     help="closure coefficients JSON in SI units "
                          "(default: built-in calibrated set)")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--qin-start-lpm", type=float, default=0.0,
                     help="ramp start in L/min (default 0)")
    sub.add_argument("--qin-end-lpm", type=float, default=30.0,
                     help="ramp end in L/min (default 30)")
    sub.add_argument("--step-lpm", type=float, default=0.1,
                     help="grid step in L/min (default 0.1)")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", required=True, metavar="PATH",
                     help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")

def _simulate_flags(sub: argparse.ArgumentParser) -> None:
    _add_device_flags(sub)
    sub.add_argument("--qin-lpm", type=float, required=True,
                     help="supply flow rate in L/min")
    sub.set_defaults(func=_cmd_simulate)


def _sweep_flags(sub: argparse.ArgumentParser) -> None:
    _add_device_flags(sub)
    _add_grid_flags(sub)
    _add_output_flags(sub)
    sub.add_argument("--si", action="store_true",
                     help="append SI columns (m^3/s, Pa, m^2) to the CSV")
    sub.set_defaults(func=_cmd_sweep)


def _compare_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--types", required=True,
                     help="comma-separated catalog letters, e.g. A,B,C")
    sub.add_argument("--coeffs", metavar="PATH", default=None,
                     help="closure coefficients JSON in SI units")
    _add_grid_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_compare)


def _calibrate_flags(sub: argparse.ArgumentParser) -> None:
    _add_device_flags(sub)
    sub.add_argument("--data", required=True, metavar="SOURCE",
                     help="'builtin' for the built-in supply points, or a "
                          "measurement CSV path (q_in_lpm,p_in_kpa,"
                          "p_out_kpa,a_fg_mm2)")
    sub.add_argument("--fit", choices=("input", "closures"), default="input",
                     help="which coefficients to fit (default input)")
    # default None, not 400, so that a given budget, 400 included, is told
    # from none (see ``--type``): ``--fit input`` rejects one, as it would
    # ignore it, and the closures fit takes 400 for None
    sub.add_argument("--max-evals", type=int, default=None,
                     help="evaluation budget for the closures fit "
                          "(default 400)")
    sub.add_argument("--out", required=True, metavar="PATH",
                     help="fit report JSON path")
    sub.set_defaults(func=_cmd_calibrate)


def _optimize_flags(sub: argparse.ArgumentParser) -> None:
    _add_device_flags(sub)
    sub.add_argument("--objective", choices=("switching", "suction",
                                             "blowing"), required=True,
                     help="switching: target/minimize the switching supply "
                          "pressure; suction/blowing: extremize p_out at "
                          "--at-qin-lpm")
    sub.add_argument("--target-p-in-kpa", type=float, default=None,
                     help="switching-pressure target in kPa "
                          "(omit to minimize it)")
    # default None, not 30, so that a given flow, 30 included, is told from
    # none (see ``--type``): the switching objective rejects one, as it
    # would ignore it, and suction and blowing take 30 for None
    sub.add_argument("--at-qin-lpm", type=float, default=None,
                     help="flow in L/min for suction/blowing objectives "
                          "(default 30)")
    sub.add_argument("--bounds-w-mm", metavar="LO:HI", default=None,
                     help="gate width bounds in mm")
    sub.add_argument("--bounds-t-mm", metavar="LO:HI", default=None,
                     help="gate thickness bounds in mm")
    sub.add_argument("--bounds-h-mm", metavar="LO:HI", default=None,
                     help="gate height bounds in mm")
    sub.add_argument("--bounds-ane-mm2", metavar="LO:HI", default=None,
                     help="per-nozzle exit area bounds in mm^2")
    sub.add_argument("--max-evals", type=int, default=400,
                     help="objective evaluation budget (default 400)")
    sub.add_argument("--out", required=True, metavar="PATH",
                     help="result JSON path")
    sub.set_defaults(func=_cmd_optimize)


def _friction_flags(sub: argparse.ArgumentParser) -> None:
    _add_device_flags(sub)
    sub.add_argument("--weight-n", type=float, required=True,
                     help="pad weight in N")
    sub.add_argument("--mu0-s", type=float, default=0.5,
                     help="no-flow static coefficient (default 0.5)")
    sub.add_argument("--mu0-k", type=float, default=0.4,
                     help="no-flow kinetic coefficient (default 0.4)")
    sub.add_argument("--a-eff-cm2", type=float, default=1.0,
                     help="contact area the port pressure acts on, in cm^2 "
                          "(default 1)")
    sub.add_argument("--qin-lpm", default="0,10,20,30",
                     help="comma-separated flows in L/min "
                          "(default 0,10,20,30)")
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_friction)


# name -> (help line, function that adds the command's flags and its
# ``func``); the order is the order ``fdr --help`` lists them in
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "simulate": ("solve one operating point and print it", _simulate_flags),
    "sweep": ("quasi-static ramp to a CSV/JSON file", _sweep_flags),
    "compare": ("sweep several catalog types side by side", _compare_flags),
    "calibrate": ("fit coefficients to measurements", _calibrate_flags),
    "optimize": ("search gate/nozzle dimensions", _optimize_flags),
    "friction": ("predict friction coefficients under flow",
                 _friction_flags),
}


# a token that starts like a negative number: ``-`` then a digit, ``.`` and
# a digit, or inf/infinity/nan in any case (``-1e-5``, ``-.5``, ``-inf``,
# ``-NaN``, a list ``-1,2``, bounds ``-1:2``); no flag starts so
_NEGATIVE_NUMBER = re.compile(r"^-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that every token that starts like a
    negative number is a value, not a flag, so ``--qin-lpm -inf`` reads as
    ``--qin-lpm=-inf``: argparse sorts flags from values before any
    ``type=`` runs, and its own pattern takes only plain decimals.
    ``add_subparsers`` builds the subparsers with the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``fdr`` parser: every command's subparser when ``command`` is
    ``None``, otherwise only ``command``'s, under a root whose usage line
    and errors read the same as the full parser's.

    The terminal width is read once per build: argparse builds a
    ``HelpFormatter`` in every ``add_argument`` to check the metavar, and
    each one without a ``width`` calls ``shutil.get_terminal_size``.  The
    width given is the one argparse would compute, so the text reads the
    same for any ``COLUMNS`` unless the terminal is resized in between."""
    if command is not None and command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="fdr", formatter_class=formatter,
        description="Lumped-parameter simulator for a single-input "
                    "blow/suck flow-reversal device.")
    # a named command's usage line lists every command from a metavar, the
    # string argparse makes from the full parser's choices.  Not on the full
    # parser: there argparse would also name the argument by the metavar in
    # its "required" and "invalid choice" errors, which only it can raise
    subs = parser.add_subparsers(
        dest="command", required=True, prog="fdr",
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        help_text, add_flags = _COMMANDS[name]
        add_flags(subs.add_parser(name, help=help_text,
                                  formatter_class=formatter))
    return parser


def _parser_for(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser ``main`` uses for ``argv``: only the named command's
    subparser when ``argv`` starts with a command, the full parser
    otherwise (no arguments, ``-h``, an unknown command)."""
    return build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)


def _run(args: argparse.Namespace) -> int:
    """``args.func(args)``, with its ``--out`` file, then each distinct jet
    warning it raised as one ``warning: <message>`` line on stderr,
    without the library's source line.  The warnings are recorded under
    the caller's filters, so ``error`` still raises and ``ignore`` prints
    nothing; any other warning is shown as Python shows it.

    A command with ``--out`` returns the file's text.  The file is opened
    before the command's work, so an ``--out`` that cannot be opened fails
    first; a command that fails after that removes the file it created,
    and leaves an existing file's bytes and inode as they were.
    """
    path = getattr(args, "out", None)   # simulate prints instead
    fd, created = _open_out(path) if path is not None else (-1, False)
    caught: list[warnings.WarningMessage] = []
    done = False
    try:
        with warnings.catch_warnings(record=True) as caught:
            text = args.func(args)
        if path is not None:
            _write_out(fd, text)
        done = True
    finally:
        if path is not None:
            os.close(fd)
            if created and not done:
                os.unlink(path)
        reported = set()
        for w in caught:
            if not issubclass(w.category, SupersonicJetWarning):
                warnings.showwarning(w.message, w.category, w.filename,
                                     w.lineno, w.file, w.line)
            elif str(w.message) not in reported:
                reported.add(str(w.message))
                print(f"warning: {w.message}", file=sys.stderr)
    return 0


def _fit_error() -> type[Exception] | tuple[()]:
    """``calib.FitError`` once ``calib`` is imported, else ``()``, which
    matches nothing: only code that has imported ``calib`` can raise it."""
    calib = sys.modules.get(f"{__package__}.calib")
    return () if calib is None else calib.FitError


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser_for(argv).parse_args(argv)
    try:
        return _run(args)
    except _fit_error() as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return _EXIT_FIT
    except (engine.SweepError, SupersonicJetWarning) as exc:
        # the warning escapes only under an ``error`` filter (``-W error``)
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except (ValueError, OSError) as exc:
        # OSError: an unreadable input file or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
