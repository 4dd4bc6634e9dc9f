"""Command-line interface: outputs, formats, and exit codes."""

import argparse
import codecs
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hs

from fdrsim import (CATALOG_TYPE_IDS, DEFAULT_COEFFS, Material,
                    SupersonicJetWarning, calib, catalog_device, cli,
                    friction, sweep)
from fdrsim._units import AREA, FLOW, LENGTH
from fdrsim.cli import (_COMMANDS, _json_text, _load_device_config,
                        _parser_for, build_parser, main)

_GOLDEN = Path(__file__).resolve().parent / "golden"

_SWEEP_HEADER = ("q_in_lpm,p_in_kpa,p_chamber_kpa,a_fg_mm2,a_fg_over_a_ex,"
                 "p_out_kpa,mode")


def _comment_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise AssertionError(f"missing comment {key}")


def test_simulate_reports_suction(capsys):
    assert main(["simulate", "--type", "B", "--qin-lpm", "30"]) == 0
    out = capsys.readouterr().out
    assert "mode      = suction" in out
    assert "p_out" in out and "kPa" in out and "m^3/s" in out


def test_simulate_reports_blowing(capsys):
    assert main(["simulate", "--type", "B", "--qin-lpm", "10"]) == 0
    assert "mode      = blowing" in capsys.readouterr().out


def test_simulate_rest_is_neutral(capsys):
    assert main(["simulate", "--type", "B", "--qin-lpm", "0"]) == 0
    out = capsys.readouterr().out
    assert "mode      = neutral" in out
    assert "p_out     = 0 kPa (0 Pa)" in out


def test_negative_zero_flow_reads_as_zero(tmp_path, capsys):
    outputs = {}
    for flow in ("0", "-0"):
        out = tmp_path / f"mu{flow}.csv"
        assert main(["simulate", "--type", "B", "--qin-lpm", flow]) == 0
        assert main(["friction", "--type", "B", "--weight-n", "1",
                     f"--qin-lpm={flow},1", "--out", str(out)]) == 0
        outputs[flow] = capsys.readouterr().out, out.read_bytes()
    assert outputs["-0"] == outputs["0"]
    simulated, curve = outputs["-0"]
    assert simulated.startswith("q_in      = 0 L/min (0 m^3/s)\n")
    assert curve.splitlines()[1] == b"0,0,1,0.5,0.4"


def test_simulate_unknown_type_exit_config(capsys):
    assert main(["simulate", "--type", "Z", "--qin-lpm", "10"]) == 2
    err = capsys.readouterr().err
    assert "Z" in err and "A" in err and "K" in err


def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["sweep", "--type", "B", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == _SWEEP_HEADER
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(data) == 301
    assert data[0].startswith("0,0,0,0,0,0,neutral")
    # values carry 9 significant digits
    cells = data[150].split(",")
    assert float(cells[0]) == pytest.approx(15.0)
    assert any(len(c.replace(".", "").replace("-", "").lstrip("0")) >= 8
               for c in cells[1:3])
    for key in ("switching_q_lpm", "switching_p_in_kpa",
                "max_blow_kpa", "max_suck_kpa"):
        float(_comment_value(text, key))  # present and numeric


def test_sweep_reruns_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    third = tmp_path / "c.csv"
    args = ["sweep", "--type", "B", "--step-lpm", "0.5"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert main(args + ["--out", str(third)]) == 0
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()


# every command that writes an --out file, on inputs that warn of nothing
_OUT_COMMANDS = {
    "sweep": ["sweep", "--type", "B", "--qin-end-lpm", "10",
              "--step-lpm", "0.5"],
    "compare": ["compare", "--types", "A,B", "--qin-end-lpm", "10",
                "--step-lpm", "0.5"],
    "optimize": ["optimize", "--objective", "suction", "--bounds-w-mm",
                 "6:10", "--at-qin-lpm", "10", "--max-evals", "20"],
    "calibrate": ["calibrate", "--data", "builtin", "--fit", "input"],
    "friction": ["friction", "--weight-n", "1", "--qin-lpm", "5,10"],
}


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@pytest.mark.parametrize("argv", _OUT_COMMANDS.values(), ids=_OUT_COMMANDS)
def test_out_is_rewritten_in_place(tmp_path, argv):
    # the file is written over, not truncated first: a longer old file
    # leaves no stale tail, and the inode, mode and links stay
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out", str(fresh)]) == 0
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~_umask()
    expected = fresh.read_bytes()
    junk = b"junk \xff\n" * 50_000      # 300 KB, longer than any output
    old = tmp_path / "old"
    old.write_bytes(junk)
    old.chmod(0o600)
    inode = old.stat().st_ino
    target = tmp_path / "target"
    target.write_bytes(junk)
    link = tmp_path / "link"
    link.symlink_to(target)
    for out in (old, old, link):
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected
    assert (old.stat().st_ino, old.stat().st_mode & 0o777) == (inode, 0o600)
    assert link.is_symlink() and target.read_bytes() == expected


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
@pytest.mark.parametrize("argv", _OUT_COMMANDS.values(), ids=_OUT_COMMANDS)
def test_out_to_dev_null(capsys, argv):
    # a device cannot be truncated, and has no old bytes to cut
    assert main([*argv, "--out", "/dev/null"]) == 0
    assert capsys.readouterr().err == ""


# commands whose work warns of a sonic jet: the default grid's top flow,
# and a search over all four keys at the default 30 L/min
_WARNING_OUT_COMMANDS = {
    "sweep-default-grid": ["sweep", "--type", "B"],
    "optimize-four-keys": ["optimize", "--objective", "suction",
                           "--bounds-w-mm", "6:10", "--bounds-t-mm",
                           "0.4:0.6", "--bounds-h-mm", "1.8:2.0",
                           "--bounds-ane-mm2", "0.32:0.48"],
}


def _forbid_the_work(monkeypatch):
    """Make every command's work fail the test if it runs."""
    def work(*args, **kwargs):
        raise AssertionError("the command's work ran")

    # calib and friction: the modules the commands import when they run
    for module, name in ((cli.engine, "sweep"),
                         (cli.engine, "compare_designs"),
                         (cli.engine, "optimize_geometry"),
                         (calib, "fit_input_pressure"),
                         (calib, "fit_closures"),
                         (friction, "friction_curve")):
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("out, err", [
    ("adir", "error: [Errno 21] Is a directory: 'adir'\n"),
    ("nodir/x.csv", "error: [Errno 2] No such file or directory: "
                    "'nodir/x.csv'\n"),
    # the path as given, as the shell and ``open`` name it
    ("nodir//x.csv", "error: [Errno 2] No such file or directory: "
                     "'nodir//x.csv'\n"),
    # a trailing slash names a directory, as in a shell redirect, even one
    # that does not exist: no file ``results`` is written
    ("results/", "error: [Errno 21] Is a directory: 'results/'\n"),
], ids=["directory", "missing-parent", "double-slash", "trailing-slash"])
@pytest.mark.parametrize("argv", [*_OUT_COMMANDS.values(),
                                  *_WARNING_OUT_COMMANDS.values()],
                         ids=[*_OUT_COMMANDS, *_WARNING_OUT_COMMANDS])
def test_unwritable_out_exit_config(tmp_path, monkeypatch, capsys, argv, out,
                                    err):
    # --out is opened before the command's work: one error line, and no
    # warning from a sweep or search that never runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    _forbid_the_work(monkeypatch)
    assert main([*argv, "--out", out]) == 2
    assert capsys.readouterr() == ("", err)
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


# each fails after --out is opened: in the grid check, the search's box
# check, the measurements' read, the closures fit and the flow list
_FAILING_OUT_COMMANDS = {
    "sweep": (["sweep", "--type", "B", "--step-lpm", "0.7"], 2),
    "optimize": (["optimize", "--objective", "suction", "--bounds-w-mm",
                  "10:6"], 2),
    "calibrate": (["calibrate", "--data", "nodir/m.csv"], 2),
    "calibrate-closures": (["calibrate", "--data", "builtin", "--fit",
                            "closures"], 4),
    "friction": (["friction", "--weight-n", "1", "--qin-lpm", "5,x"], 2),
}


@pytest.mark.parametrize("argv, code", _FAILING_OUT_COMMANDS.values(),
                         ids=_FAILING_OUT_COMMANDS)
def test_failing_command_leaves_out_as_it_was(tmp_path, monkeypatch, capsys,
                                              argv, code):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "new"]) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "new").exists()
    old = tmp_path / "old"
    old.write_bytes(b"earlier output\n")
    before = old.stat()
    assert main([*argv, "--out", "old"]) == code
    after = old.stat()
    assert old.read_bytes() == b"earlier output\n"
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
        (before.st_ino, before.st_size, before.st_mtime_ns)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]


def test_existing_out_is_opened_once(tmp_path, monkeypatch):
    # a rerun onto its own earlier output opens the file with one call,
    # as before --out was opened ahead of the work; a new file is made
    # with O_EXCL after a first call finds none
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args):
        opened.append((path, flags))
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", recording_open)
    out = str(tmp_path / "s.csv")
    argv = [*_OUT_COMMANDS["sweep"], "--out", out]
    assert main(argv) == 0
    assert opened == [(out, os.O_WRONLY),
                      (out, os.O_WRONLY | os.O_CREAT | os.O_EXCL)]
    opened.clear()
    assert main(argv) == 0
    assert opened == [(out, os.O_WRONLY)]


def test_sweep_si_columns(tmp_path):
    out = tmp_path / "si.csv"
    assert main(["sweep", "--type", "B", "--step-lpm", "5",
                 "--out", str(out), "--si"]) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",q_in_m3s,p_in_pa,p_chamber_pa,a_fg_m2,p_out_pa")


def test_sweep_json_format(tmp_path):
    out = tmp_path / "b.json"
    assert main(["sweep", "--type", "B", "--step-lpm", "5",
                 "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["states"]) == 7
    assert payload["states"][-1]["mode"] == "suction"
    assert payload["switching_q_lpm"] is not None


def test_sweep_shorter_gate_switches_earlier(tmp_path):
    out_b = tmp_path / "b.csv"
    out_f = tmp_path / "f.csv"
    assert main(["sweep", "--type", "B", "--step-lpm", "0.5",
                 "--out", str(out_b)]) == 0
    assert main(["sweep", "--type", "F", "--step-lpm", "0.5",
                 "--out", str(out_f)]) == 0
    sw_b = float(_comment_value(out_b.read_text("utf-8"), "switching_p_in_kpa"))
    sw_f = float(_comment_value(out_f.read_text("utf-8"), "switching_p_in_kpa"))
    assert sw_f < sw_b


def test_compare_orders_widths(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--types", "A,B,C", "--step-lpm", "0.5",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == ("type,switching_q_lpm,switching_p_in_kpa,"
                        "max_blow_kpa,max_suck_kpa")
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]
            if ln and not ln.startswith("#")}
    sw = {t: float(rows[t][2]) for t in ("A", "B", "C")}
    assert sw["A"] > sw["B"] > sw["C"]
    assert _comment_value(text, "order_switching_p_in") == "A>B>C"


def test_compare_rejects_unknown_type(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--types", "A,Q", "--out", str(out)]) == 2


def test_compare_rejects_repeated_type(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["compare", "--types", "A,A,b", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "repeated type ids: A" in err and "Traceback" not in err
    assert not out.exists()


def test_calibrate_builtin(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", "builtin", "--fit", "input",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["rms_residual"]["p_in"] <= 2.5e3
    assert payload["coefficients"]["c1"] > 0.0
    assert len(payload["residuals"]["p_in"]) == 6


def test_calibrate_then_reuse_coefficients(tmp_path):
    fit = tmp_path / "fit.json"
    assert main(["calibrate", "--data", "builtin", "--fit", "input",
                 "--out", str(fit)]) == 0
    assert main(["simulate", "--type", "B", "--qin-lpm", "20",
                 "--coeffs", str(fit)]) == 0


def test_calibrate_missing_file_exit_config(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(tmp_path / "nope.csv"),
                 "--fit", "input", "--out", str(out)]) == 2


def test_calibrate_malformed_data_exit_fit(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("flow,p\n1,2\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(bad), "--fit", "input",
                 "--out", str(out)]) == 4


@pytest.mark.parametrize("rows, line, message", [
    ("1,abc\n", 2, "could not convert string to float: 'abc'"),
    ("1,2\n,\n3,nan\n", 4, "p_in must be finite"),
    ("1,2\n-1,3\n", 3, "q_in must be nonnegative"),
    ("1,2\n5,5,4\n", 3, "3 cells, but the header has 2"),
    # the csv module's own error, raised before the row is read whole
    ("1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n", 3,
     f"field larger than field limit ({csv.field_size_limit()})"),
], ids=["not-a-number", "nan-after-a-blank-row", "negative-flow",
        "decimal-comma", "oversized-cell"])
def test_calibrate_bad_measurement_cell_names_its_line(tmp_path, capsys,
                                                      rows, line, message):
    # a bad cell is a configuration error that names the file and the
    # line it sits on; a blank flow still skips its row but counts a line
    bad = tmp_path / "bad.csv"
    bad.write_text("q_in_lpm,p_in_kpa\n" + rows, encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(bad), "--fit", "input",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: measurements {bad} line {line}: {message}\n"
    assert not out.exists()


def _assert_input_error(capsys, argv, out, prefix):
    """``argv`` (given ``--out out``) exits 2 with one stderr line that
    starts with ``prefix``, and leaves no ``--out`` file behind."""
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    # json.loads raises RecursionError past the recursion limit
    "[" * 100_000 + "]" * 100_000,
    # and ValueError on an integer past the digit limit (3.10.7, 3.11)
    pytest.param('{"eta": 1' + "0" * 5000 + "}", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no integer digit limit")),
], ids=["deep", "long-integer"])
@pytest.mark.parametrize("flag, what", [("--config", "config"),
                                        ("--coeffs", "coefficients")])
def test_unreadable_json_names_the_file(tmp_path, capsys, text, flag, what):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    _assert_input_error(capsys, ["sweep", flag, str(bad)],
                        tmp_path / "o.csv",
                        f"error: {what} {bad} is not valid JSON: ")


@pytest.mark.parametrize("flags, what", [
    (["--data", "builtin", "--config"], "config {} is not valid JSON"),
    (["--data", "builtin", "--coeffs"], "coefficients {} is not valid JSON"),
    (["--data"], "measurements {} is not UTF-8"),
], ids=["config", "coeffs", "measurements"])
def test_input_file_not_utf8_names_the_file(tmp_path, capsys, flags, what):
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"\xffq_in_lpm,p_in_kpa\n1,2\n")
    _assert_input_error(capsys, ["calibrate", *flags, str(bad)],
                        tmp_path / "fit.json",
                        "error: " + what.format(bad)
                        + ": 'utf-8' codec can't decode byte 0xff in "
                          "position 0")


def test_calibrate_closures_from_file(tmp_path):
    data = tmp_path / "meas.csv"
    data.write_text(
        "q_in_lpm,p_in_kpa,p_out_kpa\n"
        "5,5.4,0.08\n"
        "15,21.1,-1.5\n"
        "25,41.1,-15.0\n",
        encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(data), "--fit", "closures",
                 "--max-evals", "60", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload["coefficients"]) == {"eta", "c_recirc", "k0", "p_c"}


@pytest.mark.parametrize("flag", ["--type", "--coeffs", "--config"])
def test_calibrate_input_checks_device_flags(tmp_path, capsys, flag):
    # the supply-law fit uses no device, but reads the flags as the
    # closures fit does: a bad one is a configuration error
    value = "ZZ" if flag == "--type" else str(tmp_path / "missing.json")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", "builtin", "--fit", "input",
                 flag, value, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name, golden", [
    (["calibrate", "--fit", "input", "--data"], "measurements.csv",
     "calibrate_input_csv.json"),
    (["simulate", "--qin-lpm", "12.5", "--config"], "device.json",
     "simulate_config_12.txt"),
    (["simulate", "--type", "B", "--qin-lpm", "30", "--coeffs"],
     "calibrate_closures.json", "simulate_B_30_fitted.txt"),
], ids=["csv", "config", "coeffs"])
def test_input_file_with_bom_reads_as_without(tmp_path, capsys, argv, name,
                                              golden):
    # a spreadsheet export starts with a UTF-8 byte-order mark: the input
    # gives the golden output of the same file without one
    bom = tmp_path / name
    bom.write_bytes(codecs.BOM_UTF8 + (_GOLDEN / name).read_bytes())
    out = tmp_path / "out.json"
    if argv[0] == "calibrate":
        assert main([*argv, str(bom), "--out", str(out)]) == 0
        written = out.read_bytes()
    else:
        assert main([*argv, str(bom)]) == 0
        written = capsys.readouterr().out.encode("utf-8")
    assert written == (_GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--qin-lpm", "10", "--config"], "device.json"),
    (["simulate", "--qin-lpm", "10", "--coeffs"], "calibrate_closures.json"),
    (["calibrate", "--fit", "input", "--data"], "measurements.csv"),
], ids=["config", "coeffs", "data"])
def test_input_path_is_opened_as_given(tmp_path, capsys, argv, name):
    # as --out: a trailing slash is not dropped (the file read as a
    # directory), and an empty path names no file (not the directory ".")
    good = tmp_path / name
    good.write_bytes((_GOLDEN / name).read_bytes())
    out = tmp_path / "out.json"
    tail = ["--out", str(out)] if argv[0] == "calibrate" else []
    for path, reason in [(f"{good}/", "[Errno 20] Not a directory"),
                         ("", "[Errno 2] No such file or directory")]:
        assert main([*argv, path, *tail]) == 2
        assert capsys.readouterr() == ("", f"error: {reason}: {path!r}\n")
        assert not out.exists()
    assert main([*argv, str(good), *tail]) == 0


def test_friction_table(tmp_path):
    out = tmp_path / "mu.csv"
    assert main(["friction", "--type", "B", "--weight-n", "0.981",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "q_in_lpm,p_out_kpa,n_eff_n,mu_s,mu_k"
    mu = {float(ln.split(",")[0]): float(ln.split(",")[3])
          for ln in lines[1:] if ln and not ln.startswith("#")}
    assert mu[10.0] < mu[0.0] < mu[20.0] < mu[30.0]


def test_friction_rejects_bad_weight(tmp_path):
    out = tmp_path / "mu.csv"
    assert main(["friction", "--type", "B", "--weight-n", "-1",
                 "--out", str(out)]) == 2


def test_friction_rejects_bad_flow_list(tmp_path):
    out = tmp_path / "mu.csv"
    assert main(["friction", "--type", "B", "--weight-n", "1",
                 "--qin-lpm", "0,ten,20", "--out", str(out)]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--weight-n", "nan"), ("--mu0-s", "nan"), ("--mu0-k", "nan"),
    ("--a-eff-cm2", "inf"),
])
def test_friction_non_finite_flag_exit_config(tmp_path, capsys, flag, value):
    out = tmp_path / "mu.csv"
    assert main(["friction", "--type", "B", "--weight-n", "1", flag, value,
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")])
def test_json_writer_rejects_non_finite(value):
    # JSON has no Infinity or NaN: raise (exit 2) instead of writing them
    with pytest.raises(ValueError):
        _json_text({"states": [{"p_out_kpa": value}]})


@pytest.mark.parametrize("flags", [
    ["--weight-n", "1e308", "--a-eff-cm2", "1e308", "--format", "json"],
    ["--weight-n", "1e-320"],
])
def test_friction_overflowing_prediction_exit_config(tmp_path, capsys,
                                                     flags):
    out = tmp_path / "mu.out"
    assert main(["friction", "--type", "B", *flags, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# a box whose narrowest or lowest gate is no thicker than its wall
@pytest.mark.parametrize("bounds,violation", [
    (["--bounds-w-mm", "0.1:0.4"], "gate.t must be smaller than gate.w"),
    (["--bounds-t-mm", "5:6"], "gate.t must be smaller than gate.h"),
])
def test_optimize_invalid_geometry_bounds_exit_config(tmp_path, capsys,
                                                      bounds, violation):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "suction", *bounds,
                 "--max-evals", "10", "--out", str(out)]) == 2
    assert violation in capsys.readouterr().err
    assert not out.exists()


def test_optimize_non_finite_objective_exit_config(tmp_path, capsys):
    # every candidate overflows at this flow: no finite value to report
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "suction", "--at-qin-lpm",
                 "1e200", "--bounds-h-mm", "1.8:2", "--max-evals", "10",
                 "--out", str(out)]) == 2
    assert "finite objective value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--objective", "suction", "--at-qin-lpm", "nan"],
    ["--objective", "blowing", "--at-qin-lpm", "inf"],
    ["--objective", "suction", "--at-qin-lpm", "-5"],
    ["--objective", "switching", "--target-p-in-kpa", "nan"],
    ["--objective", "switching", "--bounds-h-mm", "1.8:inf"],
])
def test_optimize_non_finite_flag_exit_config(tmp_path, capsys, flags):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--bounds-h-mm", "1.8:2.0", *flags,
                 "--max-evals", "10", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# a flag the command would ignore, even at its documented default value
@pytest.mark.parametrize("argv, flag", [
    (["optimize", "--objective", "suction", "--bounds-w-mm", "6:10",
      "--target-p-in-kpa", "10"], "--target-p-in-kpa"),
    (["optimize", "--objective", "blowing", "--bounds-w-mm", "6:10",
      "--target-p-in-kpa", "10"], "--target-p-in-kpa"),
    (["optimize", "--objective", "switching", "--bounds-h-mm", "1.8:2.0",
      "--at-qin-lpm", "5"], "--at-qin-lpm"),
    (["optimize", "--objective", "switching", "--bounds-h-mm", "1.8:2.0",
      "--at-qin-lpm", "30"], "--at-qin-lpm"),
    (["calibrate", "--data", "builtin", "--fit", "input", "--max-evals",
      "10"], "--max-evals"),
    (["calibrate", "--data", "builtin", "--fit", "input", "--max-evals",
      "400"], "--max-evals"),
    (["sweep", "--type", "B", "--format", "json", "--si"], "--si"),
], ids=["suction-target", "blowing-target", "switching-flow",
        "switching-default-flow", "input-budget", "input-default-budget",
        "json-si"])
def test_ignored_flag_exit_config(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} applies only to ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    (["optimize", "--objective", "suction", "--bounds-w-mm", "6:10",
      "--max-evals", "20"], ["--at-qin-lpm", "30"]),
    (["optimize", "--objective", "blowing", "--bounds-t-mm", "0.4:0.6",
      "--max-evals", "20"], ["--at-qin-lpm", "30"]),
    (["calibrate", "--data", str(_GOLDEN / "measurements.csv"), "--fit",
      "closures"],
     ["--max-evals", "400"]),
], ids=["suction", "blowing", "closures"])
def test_omitted_flag_takes_its_default(tmp_path, argv, flags):
    # the flags default to None, so that a given one can be told from none;
    # left out, each still means its documented default
    outs = tmp_path / "omitted.json", tmp_path / "given.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        assert main([*argv, "--out", str(outs[0])]) == 0
        assert main([*argv, *flags, "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("max_evals", ["0", "-5"])
def test_optimize_zero_volume_box_budget_exit_config(tmp_path, capsys,
                                                     max_evals):
    # a zero-volume box is searched like any box, under the same budget
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "suction", "--bounds-h-mm",
                 "1.9:1.9", "--max-evals", max_evals, "--out", str(out)]) == 2
    assert ("max_evals too small for the initial simplex"
            in capsys.readouterr().err)
    assert not out.exists()


def test_optimize_zero_volume_box_writes_value_as_any_box(tmp_path):
    # at zero flow p_out is 0.0, so the blowing objective is -0.0 before
    # the search adds its in-box penalty of 0.0
    values = []
    for box in ("1.9:1.9", "1.8:2.0"):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--objective", "blowing", "--at-qin-lpm",
                     "0", "--bounds-h-mm", box, "--max-evals", "10",
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        values.append(re.search(r'"objective_value": (\S+?),?\n',
                                text).group(1))
    assert values[0] == values[1] == "0.0"


def test_optimize_height_hits_lower_bound(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "switching",
                 "--bounds-h-mm", "1.8:2.0", "--max-evals", "80",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["h_mm"] == pytest.approx(1.8, rel=1e-6)
    assert payload["converged"] is True
    assert payload["evaluations"] <= 80


def test_optimize_requires_bounds(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "switching",
                 "--out", str(out)]) == 2


def test_optimize_rejects_malformed_bounds(tmp_path):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--objective", "switching",
                 "--bounds-h-mm", "1.8", "--out", str(out)]) == 2


def test_device_config_file(tmp_path, capsys):
    cfg = tmp_path / "h_like.json"
    cfg.write_text(json.dumps({"type": "B", "a_ne_mm2": 0.32}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--qin-lpm", "20"]) == 0
    from_cfg = capsys.readouterr().out
    assert main(["simulate", "--type", "H", "--qin-lpm", "20"]) == 0
    from_type = capsys.readouterr().out
    assert from_cfg == from_type


def test_device_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"type": "B", "nozzle_mm2": 0.4}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--qin-lpm", "10"]) == 2


def test_device_config_rejects_invalid_geometry(tmp_path, capsys):
    cfg = tmp_path / "wall.json"
    cfg.write_text(json.dumps({"type": "B", "t_mm": 0.0}), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--qin-lpm", "10"]) == 2
    assert "gate.t" in capsys.readouterr().err


def test_simulate_thin_gate_config_exit_config(tmp_path, capsys):
    # t ** 3 underflows: a gate with no stiffness is rejected at load
    cfg = tmp_path / "thin.json"
    cfg.write_text(json.dumps({"type": "B", "t_mm": 1e-105}),
                   encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--qin-lpm", "10"]) == 2
    captured = capsys.readouterr()
    assert "gate stiffness" in captured.err
    assert captured.out == ""


def test_sweep_thin_gate_config_exit_config(tmp_path, capsys):
    cfg = tmp_path / "thin.json"
    cfg.write_text(json.dumps({"type": "B", "t_mm": 1e-105}),
                   encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "gate stiffness" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--qin-lpm", "20"],
    ["sweep", "--step-lpm", "5", "--out"],
    ["sweep", "--step-lpm", "5", "--format", "json", "--out"],
])
def test_config_tiny_a_ex_exit_config(tmp_path, capsys, argv):
    # a_fg / a_ex would read inf in CSV and stdout, and JSON has no inf:
    # every command rejects the config with the same line
    cfg = tmp_path / "tiny_vent.json"
    cfg.write_text(json.dumps({"type": "B", "a_ex_mm2": 1e-314}),
                   encoding="utf-8")
    out = tmp_path / "s.out"
    argv = argv + [str(out)] if argv[-1] == "--out" else argv
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: config {cfg} invalid: "
                            "gate.w * gate.h / a_ex must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("w_mm", "nan"), ("a_ne_mm2", "inf"),
    # JSON values of the wrong type
    ("w_mm", None), ("w_mm", True), ("split_design_rule", "false"),
    ("n_nozzles", 2.7), ("n_nozzles", None), ("shore_a", None),
    ("type", 5),
])
def test_device_config_rejects_non_finite(tmp_path, capsys, key, value):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({"type": "B", key: value}), encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--step-lpm", "5",
                 "--out", str(out)]) == 2
    expected = ("must be positive and finite" if value in ("nan", "inf")
                else f"{key} must be ")
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_coeffs_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    # cd_gate is not a coefficient: the gate path has no discharge law;
    # leak_fraction is gone too: a shut gate blows, it needs no leak
    # a report's own fields belong at its top level, and only there
    for raw in ({"ETA": 0.1}, {"cd_gate": 0.8}, {"leak_fraction": 0.02},
                {"eta": 0.3, "warnings": "junk"},
                {"coefficients": {"eta": 0.3, "warnings": 5}},
                {"coefficients": {"eta": 0.3}, "foo": 1}):
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["simulate", "--type", "B", "--qin-lpm", "10",
                     "--coeffs", str(cfg)]) == 2
        assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("flow", ["nan", "inf"])
def test_simulate_non_finite_flow_exit_config(flow, capsys):
    assert main(["simulate", "--type", "B", "--qin-lpm", flow]) == 2
    captured = capsys.readouterr()
    assert "q_in must be finite" in captured.err
    assert captured.out == ""


def test_simulate_overflowing_flow_exit_config(capsys):
    assert main(["simulate", "--type", "B", "--qin-lpm", "1e200"]) == 2
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""


def test_sweep_non_finite_rows_exit_solver(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--type", "B", "--qin-end-lpm", "1e200",
                 "--step-lpm", "1e199", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def _split_overflow_config(tmp_path):
    # (a_in / (2 a_branch)) ** 2 overflows: no flow has a steady state
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({"split_design_rule": False,
                               "a_branch_mm2": 1e-300}), encoding="utf-8")
    return cfg


def test_sweep_split_overflow_exit_solver(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(_split_overflow_config(tmp_path)),
                 "--out", str(out)]) == 3
    assert ("sweep failed at q_in=0 m^3/s: operating point is not finite"
            in capsys.readouterr().err)
    assert not out.exists()


def test_calibrate_closures_overflowing_p_out_exit_fit(tmp_path, capsys):
    data = tmp_path / "meas.csv"
    data.write_text("q_in_lpm,p_out_kpa\n5,1e305\n25,-1e305\n",
                    encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(data), "--fit", "closures",
                 "--max-evals", "20", "--out", str(out)]) == 4
    assert "p_out" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_closures_split_overflow_exit_config(tmp_path, capsys):
    data = tmp_path / "meas.csv"
    data.write_text("q_in_lpm,p_out_kpa\n5,0.08\n25,-15.0\n",
                    encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(data), "--fit", "closures",
                 "--config", str(_split_overflow_config(tmp_path)),
                 "--max-evals", "10", "--out", str(out)]) == 2
    assert "operating point is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_closures_flow_overflow_exit_config(tmp_path, capsys):
    # every trial's supply pressure overflows, so the search scores them
    # all inf and the final residuals, the device's law at the fitted
    # coefficients, raise the stage's error
    data = tmp_path / "huge_flow.csv"
    data.write_text("q_in_lpm,p_out_kpa\n1e300,1\n2e300,-1\n",
                    encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(data), "--fit", "closures",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: operating point is not finite (flow beyond the model's "
        "range)"]
    assert captured.out == ""
    assert not out.exists()


def _config_files(directory, device, coeffs):
    """``--config`` and ``--coeffs`` flags for JSON files holding the two
    objects."""
    cfg, cof = directory / "device.json", directory / "coeffs.json"
    cfg.write_text(json.dumps(device), encoding="utf-8")
    cof.write_text(json.dumps(coeffs), encoding="utf-8")
    return ["--config", str(cfg), "--coeffs", str(cof)]


# cd_out * a_out underflows to 0: a blowing row would divide by zero
_ZERO_OUTLET = ({"type": "B", "a_out_mm2": 1e-300}, {"cd_out": 1e-300})
# k0 D_ref / D overflows: below p_c, inf * 0 = nan would pick the
# saturated gate
_INFINITE_GAIN = ({"type": "B", "t_mm": 1e-4}, {"k0": 1e300})


def test_simulate_zero_outlet_area_exit_config(tmp_path, capsys):
    assert main(["simulate", *_config_files(tmp_path, *_ZERO_OUTLET),
                 "--qin-lpm", "10"]) == 2
    captured = capsys.readouterr()
    assert "cd_out * a_out must be positive and finite" in captured.err
    assert captured.out == ""


def test_infinite_gate_gain_exit_config(tmp_path, capsys):
    files = _config_files(tmp_path, *_INFINITE_GAIN)
    assert main(["simulate", *files, "--qin-lpm", "1"]) == 2
    captured = capsys.readouterr()
    assert ("gate gain k0 D_ref / D must be positive and finite"
            in captured.err)
    assert captured.out == ""
    out = tmp_path / "s.csv"
    assert main(["sweep", *files, "--out", str(out)]) == 3
    assert ("sweep failed at q_in=0 m^3/s: gate gain"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("end,step", [("1", "0.35"), ("30", "1e-9")])
def test_sweep_rejected_grid_exit_config(tmp_path, end, step):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--type", "B", "--qin-end-lpm", end,
                 "--step-lpm", step, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--type", "B"], ["compare", "--types", "A,B"]])
def test_grid_below_zero_exit_config(tmp_path, capsys, command):
    out = tmp_path / "g.csv"
    assert main([*command, "--qin-start-lpm", "-5", "--qin-end-lpm", "5",
                 "--step-lpm", "1", "--out", str(out)]) == 2
    assert "q_start must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, name", [("--qin-start-lpm", "q_start"),
                                        ("--qin-end-lpm", "q_end"),
                                        ("--step-lpm", "step")])
@pytest.mark.parametrize("command", [
    ["sweep", "--type", "B"], ["compare", "--types", "A,B"]])
def test_grid_non_finite_exit_config(tmp_path, capsys, command, flag, name,
                                     value):
    out = tmp_path / "g.csv"
    assert main([*command, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--qin-lpm", "-0.5"], "q_in must be nonnegative"),
    (["simulate", "--qin-lpm", "-1e-5"], "q_in must be nonnegative"),
    (["simulate", "--qin-lpm", "-.5e3"], "q_in must be nonnegative"),
    (["simulate", "--qin-lpm", "-1.e2"], "q_in must be nonnegative"),
    (["sweep", "--qin-end-lpm", "-1e-300"], "q_start must be less than q_end"),
    (["sweep", "--qin-start-lpm", "-2E+1"], "q_start must be nonnegative"),
    (["simulate", "--qin-lpm", "-inf"], "q_in must be finite"),
    (["simulate", "--qin-lpm", "-Infinity"], "q_in must be finite"),
    (["simulate", "--qin-lpm", "-NaN"], "q_in must be finite"),
    (["sweep", "--qin-start-lpm", "-nan"], "q_start must be finite"),
    (["friction", "--weight-n", "1", "--qin-lpm", "-1,2"],
     "q_in must be nonnegative"),
    (["friction", "--weight-n", "1", "--qin-lpm", "-inf,2"],
     "q_in must be finite"),
    (["optimize", "--objective", "switching", "--bounds-w-mm", "-1:2"],
     "bounds for w must be positive and finite"),
], ids=["decimal", "exponent", "leading-dot", "trailing-dot", "sweep-end",
        "sweep-start", "minus-inf", "minus-infinity", "minus-nan",
        "sweep-start-nan", "friction-list", "friction-list-inf",
        "optimize-bounds"])
def test_negative_number_is_a_value_not_a_flag(tmp_path, capsys, argv,
                                               message):
    # argparse tells flags from values before any type= runs; every value
    # that starts like a negative number must reach the domain check, as
    # its --flag=value form does
    out = [] if argv[0] == "simulate" else ["--out", str(tmp_path / "o")]
    *head, flag, value = argv
    for form in ([*head, flag, value], [*head, f"{flag}={value}"]):
        assert main([*form, *out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_sweep_blow_only_reports_positive_zero_suck(tmp_path):
    coeffs = tmp_path / "shut.json"
    coeffs.write_text(json.dumps({"p_c": 1.0e6}), encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--type", "B", "--step-lpm", "5",
                 "--coeffs", str(coeffs), "--out", str(out)]) == 0
    assert _comment_value(out.read_text(encoding="utf-8"),
                          "max_suck_kpa") == "0"


def test_coeffs_file_non_finite_exit_config(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    # a non-finite value, then JSON values of the wrong type
    for value, message in (("nan", "eta must be finite"),
                           (None, "eta must be float"),
                           (True, "eta must be float"),
                           ([0.2], "eta must be float")):
        coeffs.write_text(json.dumps({"eta": value}), encoding="utf-8")
        assert main(["simulate", "--type", "B", "--qin-lpm", "10",
                     "--coeffs", str(coeffs)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("fit", ["input", "closures"])
def test_calibrate_non_finite_cell_exit_config(tmp_path, capsys, fit):
    data = tmp_path / "meas.csv"
    data.write_text("q_in_lpm,p_in_kpa,p_out_kpa\n"
                    "5,5.4,0.08\n"
                    "15,nan,-1.5\n"
                    "25,41.1,nan\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["calibrate", "--data", str(data), "--fit", fit,
                 "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_help_mentions_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "lpm" in capsys.readouterr().out


# --- parser: only the invoked command's flags are built -----------------------

def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """Command name -> subparser."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_build_parser_adds_only_the_named_commands_flags():
    full = build_parser()
    full_subs = _subparsers(full)
    for name in _COMMANDS:
        parser = build_parser(name)
        subs = _subparsers(parser)
        assert list(subs) == [name]
        assert ([a.dest for a in subs[name]._actions]
                == [a.dest for a in full_subs[name]._actions])
        assert subs[name].get_default("func") is not None
        assert parser.format_usage() == full.format_usage()
    assert list(full_subs) == list(_COMMANDS)
    for sub in full_subs.values():
        assert len(sub._actions) > 1
        assert sub.get_default("func") is not None


def test_build_parser_rejects_unknown_command():
    with pytest.raises(ValueError, match="unknown command 'bogus'"):
        build_parser("bogus")


@pytest.mark.parametrize("argv, built", [
    (["simulate", "--type", "B", "--qin-lpm", "10"], ["simulate"]),
    ([], [None]),
    (["-h", "simulate"], [None]),
    (["bogus"], [None]),
])
def test_main_builds_only_the_invoked_command(monkeypatch, argv, built):
    calls = []
    full = cli.build_parser

    def recording(command=None):
        calls.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    try:
        main(argv)
    except SystemExit:
        pass
    assert calls == built


@pytest.mark.parametrize("argv, built", [
    *[([name, "-h"], 2) for name in _COMMANDS],
    (["simulate", "--type", "B", "--qin-lpm", "10"], 2),
    ([], 7),
    (["-h"], 7),
    (["bogus"], 7),
])
def test_main_builds_two_parsers_for_a_named_command(monkeypatch, argv,
                                                     built):
    # a named command costs its root and its own subparser; the other
    # commands' subparsers are built only for the full parser
    inits = 0
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        nonlocal inits
        inits += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    try:
        main(argv)
    except SystemExit:
        pass
    assert inits == built


def _parse_outcome(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """(namespace or None, exit code or None, stdout, stderr) of a parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def _assert_parses_as_full_parser(argv: list) -> tuple:
    outcome = _parse_outcome(_parser_for(argv), argv)
    assert outcome == _parse_outcome(build_parser(), argv)
    return outcome


_FLAGS = sorted({flag for sub in _subparsers(build_parser()).values()
                 for flag in sub._option_string_actions})


@pytest.mark.parametrize("argv, code", [
    ([], 2),
    (["-h", "simulate"], 0),
    *[([name, "-h"], 0) for name in _COMMANDS],
    (["simulate", "--type", "B"], 2),
    (["sweep", "--type", "B"], 2),
    (["simulate", "--qin-lpm", "1", "extra"], 2),
    (["sweep", "--format", "xml", "--out", "s.csv"], 2),
    (["simulate", "--qin-lpm", "abc"], 2),
    (["simulate", "--type", "C", "--config", "x", "--qin-lpm", "1"], 2),
    # the same from both parsers; the exit code is pinned by
    # test_type_b_with_config_exit_config
    (["simulate", "--type", "B", "--config", "x", "--qin-lpm", "1"], ...),
    (["simulate", "--qin", "3"], None),
    (["simulate", "sweep"], 2),
])
def test_command_parser_matches_full_parser(monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    namespace, exit_code, _, _ = _assert_parses_as_full_parser(argv)
    if code is not ...:
        assert exit_code == code
    if code is None:
        assert namespace.qin_lpm == 3.0


def test_type_b_with_config_exit_config(tmp_path, capsys):
    # argparse counts a flag as given when its value is not the default
    # object; with a "B" default, an in-process "B" (the same cached
    # string) would slip past the --type/--config conflict
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps({"type": "B"}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--type", "B", "--config", str(cfg),
              "--qin-lpm", "10"])
    assert exc.value.code == 2
    assert ("argument --config: not allowed with argument --type"
            in capsys.readouterr().err)
    # no --type and no --config is still type B
    assert main(["simulate", "--qin-lpm", "10"]) == 0
    implicit = capsys.readouterr().out
    assert main(["simulate", "--type", "B", "--qin-lpm", "10"]) == 0
    assert capsys.readouterr().out == implicit


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=hs.data())
def test_command_parser_matches_full_parser_on_drawn_argv(tmp_path_factory,
                                                          data):
    out = str(tmp_path_factory.getbasetemp() / "parse" / "o.csv")
    tokens = hs.sampled_from([*_COMMANDS, *_FLAGS, "--qin", "-h", "--", "1",
                              "abc", "B", "xml", "json", "1.8:2.0", out])
    head = data.draw(hs.lists(hs.sampled_from(list(_COMMANDS)), max_size=1))
    argv = head + data.draw(hs.lists(tokens, max_size=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        _assert_parses_as_full_parser(argv)


# --- parser: the terminal width is read once per build ------------------------

def _argparse_width_parser(command=None) -> argparse.ArgumentParser:
    """``build_parser`` with argparse's own formatter, which reads the
    terminal width each time it is built, and with ``add_subparsers``
    left to format its own ``prog``: the oracle for help, usage and
    errors."""
    parser = cli._Parser(
        prog="fdr",
        description="Lumped-parameter simulator for a single-input "
                    "blow/suck flow-reversal device.")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        help_text, add_flags = _COMMANDS[name]
        add_flags(subs.add_parser(name, help=help_text))
    return parser


# a parse of each command's flags that succeeds, then a bad choice and a bad
# number appended to it (simulate has no flag with choices: a conflict)
_PARSABLE = {
    "simulate": (["--qin-lpm", "1"], ["--type", "B", "--config", "x"],
                 ["--qin-lpm", "abc"]),
    "sweep": (["--out", "s.csv"], ["--format", "xml"], ["--step-lpm", "x"]),
    "compare": (["--types", "A", "--out", "c.csv"], ["--format", "xml"],
                ["--qin-end-lpm", "1e"]),
    "calibrate": (["--data", "builtin", "--out", "c.json"], ["--fit", "x"],
                  ["--max-evals", "1.5"]),
    "optimize": (["--objective", "switching", "--out", "o.json"],
                 ["--objective", "x"], ["--at-qin-lpm", "abc"]),
    "friction": (["--weight-n", "1", "--out", "f.csv"], ["--format", "xml"],
                 ["--weight-n", "-"]),
}

# (argv, exit code): help, a missing flag, a parse, a bad choice, a bad
# number and an extra argument for each command, and the root's errors
_PARITY_CASES = [([], 2), (["-h"], 0), (["bogus"], 2), (["--bogus"], 2), *[
    case for name, (valid, bad_choice, bad_number) in _PARSABLE.items()
    for case in (([name, "-h"], 0), ([name], 2), ([name, *valid], None),
                 ([name, *valid, *bad_choice], 2),
                 ([name, *valid, *bad_number], 2),
                 ([name, *valid, "extra"], 2))]]


def _all_parsers(parser: argparse.ArgumentParser) -> list:
    return [parser, *_subparsers(parser).values()]


@pytest.mark.parametrize("columns", ["10", "30", "45", "80", "200"])
def test_parser_reads_as_with_argparse_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for command in [None, *_COMMANDS]:
        for ours, oracle in zip(_all_parsers(build_parser(command)),
                                _all_parsers(_argparse_width_parser(command)),
                                strict=True):
            assert ours.prog == oracle.prog
            assert ours.format_usage() == oracle.format_usage()
            assert ours.format_help() == oracle.format_help()
    for argv, code in _PARITY_CASES:
        oracle = _argparse_width_parser(
            argv[0] if argv and argv[0] in _COMMANDS else None)
        ours = _parse_outcome(_parser_for(argv), argv)
        assert ours == _parse_outcome(oracle, argv), argv
        assert ours[1] == code, argv


def test_terminal_width_read_once_per_parser(monkeypatch, tmp_path):
    reads = 0
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        nonlocal reads
        reads += 1
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    _argparse_width_parser("simulate")
    assert reads > 1        # the control: argparse reads it per formatter
    for command in [None, *_COMMANDS]:
        reads = 0
        build_parser(command)
        assert reads == 1, command
    for argv, code in [
            (["simulate", "--type", "B", "--qin-lpm", "10"], 0),
            (["sweep", "--type", "B", "--out", str(tmp_path / "s.csv")], 0),
            (["simulate", "--type", "Z", "--qin-lpm", "10"], 2),
            ([], 2), (["-h"], 0), (["bogus"], 2),
            *[([name, "-h"], 0) for name in _COMMANDS],
            *[([name], 2) for name in _COMMANDS],
            (["simulate", "--qin-lpm", "1", "extra"], 2)]:
        reads = 0
        try:
            exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        assert (exit_code, reads) == (code, 1), argv


# --- round trips: display units in, SI out ------------------------------------

_ROUND_TRIP = settings(max_examples=50, deadline=None, derandomize=True,
                       database=None)


def _hex(values: dict) -> dict:
    """Each float as ``float.hex``, so equality is bit for bit."""
    return {key: float.hex(x) for key, x in values.items()}


@_ROUND_TRIP
@given(type_id=hs.sampled_from(CATALOG_TYPE_IDS),
       start=hs.one_of(hs.just(0.0), hs.floats(0.0, 20.0)),
       step=hs.floats(0.01, 2.0), count=hs.integers(1, 199))
def test_sweep_json_si_rows_equal_engine_sweep(tmp_path_factory, type_id,
                                               start, step, count):
    end = start + count * step
    out = tmp_path_factory.mktemp("sweep") / "s.json"
    assert main(["sweep", "--type", type_id, "--qin-start-lpm", repr(start),
                 "--qin-end-lpm", repr(end), "--step-lpm", repr(step),
                 "--format", "json", "--out", str(out)]) == 0
    res = sweep(catalog_device(type_id), DEFAULT_COEFFS, FLOW.to_si(start),
                FLOW.to_si(end), FLOW.to_si(step))
    rows = json.loads(out.read_text(encoding="utf-8"))["states"]
    assert len(rows) == len(res.states) == count + 1
    for row, state in zip(rows, res.states):
        assert _hex(row["si"]) == _hex(
            {key: getattr(state, key)
             for key in ("q_in", "p_in", "p_chamber", "a_fg", "p_out")})


# config key -> (geometry field, unit) and a display range that keeps the
# geometry valid whatever the other keys hold (t stays below w and h)
_CONFIG_RANGES = {
    "a_ne_mm2": ("a_ne", AREA, 0.1, 1.0),
    "a_ex_mm2": ("a_ex", AREA, 1.0, 20.0),
    "a_out_mm2": ("a_out", AREA, 1.0, 20.0),
    "channel_width_ref_mm": ("channel_width_ref", LENGTH, 3.0, 14.0),
    "w_mm": ("w", LENGTH, 3.0, 14.0),
    "t_mm": ("t", LENGTH, 0.2, 0.9),
    "h_mm": ("h", LENGTH, 1.2, 3.0),
}


@hs.composite
def device_configs(draw):
    raw = {}
    if draw(hs.booleans()):
        raw["type"] = draw(hs.sampled_from(CATALOG_TYPE_IDS))
    if draw(hs.booleans()):
        raw["shore_a"] = draw(hs.floats(5.0, 60.0))
    for key, (_, _, lo, hi) in _CONFIG_RANGES.items():
        if draw(hs.booleans()):
            raw[key] = draw(hs.floats(lo, hi))
    if draw(hs.booleans()):
        raw["n_nozzles"] = draw(hs.integers(1, 4))
    split = draw(hs.sampled_from([None, True, False]))
    if split is not None:
        raw["split_design_rule"] = split
    if draw(hs.booleans()):
        raw["a_branch_mm2"] = draw(hs.floats(0.5, 5.0))
        if split is not False:
            # the catalog's split rule holds: the inlet is two branches
            raw["a_in_mm2"] = 2.0 * raw["a_branch_mm2"]
    if split is False and draw(hs.booleans()):
        raw["a_in_mm2"] = draw(hs.floats(1.0, 10.0))
    # a number may also come as its numeric string
    for key, value in list(raw.items()):
        if type(value) is float and draw(hs.booleans()):
            raw[key] = repr(value)
    return raw


@_ROUND_TRIP
@given(raw=device_configs())
def test_device_config_loads_to_replaced_geometry(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("config") / "device.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    device = _load_device_config(str(path))

    base = catalog_device(raw.get("type", "B"))
    units = {**{key: (field, unit)
                for key, (field, unit, _, _) in _CONFIG_RANGES.items()},
             "a_in_mm2": ("a_in", AREA), "a_branch_mm2": ("a_branch", AREA)}
    si = {field: unit.to_si(float(raw[key]))
          for key, (field, unit) in units.items() if key in raw}
    gate = base.geometry.gate._replace(**{
        name: si.pop(name) for name in ("w", "t", "h") if name in si})
    unitless = {key: raw[key] for key in ("n_nozzles", "split_design_rule")
                if key in raw}
    assert device.geometry == base.geometry._replace(gate=gate, **si,
                                                     **unitless)
    assert device.material == (Material.from_shore_a(float(raw["shore_a"]))
                               if "shore_a" in raw else base.material)
    assert device.type_id == (None if set(raw) - {"type"} else base.type_id)


# --- any input: a documented exit code, no traceback, finite output ----------

_MEASUREMENTS = Path(__file__).parent / "golden" / "measurements.csv"

# finite floats of every magnitude, the ends of the float range among them
_ANY_FLOAT = hs.one_of(
    hs.floats(allow_nan=False, allow_infinity=False),
    hs.sampled_from([0.0, -1.0, 1e-300, 1e-150, 1e150, 1e300]))


def _scaled(value):
    """``value`` moved by up to 300 decades, or any finite float."""
    return hs.one_of(hs.integers(-300, 300).map(lambda e: value * 10.0 ** e),
                     _ANY_FLOAT)


@hs.composite
def wild_configs(draw):
    """A valid device config with up to two dimensions pushed anywhere."""
    raw = draw(device_configs())
    for key in draw(hs.lists(hs.sampled_from(sorted(_CONFIG_RANGES)),
                             max_size=2, unique=True)):
        raw[key] = draw(_scaled(_CONFIG_RANGES[key][2]))
    return raw


_COEFF_FIELDS = sorted(DEFAULT_COEFFS._fields)


@hs.composite
def wild_coeffs(draw):
    """Up to three coefficients pushed anywhere from their defaults."""
    names = draw(hs.lists(hs.sampled_from(_COEFF_FIELDS), max_size=3,
                          unique=True))
    return {name: draw(_scaled(getattr(DEFAULT_COEFFS, name)))
            for name in names}


def _command_argv(command, files, flow, fmt, out):
    if command == "simulate":
        return ["simulate", *files, "--qin-lpm", repr(flow)]
    if command == "sweep":
        return ["sweep", *files, "--qin-end-lpm", repr(flow),
                "--step-lpm", repr(flow / 10.0), "--format", fmt,
                "--out", out]
    if command == "friction":
        return ["friction", *files, "--weight-n", "1",
                "--qin-lpm", f"0,{flow!r}", "--format", fmt, "--out", out]
    return ["calibrate", *files, "--data", str(_MEASUREMENTS),
            "--fit", "closures", "--max-evals", "20", "--out", out]


def _finite(token):
    value = float(token)
    assert math.isfinite(value), token
    return value


def _reject_constant(token):
    raise AssertionError(f"non-finite JSON number {token}")


def _assert_finite_text(text):
    """Every number in a printed report or CSV (cells, ``# key=value``
    comments) is finite; words like ``none`` or ``suction`` are not
    numbers."""
    for token in re.split(r"[\s,()=]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), token


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=hs.sampled_from(["simulate", "sweep", "friction",
                                "calibrate"]),
       device=wild_configs(), coeffs=wild_coeffs(),
       flow=hs.one_of(hs.floats(0.0, 40.0), _scaled(1.0),
                      hs.sampled_from([math.nan, math.inf])),
       fmt=hs.sampled_from(["csv", "json"]))
@example(command="simulate", device=_ZERO_OUTLET[0],
         coeffs=_ZERO_OUTLET[1], flow=10.0, fmt="csv")
@example(command="simulate", device=_INFINITE_GAIN[0],
         coeffs=_INFINITE_GAIN[1], flow=1.0, fmt="csv")
@example(command="sweep", device=_INFINITE_GAIN[0],
         coeffs=_INFINITE_GAIN[1], flow=30.0, fmt="csv")
def test_any_input_exits_documented_code(tmp_path_factory, command, device,
                                         coeffs, flow, fmt):
    work = tmp_path_factory.mktemp("cli")
    out = work / ("out.json" if command == "calibrate" else f"out.{fmt}")
    argv = _command_argv(command, _config_files(work, device, coeffs), flow,
                         fmt, str(out))
    _assert_documented_exit(argv, out)


def _assert_documented_exit(argv, out):
    """``main(argv)`` exits 0, 2, 3 or 4 without a traceback, and every
    number it prints or writes to ``out`` is finite, with the jet warning
    ignored and with every warning an error (``python -W error``)."""
    for action, category in (("ignore", SupersonicJetWarning),
                             ("error", Warning)):
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter(action, category)
            try:
                code = main(argv)
            except SystemExit as exc:   # an argparse error
                code = exc.code
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stderr.getvalue()
        _assert_finite_text(stdout.getvalue())
        if out.exists():
            text = out.read_text(encoding="utf-8")
            if out.suffix == ".json":
                json.loads(text, parse_float=_finite,
                           parse_constant=_reject_constant)
            else:
                _assert_finite_text(text)


# flag values at the edges of the float range, and past them
_WILD_NUMBER = hs.sampled_from([math.nan, math.inf, -math.inf, 5e-324,
                                1e308, -1e308, -1.0, 0.0])


def _flag_number(draw, typical):
    """A value drawn from ``typical``, or one time in four a wild one."""
    return draw(typical if draw(hs.integers(0, 3)) else _WILD_NUMBER)


def _rarely(draw):
    """True one time in eight."""
    return draw(hs.sampled_from(range(8))) == 0


def _flag(name, value):
    # ``--flag=-x``: a negative value must not read as a flag
    return f"{name}={value!r}"


_BOUNDS_FLAGS = {"--bounds-w-mm": (3.0, 8.0, 14.0),
                 "--bounds-t-mm": (0.2, 0.5, 0.9),
                 "--bounds-h-mm": (1.2, 1.9, 3.0),
                 "--bounds-ane-mm2": (0.1, 0.4, 1.0)}


@hs.composite
def compare_argv(draw):
    types = draw(hs.lists(hs.sampled_from([*CATALOG_TYPE_IDS, "Z"]),
                          min_size=1, max_size=3, unique=True))
    argv = ["compare", "--types", ",".join(types)]
    # whole-number ends, so that a typical step divides the range
    for name, typical in (("--qin-start-lpm", hs.integers(0, 10)),
                          ("--qin-end-lpm", hs.integers(10, 40)),
                          ("--step-lpm", hs.sampled_from([0.5, 1.0, 2.0]))):
        if draw(hs.booleans()):
            argv.append(_flag(name, float(_flag_number(draw, typical))))
    return argv


@hs.composite
def optimize_argv(draw):
    objective = draw(hs.sampled_from(["switching", "suction", "blowing"]))
    argv = ["optimize", "--type", draw(hs.sampled_from(CATALOG_TYPE_IDS)),
            "--objective", objective]
    for name, (lo, mid, hi) in _BOUNDS_FLAGS.items():
        if draw(hs.booleans()):
            ends = (_flag_number(draw, hs.floats(lo, mid)),
                    _flag_number(draw, hs.floats(mid, hi)))
            argv.append(f"{name}=" + ":".join(map(repr, ends)))
    # each flag mostly with the objective that reads it: with another one
    # it is an error before any search
    switching = objective == "switching"
    if draw(hs.booleans()) and (not switching or _rarely(draw)):
        argv.append(_flag("--at-qin-lpm",
                          _flag_number(draw, hs.floats(0.0, 40.0))))
    if draw(hs.booleans()) and (switching or _rarely(draw)):
        argv.append(_flag("--target-p-in-kpa",
                          _flag_number(draw, hs.floats(0.0, 60.0))))
    argv.append(_flag("--max-evals", draw(hs.integers(-2, 30))))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=hs.one_of(compare_argv(), optimize_argv()),
       fmt=hs.sampled_from(["csv", "json"]))
@example(argv=["optimize", "--type", "B", "--objective", "switching",
               "--bounds-h-mm=5e-324:1e308", "--target-p-in-kpa=nan",
               "--max-evals=-1"], fmt="json")
@example(argv=["compare", "--types", "B", "--qin-start-lpm=-1.0",
               "--step-lpm=inf"], fmt="csv")
def test_compare_and_optimize_exit_documented_code(tmp_path_factory, argv,
                                                   fmt):
    out = tmp_path_factory.mktemp("cli") / f"out.{fmt}"
    if argv[0] == "compare":
        argv = [*argv, "--format", fmt]
    else:
        out = out.with_suffix(".json")
    _assert_documented_exit([*argv, "--out", str(out)], out)


# --- warnings on stderr -----------------------------------------------------------

_JET_MESSAGE = ("jet velocity exceeds the ambient speed of sound; "
                "the incompressible jet closure is extrapolating")
_JET_LINE = f"warning: {_JET_MESSAGE}\n"
_SONIC_SIMULATE = ["simulate", "--type", "B", "--qin-lpm", "30"]


def test_jet_warning_is_one_stderr_line(capsys):
    # no source path or line of the library; stdout as without a warning,
    # and a second call in the same process reports it again
    expected = (Path(__file__).resolve().parent / "golden"
                / "simulate_B_30.txt").read_text(encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        for _ in range(2):
            assert main(_SONIC_SIMULATE) == 0
            captured = capsys.readouterr()
            assert captured.err == _JET_LINE
            assert captured.out == expected


def test_jet_warning_reported_once_per_call(tmp_path, capsys):
    # every candidate of a switching search warns
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["optimize", "--objective", "switching",
                     "--bounds-h-mm", "1.8:2.0", "--max-evals", "10",
                     "--out", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().err == _JET_LINE


def test_jet_warning_follows_the_callers_filters(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        assert main(_SONIC_SIMULATE) == 0
    assert capsys.readouterr().err == ""
    # an error filter (``python -W error``) makes the warning a solver
    # failure: exit 3, one line, nothing printed or written.  The
    # optimizer's guards pass it on instead of scoring +inf, in a search
    # and in a zero-volume box alike, for the suction and the switching
    # objective (whose jet is sonic at the grid's top).
    out = tmp_path / "o.json"
    suction = ["optimize", "--objective", "suction", "--at-qin-lpm", "25",
               "--out", str(out)]
    switching = ["optimize", "--objective", "switching", "--out", str(out)]
    for argv in (_SONIC_SIMULATE, [*suction, "--bounds-w-mm", "6:10"],
                 [*suction, "--bounds-w-mm", "8:8"],
                 [*switching, "--bounds-h-mm", "1.8:2.0"],
                 [*switching, "--bounds-h-mm", "1.9:1.9"]):
        for category in (SupersonicJetWarning, Warning):
            with warnings.catch_warnings():
                warnings.simplefilter("error", category)
                assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err == f"solver error: {_JET_MESSAGE}\n"
            assert captured.out == ""
            assert not out.exists()


def test_other_warnings_pass_through(monkeypatch, capsys):
    solve = cli.engine.solve_operating_point

    def warning_solve(*args):
        warnings.warn("other", DeprecationWarning)
        return solve(*args)

    monkeypatch.setattr(cli.engine, "solve_operating_point", warning_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_SONIC_SIMULATE) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (DeprecationWarning, "other")]
    assert capsys.readouterr().err == _JET_LINE
