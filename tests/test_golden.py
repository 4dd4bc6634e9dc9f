"""Golden outputs: every command and format, compared byte for byte.

Each case runs one small CLI invocation and compares what it writes (the
``--out`` file, or stdout for ``simulate``) with the file of the same
name under ``tests/golden/``.  The recorded files pin the exact bytes of
every output format: CSV and JSON, ``--si`` columns, the ``none``/``null``
summary of a device that never switches, friction, optimize, both
calibrate fits, and ``simulate`` reading the closures fit report as its
coefficients file.  Input files for the cases live in the same directory.
"""

from pathlib import Path

import pytest

from fdrsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_DEVICE = str(GOLDEN / "device.json")
_SHUT = str(GOLDEN / "shut_coeffs.json")
_DATA = str(GOLDEN / "measurements.csv")
# a branch narrow enough that the junction can close the gate again
_RECLOSING = str(GOLDEN / "device_reclosing.json")

# output file name -> argv (without --out)
CASES = {
    "sweep_B.csv": ["sweep", "--type", "B", "--step-lpm", "1"],
    "sweep_B_si.csv": ["sweep", "--type", "B", "--step-lpm", "1", "--si"],
    "sweep_B.json": ["sweep", "--type", "B", "--step-lpm", "1",
                     "--format", "json"],
    "sweep_config_si.csv": ["sweep", "--config", _DEVICE, "--step-lpm", "2",
                            "--si"],
    "sweep_shut.csv": ["sweep", "--type", "B", "--step-lpm", "5",
                       "--coeffs", _SHUT],
    "sweep_shut.json": ["sweep", "--type", "B", "--step-lpm", "5",
                        "--coeffs", _SHUT, "--format", "json"],
    "compare_ABC.csv": ["compare", "--types", "A,B,C", "--step-lpm", "1"],
    "compare_ABC.json": ["compare", "--types", "A,B,C", "--step-lpm", "1",
                         "--format", "json"],
    "compare_shut.csv": ["compare", "--types", "A,B", "--step-lpm", "5",
                         "--coeffs", _SHUT],
    "compare_shut.json": ["compare", "--types", "A,B", "--step-lpm", "5",
                          "--coeffs", _SHUT, "--format", "json"],
    "friction.csv": ["friction", "--type", "B", "--weight-n", "0.981"],
    "friction.json": ["friction", "--config", _DEVICE, "--weight-n", "0.5",
                      "--a-eff-cm2", "0.8", "--qin-lpm", "0,7.5,15,30",
                      "--format", "json"],
    "optimize_switching.json": ["optimize", "--objective", "switching",
                                "--bounds-h-mm", "1.8:2.0",
                                "--max-evals", "40"],
    "optimize_target.json": ["optimize", "--objective", "switching",
                             "--target-p-in-kpa", "20",
                             "--bounds-w-mm", "6:10", "--max-evals", "30"],
    "optimize_suction.json": ["optimize", "--objective", "suction",
                              "--bounds-w-mm", "6:10",
                              "--bounds-ane-mm2", "0.32:0.48",
                              "--at-qin-lpm", "25", "--max-evals", "40"],
    # all four dimensions free at the default 400-evaluation budget, which
    # this search spends
    "optimize_suction_4d.json": ["optimize", "--objective", "suction",
                                 "--bounds-w-mm", "6:10",
                                 "--bounds-t-mm", "0.4:0.6",
                                 "--bounds-h-mm", "1.8:2.0",
                                 "--bounds-ane-mm2", "0.32:0.48",
                                 "--at-qin-lpm", "20"],
    "optimize_blowing.json": ["optimize", "--objective", "blowing",
                              "--bounds-t-mm", "0.4:0.6",
                              "--at-qin-lpm", "10", "--max-evals", "40"],
    # a config-file template: every candidate is a non-catalog device
    "optimize_config.json": ["optimize", "--config", _DEVICE,
                             "--objective", "suction",
                             "--bounds-w-mm", "8:11", "--bounds-h-mm",
                             "1.6:2.0", "--at-qin-lpm", "20",
                             "--max-evals", "40"],
    # the switching search on the same config template
    "optimize_switching_config.json": ["optimize", "--config", _DEVICE,
                                       "--objective", "switching",
                                       "--bounds-w-mm", "8:11",
                                       "--bounds-h-mm", "1.6:2.0",
                                       "--max-evals", "40"],
    # the switching search on a reclosing junction, which scans its rows
    "optimize_switching_reclosing.json": ["optimize", "--config", _RECLOSING,
                                          "--objective", "switching",
                                          "--bounds-w-mm", "6:10",
                                          "--bounds-h-mm", "1.8:2.0",
                                          "--max-evals", "40"],
    "calibrate_input.json": ["calibrate", "--data", "builtin",
                             "--fit", "input"],
    "calibrate_input_csv.json": ["calibrate", "--data", _DATA,
                                 "--fit", "input"],
    "calibrate_closures.json": ["calibrate", "--data", _DATA,
                                "--fit", "closures", "--max-evals", "60"],
}

# stdout file name -> argv
STDOUT_CASES = {
    "simulate_B_30.txt": ["simulate", "--type", "B", "--qin-lpm", "30"],
    "simulate_config_12.txt": ["simulate", "--config", _DEVICE,
                               "--qin-lpm", "12.5"],
    # the report written by the calibrate_closures.json case loads as-is
    "simulate_B_30_fitted.txt": ["simulate", "--type", "B", "--qin-lpm",
                                 "30", "--coeffs",
                                 str(GOLDEN / "calibrate_closures.json")],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_file_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden(capsys, name):
    assert main(STDOUT_CASES[name]) == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
