"""No command imports numpy.

The package has no runtime dependency: importing the package or the CLI,
``simulate``, ``sweep``, ``compare``, ``friction``, ``--help``, a
configuration error, every optimizer objective and both ``calibrate``
fits run in a fresh interpreter without numpy.  A control shows the
detector sees ``import numpy``.  The console-script path, ``main()``
reading ``sys.argv`` itself, runs here too, as ``python -m fdrsim.cli``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
_GOLDEN = Path(__file__).resolve().parent / "golden"
_MEASUREMENTS = _GOLDEN / "measurements.csv"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the sources under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _loads_numpy(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; whether numpy got imported."""
    proc = _python("-c", code + "\nimport sys\n"
                   "print('numpy-loaded', 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "numpy-loaded True"


def _main(argv: list, code: int = 0) -> str:
    """Code that runs ``cli.main(argv)`` and checks its exit code."""
    return ("from fdrsim.cli import main\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"assert code == {code}, code\n")


def test_import_package_without_numpy():
    assert not _loads_numpy("import fdrsim")


def test_build_parser_without_numpy():
    assert not _loads_numpy("import fdrsim.cli as c; c.build_parser()")


def test_simulate_without_numpy():
    assert not _loads_numpy(_main(["simulate", "--type", "B",
                                   "--qin-lpm", "30"]))


def test_friction_without_numpy(tmp_path):
    assert not _loads_numpy(_main(["friction", "--weight-n", "2",
                                   "--out", str(tmp_path / "f.csv")]))
    assert (tmp_path / "f.csv").exists()


def test_help_without_numpy():
    assert not _loads_numpy(_main(["--help"]))


@pytest.mark.parametrize("argv", [
    ["simulate", "--type", "Z", "--qin-lpm", "10"],
    ["simulate", "--config", "no-such-config.json", "--qin-lpm", "10"],
], ids=["unknown-type", "missing-config"])
def test_config_error_without_numpy(argv):
    assert not _loads_numpy(_main(argv, code=2))


@pytest.mark.parametrize("objective", ["suction", "blowing"])
def test_point_optimize_without_numpy(tmp_path, objective):
    out = tmp_path / "o.json"
    assert not _loads_numpy(_main(["optimize", "--objective", objective,
                                   "--bounds-w-mm", "6:10",
                                   "--at-qin-lpm", "20", "--max-evals", "20",
                                   "--out", str(out)]))
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--type", "B", "--step-lpm", "10"],
    ["compare", "--types", "A,B,C", "--step-lpm", "10"],
    ["optimize", "--objective", "switching", "--bounds-h-mm", "1.8:2.0",
     "--max-evals", "10"],
], ids=["sweep", "compare", "optimize-switching"])
def test_grid_commands_without_numpy(tmp_path, argv):
    # every grid row, the switching bisection and the switching objective
    # run through the pure-Python point law
    out = tmp_path / "o.out"
    assert not _loads_numpy(_main([*argv, "--out", str(out)]))
    assert out.exists()


@pytest.mark.parametrize("argv, golden", [
    (["calibrate", "--data", str(_MEASUREMENTS), "--fit", "closures",
      "--max-evals", "60"], "calibrate_closures.json"),
    (["calibrate", "--data", str(_MEASUREMENTS), "--fit", "input"],
     "calibrate_input_csv.json"),
], ids=["calibrate-closures", "calibrate-input"])
def test_fit_without_numpy(tmp_path, argv, golden):
    out = tmp_path / "o.json"
    assert not _loads_numpy(_main([*argv, "--out", str(out)]))
    assert out.read_bytes() == (_GOLDEN / golden).read_bytes()


def test_detector_sees_numpy():
    # the control: numpy is a test extra, and importing it is seen
    assert _loads_numpy("import numpy")


def test_console_script_simulate_matches_golden():
    proc = _python("-m", "fdrsim.cli", "simulate", "--type", "B",
                   "--qin-lpm", "30")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (_GOLDEN / "simulate_B_30.txt").read_text(
        encoding="utf-8")


def test_console_script_without_arguments_exit_usage():
    proc = _python("-m", "fdrsim.cli")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: fdr")


def test_console_script_command_help():
    proc = _python("-m", "fdrsim.cli", "sweep", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fdr sweep")
