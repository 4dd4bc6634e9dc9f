"""No command imports numpy, and each imports only the modules it runs.

The package has no runtime dependency: importing the package or the CLI,
``simulate``, ``sweep``, ``compare``, ``friction``, ``--help``, a
configuration error, every optimizer objective and both ``calibrate``
fits run in a fresh interpreter without numpy.  A control shows the
detector sees ``import numpy``.  The console-script path, ``main()``
reading ``sys.argv`` itself, runs here too, as ``python -m fdrsim.cli``.

``calib`` (with ``csv``) and ``friction`` load only in the commands that
run them, and the package's names from them resolve on first use.  No
command loads ``dataclasses``, nor the ``inspect`` and ``ast`` it would
bring.
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


_DEFERRED = ("fdrsim.calib", "fdrsim.friction", "csv")


def _deferred_loaded(code: str, modules: tuple = _DEFERRED) -> list:
    """Run ``code`` in a fresh interpreter; which of ``modules`` it
    loaded."""
    proc = _python("-c", code + "\nimport sys\n"
                   f"print(*sorted(set({modules!r}) & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("code", [
    "import fdrsim",
    "import fdrsim.cli as c; c.build_parser()",
], ids=["package", "parser"])
def test_import_defers_calib_and_friction(code):
    assert _deferred_loaded(code) == []


@pytest.mark.parametrize("argv, loaded", [
    (["simulate", "--type", "B", "--qin-lpm", "10"], []),
    (["sweep", "--type", "B", "--step-lpm", "10"], []),
    (["calibrate", "--data", "builtin"], ["csv", "fdrsim.calib"]),
    (["friction", "--weight-n", "2"], ["fdrsim.friction"]),
], ids=["simulate", "sweep", "calibrate", "friction"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    if argv[0] != "simulate":
        argv = [*argv, "--out", str(tmp_path / "o.out")]
    assert _deferred_loaded(_main(argv)) == loaded


@pytest.mark.parametrize("argv", [
    None,
    ["simulate", "--type", "B", "--qin-lpm", "10"],
    ["sweep", "--type", "B", "--step-lpm", "10"],
], ids=["parser", "simulate", "sweep"])
def test_no_command_loads_dataclasses(tmp_path, argv):
    if argv is None:
        code = "import fdrsim.cli as c; c.build_parser()"
    else:
        if argv[0] != "simulate":
            argv = [*argv, "--out", str(tmp_path / "o.out")]
        code = _main(argv)
    assert _deferred_loaded(code, ("dataclasses", "inspect", "ast")) == []


def test_deferred_names_resolve_on_first_use():
    # the submodules resolve as attributes before anything imports them,
    # and a star import binds every public name
    proc = _python("-c", """
import fdrsim
assert fdrsim.calib.__name__ == "fdrsim.calib"
assert fdrsim.friction.__name__ == "fdrsim.friction"
names = {}
exec("from fdrsim import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(fdrsim.__all__) and len(names) == 45
assert set(fdrsim.__all__) | {"calib", "friction"} <= set(dir(fdrsim))
assert names["FitError"] is fdrsim.calib.FitError
assert names["friction_curve"] is fdrsim.friction.friction_curve
""")
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_is_an_attribute_error():
    import fdrsim
    with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
        fdrsim.no_such


def test_console_script_fit_error_exit_fit(tmp_path):
    # FitError is matched without importing calib up front: the closures
    # fit has no p_out rows in the built-in data
    out = tmp_path / "o.json"
    proc = _python("-m", "fdrsim.cli", "calibrate", "--data", "builtin",
                   "--fit", "closures", "--out", str(out))
    assert proc.returncode == 4
    assert proc.stderr.startswith("fit error: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()
