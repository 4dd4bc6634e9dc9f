"""Self-test of the benchmark harness.

Run from the repository root:

    python3 bench/selftest.py

It checks that one seed always generates byte-identical inputs (and
another seed different ones), that the output checker rejects a sweep
file with a flipped mode or a dropped row, and that a changed canonical
digest is rejected.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check       # noqa: E402
import workloads   # noqa: E402
from fdrsim import cli   # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        FAILURES.append(message)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def same_seed_same_inputs(tmp: Path) -> None:
    work = tmp / "gen"
    for workload in workloads.WORKLOADS:
        digests = []
        for seed in (7, 7, 8):
            shutil.rmtree(work, ignore_errors=True)
            workloads.generate(workload, seed, work)
            digests.append(tree_digest(work))
        expect(digests[0] == digests[1],
               f"{workload}: seed 7 twice gives byte-identical inputs")
        expect(digests[0] != digests[2],
               f"{workload}: seeds 7 and 8 give different inputs")


def checker_rejects_bad_sweeps(tmp: Path) -> None:
    out = tmp / "b.csv"
    rc = run_cli(["sweep", "--type", "B", "--qin-start-lpm", "0",
                  "--qin-end-lpm", "30", "--step-lpm", "0.5",
                  "--out", str(out)])
    request = {"start": 0, "end": 30, "step": 0.5, "format": "csv",
               "si": False}
    text = out.read_text(encoding="utf-8")
    expect(rc == 0 and check.check_sweep(text, request) is None,
           "a real sweep passes the checker")
    lines = text.splitlines(keepends=True)
    rows = [i for i, ln in enumerate(lines[1:], 1) if not ln.startswith("#")]
    suction = next(i for i in rows if lines[i].rstrip().endswith(",suction"))
    flipped = list(lines)
    flipped[suction] = flipped[suction].replace(",suction", ",blowing")
    expect(check.check_sweep("".join(flipped), request) is not None,
           "a flipped mode is rejected")
    for label, drop in (("first", rows[0]), ("middle", rows[len(rows) // 2]),
                        ("last", rows[-1])):
        dropped = lines[:drop] + lines[drop + 1:]
        expect(check.check_sweep("".join(dropped), request) is not None,
               f"a dropped {label} row is rejected")


def checker_rejects_changed_digest(tmp: Path) -> None:
    reference = check.load_reference_digests()
    actual = {}
    for name, argv in check.canonical_argv().items():
        out = tmp / name
        if run_cli([*argv, "--out", str(out)]) == 0:
            actual[name] = check.sha256_file(out)
    expect(check.check_digests(actual, reference) == [],
           "canonical outputs match their recorded digests")
    for name in reference:
        changed = dict(actual)
        digest = changed[name]
        changed[name] = digest[:-1] + ("1" if digest[-1] == "0" else "0")
        expect(check.check_digests(changed, reference) == [name],
               f"a changed {name} digest is rejected")


def main() -> int:
    tmp = BENCH / "out" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        same_seed_same_inputs(tmp)
        checker_rejects_bad_sweeps(tmp)
        checker_rejects_changed_digest(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
