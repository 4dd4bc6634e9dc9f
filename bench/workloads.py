"""Seeded input generator for the benchmark workloads.

A workload is a list of passes; a pass is a list of at least 100 CLI
operations with a fixed composition (the same number of each kind and
size of operation in every pass and for every seed), so that the work in
a pass barely depends on the seed while the devices, flows and boxes
vary.  Only the parameters
drawn from ``random.Random(seed)`` change between seeds, and the same
seed always writes byte-identical files.  The draws are stratified: a
device type is dealt from shuffled rounds of the catalog and a range
parameter takes one value in each equal slice of its range, so a seed
changes which operation gets which value, but hardly the mix of values.

Each operation is a dict with ``kind``, ``argv`` (the exact argument
list passed to ``fdrsim.cli.main``), ``out`` (the file it writes, or
``None`` for ``simulate``, which prints) and ``expect`` (what the checker
needs to know about the request).  Paths are relative to the checkout
root, where the benchmark runs.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

WORKLOADS = ("ramp", "design-search", "point-stream")

# Catalog letters and the ranges the catalog itself spans (display units).
TYPES = tuple("ABCDEFGHIJK")
RANGES = {
    "w_mm": (6.0, 10.0),
    "t_mm": (0.4, 0.6),
    "h_mm": (1.8, 2.0),
    "a_ne_mm2": (0.32, 0.48),
    "shore_a": (10.0, 30.0),
}
# --bounds-* flag for each optimizable key
BOUND_FLAGS = {
    "w_mm": "--bounds-w-mm",
    "t_mm": "--bounds-t-mm",
    "h_mm": "--bounds-h-mm",
    "a_ne_mm2": "--bounds-ane-mm2",
}

PASSES = 10         # distinct passes generated per run; the run cycles them

# ramp: (step L/min, span L/min) of the 96 sweeps in one pass; every
# span is a whole number of steps
SWEEP_SHAPES = (
    [(0.05, s) for s in (1,) * 4 + (2,) * 9 + (3,) * 7 + (4,) * 4]
    + [(0.1, s) for s in (2,) * 4 + (3,) * 5 + (4,) * 6 + (5,) * 5 + (6,) * 4]
    + [(0.2, s) for s in (4,) * 4 + (6,) * 5 + (8,) * 6 + (10,) * 5 + (12,) * 4]
    + [(0.5, s) for s in (5,) * 4 + (10,) * 5 + (15,) * 6 + (20,) * 5 + (30,) * 4]
)
SUBSET_COMPARES = 3     # per ramp pass, beside one A..K compare
SUBSET_SIZE = 3
COMPARE_STEP = 0.2

# design-search: optimize counts per pass for each (objective, free dims)
OPTIMIZE_PLAN = (("switching", 4), ("switching-target", 4),
                 ("suction", 8), ("blowing", 8))
CALIBRATES = 4

# point-stream
SIMULATES = 480
FRICTIONS = 120

REFERENCE_TABLE = Path(__file__).resolve().parent / "reference" / "closure_table.csv"


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}f}"


def _deck(rng: random.Random, items):
    """Endless draws from ``items``: shuffled rounds that use each once."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def _strata(rng: random.Random, n: int) -> list[float]:
    """``n`` fractions in [0, 1), one in each slice of width 1/n, shuffled."""
    values = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _draw(rng: random.Random, key: str, digits: int) -> str:
    lo, hi = RANGES[key]
    return _fmt(rng.uniform(lo, hi), digits)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _config(rng: random.Random, path: Path, base: str) -> None:
    """A catalog base plus 1..5 overrides inside the catalog's ranges."""
    cfg: dict = {"type": base}
    keys = sorted(RANGES)
    for key in sorted(rng.sample(keys, rng.randint(1, len(keys)))):
        cfg[key] = float(_draw(rng, key, 1 if key == "shore_a" else 3))
    _write(path, json.dumps(cfg, sort_keys=True) + "\n")


def _ramp_pass(rng: random.Random, work: Path, p: int) -> list[dict]:
    ops = []
    types = _deck(rng, TYPES)
    formats = _deck(rng, ("csv", "csv", "json"))
    si_flags = _deck(rng, (False, True))
    # half the sweeps on --type, half on a JSON config, alternating
    by_config = _deck(rng, (False, True))
    starts = {step: iter(_strata(rng, sum(1 for s, _ in SWEEP_SHAPES
                                          if s == step)))
              for step, _ in SWEEP_SHAPES}
    for i, (step, span) in enumerate(SWEEP_SHAPES):
        start = int(next(starts[step]) * (31 - span))
        fmt = next(formats)
        si = fmt == "csv" and next(si_flags)
        out = work / "outputs" / f"p{p}-sweep{i}.{fmt}"
        if next(by_config):
            path = work / "inputs" / f"p{p}-sweep{i}.json"
            _config(rng, path, next(types))
            device = ["--config", str(path)]
        else:
            device = ["--type", next(types)]
        argv = ["sweep", *device,
                "--qin-start-lpm", str(start), "--qin-end-lpm",
                str(start + span), "--step-lpm", str(step),
                "--format", fmt, "--out", str(out)]
        if si:
            argv.append("--si")
        ops.append({"kind": "sweep", "argv": argv, "out": str(out),
                    "expect": {"start": start, "end": start + span,
                               "step": step, "format": fmt, "si": si}})
    subsets = [list(TYPES)] + [rng.sample(TYPES, SUBSET_SIZE)
                               for _ in range(SUBSET_COMPARES)]
    spans = [(0, 30)] + [(int(u * 11), int(u * 11) + 20)
                         for u in _strata(rng, SUBSET_COMPARES)]
    formats = _deck(rng, ("csv", "json"))
    for i, (subset, (start, end)) in enumerate(zip(subsets, spans)):
        fmt = next(formats)
        out = work / "outputs" / f"p{p}-compare{i}.{fmt}"
        argv = ["compare", "--types", ",".join(subset),
                "--qin-start-lpm", str(start), "--qin-end-lpm", str(end),
                "--step-lpm", str(COMPARE_STEP), "--format", fmt,
                "--out", str(out)]
        ops.append({"kind": "compare", "argv": argv, "out": str(out),
                    "expect": {"types": subset, "format": fmt}})
    rng.shuffle(ops)
    return ops


def _box(rng: random.Random, dims: int,
         scale: float) -> dict[str, tuple[float, float]]:
    """A box over ``dims`` random keys; each side spans 25% (``scale`` 0)
    to 100% (``scale`` 1) of the key's catalog range, at a random place."""
    box = {}
    for key in sorted(rng.sample(sorted(BOUND_FLAGS), dims)):
        lo, hi = RANGES[key]
        width = (hi - lo) * (0.25 + 0.75 * scale)
        a = rng.uniform(lo, hi - width)
        box[key] = (round(a, 4), round(a + width, 4))
    return box


def _reference_rows() -> dict[str, list[tuple[float, float, float]]]:
    rows: dict[str, list[tuple[float, float, float]]] = {}
    with REFERENCE_TABLE.open(newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(rec["type"], []).append(
                (float(rec["q_in_lpm"]), float(rec["p_in_kpa"]),
                 float(rec["p_out_kpa"])))
    return rows


def _measurement_csv(rng: random.Random, table: list, path: Path,
                     share: float) -> int:
    """Reference rows (16 up to all of them, as ``share`` goes from 0 to 1)
    plus seeded noise; returns the number of rows."""
    count = 16 + int(share * (len(table) - 15))
    picked = sorted(rng.sample(range(len(table)), count))
    lines = ["q_in_lpm,p_in_kpa,p_out_kpa,a_fg_mm2"]
    for k in picked:
        q, p_in, p_out = table[k]
        lines.append(f"{q:.2f},{p_in + rng.gauss(0.0, 0.3):.4f},"
                     f"{p_out + rng.gauss(0.0, 0.02 + 0.03 * abs(p_out)):.4f},")
    _write(path, "\n".join(lines) + "\n")
    return len(picked)


def _design_pass(rng: random.Random, work: Path, p: int,
                 table: dict) -> list[dict]:
    ops = []
    types = _deck(rng, TYPES)
    for objective, per_dim in OPTIMIZE_PLAN:
        for dims in range(1, 5):
            for scale, u in zip(_strata(rng, per_dim), _strata(rng, per_dim)):
                i = len(ops)
                box = _box(rng, dims, scale)
                out = work / "outputs" / f"p{p}-opt{i}.json"
                argv = ["optimize", "--type", next(types)]
                if objective == "switching-target":
                    argv += ["--objective", "switching", "--target-p-in-kpa",
                             _fmt(5.0 + 35.0 * u, 2)]
                elif objective in ("suction", "blowing"):
                    argv += ["--objective", objective, "--at-qin-lpm",
                             _fmt(2.0 + 28.0 * u, 1)]
                else:
                    argv += ["--objective", "switching"]
                for key, (lo, hi) in box.items():
                    argv += [BOUND_FLAGS[key], f"{lo:g}:{hi:g}"]
                argv += ["--out", str(out)]
                ops.append({"kind": "optimize", "argv": argv, "out": str(out),
                            "expect": {"box": box, "max_evals": 400}})
    tids = _deck(rng, sorted(table))
    for i, share in enumerate(_strata(rng, CALIBRATES)):
        tid = next(tids)
        data = work / "inputs" / f"p{p}-meas{i}.csv"
        n = _measurement_csv(rng, table[tid], data, share)
        out = work / "outputs" / f"p{p}-cal{i}.json"
        argv = ["calibrate", "--type", tid, "--data", str(data),
                "--fit", "closures", "--out", str(out)]
        ops.append({"kind": "calibrate", "argv": argv, "out": str(out),
                    "expect": {"rows": n}})
    rng.shuffle(ops)
    return ops


def _point_pass(rng: random.Random, work: Path, p: int) -> list[dict]:
    ops = []
    types = _deck(rng, TYPES)
    configs = []
    for i in range(64):
        path = work / "inputs" / f"p{p}-cfg{i}.json"
        _config(rng, path, next(types))
        configs.append(str(path))
    configs = _deck(rng, configs)
    for i, u in enumerate(_strata(rng, SIMULATES)):
        dev = ["--config", next(configs)] if i % 2 else ["--type", next(types)]
        q = _fmt(40.0 * u, 2)
        ops.append({"kind": "simulate", "argv": ["simulate", *dev,
                                                 "--qin-lpm", q],
                    "out": None, "expect": {"q": float(q)}})
    counts = _deck(rng, (2, 3, 4))
    formats = _deck(rng, ("csv", "json"))
    for i in range(FRICTIONS):
        flows = [_fmt(rng.uniform(0.0, 35.0), 1) for _ in range(next(counts))]
        mu0_k = round(rng.uniform(0.2, 0.5), 3)
        mu0_s = round(mu0_k + rng.uniform(0.05, 0.3), 3)
        fmt = next(formats)
        out = work / "outputs" / f"p{p}-fr{i}.{fmt}"
        dev = ["--config", next(configs)] if i % 2 else ["--type", next(types)]
        argv = ["friction", *dev, "--weight-n", _fmt(rng.uniform(0.2, 2.0), 3),
                "--mu0-s", str(mu0_s), "--mu0-k", str(mu0_k),
                "--a-eff-cm2", _fmt(rng.uniform(0.5, 2.0), 2),
                "--qin-lpm", ",".join(flows), "--format", fmt,
                "--out", str(out)]
        ops.append({"kind": "friction", "argv": argv, "out": str(out),
                    "expect": {"flows": [float(f) for f in flows],
                               "mu0_s": mu0_s, "mu0_k": mu0_k,
                               "format": fmt}})
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, work: Path) -> list[list[dict]]:
    """Write every input of ``workload`` under ``work``; return the passes.

    The op list itself is written to ``work/ops.json``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ramp":
        passes = [_ramp_pass(rng, work, p) for p in range(PASSES)]
    elif workload == "design-search":
        table = _reference_rows()
        passes = [_design_pass(rng, work, p, table) for p in range(PASSES)]
    else:
        passes = [_point_pass(rng, work, p) for p in range(PASSES)]
    (work / "outputs").mkdir(parents=True, exist_ok=True)
    _write(work / "ops.json", json.dumps(passes, indent=1, sort_keys=True) + "\n")
    return passes
