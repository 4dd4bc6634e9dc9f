"""Run the benchmark over several seeds and summarise it as one trajectory point.

Usage (from the repository root):

    python3 bench/record.py --seeds 1-10 --label 1

runs ``bench/run.py`` on every workload in ``BENCHMARK.json`` for
``run_seconds``, once per seed with ``--trace 0`` and once with
``--trace 1`` (first seed), one run at a time, and
prints, for every end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) across seeds, next to the bound
in ``BENCHMARK.json``.  With ``--label N`` the summary is also written to
``bench/results/BENCH_N.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"result-{workload}-{seed}-trace{trace}"
                         ".json").read_text(encoding="utf-8"))
    result["environment"] = record["environment"]
    result["samples"] = record["samples"]
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--label", default=None,
                        help="write bench/results/BENCH_<label>.json")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {"seeds": seeds, "run_seconds": seconds,
                     "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        entry: dict = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "environment": runs[0]["environment"],
            "samples": [r["samples"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']}")
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print(f"  {name:16s} median {stats['median']:12.6g} "
                  f"{stats['unit']:4s} spread {stats['spread']:7.2%} "
                  f"(bound {bounds[name]:.0%})")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": seeds[0],
                              "correct": traced["correct"],
                              "metrics": traced["metrics"]}
        summary["workloads"][workload] = entry

    if args.label is not None:
        path = BENCH / "results" / f"BENCH_{args.label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
