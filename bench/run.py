"""fdrsim benchmark: one workload, one process, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload ramp --seed 1 --seconds 20 --trace 0

The run generates every input from ``--seed`` (``workloads.py``), then
drives the public entry point ``fdrsim.cli.main(argv)`` in-process, one
operation after the other, in pass order for ``--seconds``, and scales
each time to a nominal host speed by a reference kernel timed between
the operations.  Every output is checked (``check.py``) after timing
ends, and
three canonical outputs are compared with digests recorded when the
benchmark was introduced.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
pass alternately untraced and traced (``tracer.py``) and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A record with
the environment and sample counts goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 9       # cold starts timed per run (at least), after one untimed
MIN_OPS = 100           # a run times at least this many operations
REF_NOMINAL_S = 0.5e-3  # reference kernel time at the nominal speed
REF_EVERY_S = 0.05      # operation time between two reference samples
REF_NEAR = 3            # reference samples each side that scale a time
DEADLINE_S = 170        # the whole run raises Deadline after this


class Deadline(BaseException):
    """Raised by SIGALRM; not an ``Exception``, so the client's per-operation
    ``except Exception`` cannot swallow it and the run really stops."""


def _deadline(signum, frame):
    raise Deadline(f"benchmark run exceeded {DEADLINE_S} s")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def cold_start() -> float:
    """Wall seconds for a fresh interpreter to import the CLI and build its
    parser.  No timeout: ``Popen.wait`` with one polls in steps of up to
    50 ms, which would quantize the measurement (``DEADLINE_S`` still
    bounds the run)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import fdrsim.cli as c; c.build_parser()"],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Client:
    """Runs operations through ``fdrsim.cli.main`` and keeps what they print."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("fdrsim.cli")
        self.attempted = 0
        self.errors: dict[int, str] = {}    # id(op) -> first failure
        self.stdout: dict[int, str] = {}    # id(op) -> last stdout

    def run(self, op: dict) -> float | None:
        """Execute one op; return its latency in seconds, None on failure."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except SystemExit as exc:       # argparse rejected the argv
            rc = f"exit {exc.code}"
        except Exception as exc:        # keep the loop going; counted below
            rc = repr(exc)
        dt = time.perf_counter() - t0
        self.stdout[id(op)] = out.getvalue()
        if rc != 0:
            self.errors.setdefault(id(op), f"rc={rc} {err.getvalue().strip()}")
            return None
        return dt

    def run_pass(self, ops: list[dict]) -> tuple[float, list[float]]:
        latencies = []
        t0 = time.perf_counter()
        for op in ops:
            dt = self.run(op)
            if dt is not None:
                latencies.append(dt)
        return time.perf_counter() - t0, latencies


def reference_kernel() -> None:
    """Fixed work in the CLI's own mix (Python calls, small numpy arrays,
    number formatting); what it takes shows the host's current speed."""
    a = numpy.linspace(0.0, 1.0, 32)
    s = 0.0
    for i in range(120):
        b = a * (i + 1.0)
        s += float(numpy.sqrt(b @ b)) + math.exp(-i / 50.0)
        s += len(f"{s:.6g}")


class Speedometer:
    """Times ``reference_kernel`` between operations and scales a time
    measured at some moment to the nominal speed, where the kernel takes
    ``REF_NOMINAL_S``."""

    def __init__(self) -> None:
        self.at: list[float] = []       # midpoint of each sample
        self.took: list[float] = []     # its duration

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def scale(self, at: float) -> float:
        i = bisect.bisect(self.at, at)
        near = self.took[max(0, i - REF_NEAR):i + REF_NEAR]
        return REF_NOMINAL_S / statistics.median(near)


def timed_run(client: Client, passes: list[list[dict]],
              seconds: float) -> dict:
    """Operations in pass order until ``seconds`` have elapsed.

    Every time is scaled to the nominal speed by the reference samples
    taken around it (``Speedometer``): on a shared host whose speed swings
    by up to 2x for seconds at a time, the scaled times keep the
    program's cost and drop the host's.  The cold starts for ``setup_s``
    are spread over the run, each between reference samples."""
    speed = Speedometer()
    timed: list[tuple[float, float]] = []       # (midpoint, latency)
    starts: list[tuple[float, float]] = []      # (midpoint, cold start)
    ops_run: list[dict] = []
    cold_start()        # untimed: byte-compiles and fills the file cache
    for _ in range(2 * REF_NEAR):
        speed.sample()
    t_start = time.perf_counter()
    since_sample = 0.0
    k = 0
    while (time.perf_counter() - t_start < seconds
           or len(ops_run) < MIN_OPS):
        for op in passes[k % len(passes)]:
            if since_sample >= REF_EVERY_S:
                speed.sample()
                since_sample = 0.0
            if len(starts) * seconds <= (time.perf_counter() - t_start) * SETUP_SAMPLES:
                speed.sample()
                t0 = time.perf_counter()
                starts.append((t0, cold_start()))
                speed.sample()
            t0 = time.perf_counter()
            dt = client.run(op)
            ops_run.append(op)
            if dt is not None:
                timed.append((t0 + dt / 2, dt))
                since_sample += dt
            if (time.perf_counter() - t_start >= seconds
                    and len(ops_run) >= MIN_OPS):
                break
        k += 1
    while len(starts) < SETUP_SAMPLES:
        speed.sample()
        t0 = time.perf_counter()
        starts.append((t0, cold_start()))
    for _ in range(REF_NEAR):
        speed.sample()
    if len(timed) < MIN_OPS // 2:
        raise RuntimeError(f"only {len(timed)} of {len(ops_run)} operations "
                           "succeeded")
    ms = sorted(dt * speed.scale(at) * 1e3 for at, dt in timed)
    raw_ms = sorted(dt * 1e3 for _, dt in timed)
    setup = [dt * speed.scale(at) for at, dt in starts]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {"ops_run": ops_run, "passes": k,
            "elapsed_s": time.perf_counter() - t_start,
            "samples": len(ms),
            "beyond_p90": sum(1 for x in ms if x > deciles[8]),
            "reference_ms": {"samples": len(speed.took),
                             "min": min(speed.took) * 1e3,
                             "median": statistics.median(speed.took) * 1e3,
                             "max": max(speed.took) * 1e3},
            "unscaled": {
                "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1e3),
                "latency_p50_ms": statistics.median(raw_ms),
                "latency_p90_ms": statistics.quantiles(
                    raw_ms, n=10, method="inclusive")[8],
                "setup_s": statistics.median(dt for _, dt in starts)},
            "setup_samples_s": setup,
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ms) / (sum(ms) / 1e3),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": deciles[8]}


def traced_run(client: Client, ops: list[dict], seconds: float,
               spans_path: Path) -> dict:
    """Alternate untraced and traced runs of one pass until ``seconds``."""
    tracer_mod = importlib.import_module("tracer")
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    t_start = time.perf_counter()
    while True:
        untraced.append(client.run_pass(ops)[0])
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced.append(client.run_pass(ops)[0])
        finally:
            tracer.uninstall()
        if not summaries:
            tracer.write(spans_path)
        summaries.append(tracer.summary())
        del tracer
        if time.perf_counter() - t_start >= seconds:
            break
    metrics: dict[str, float] = {}
    for key, value in summaries[0].items():
        if key.endswith("_s"):     # times: median over repetitions
            metrics[key] = statistics.median(s[key] for s in summaries)
        else:                      # counts repeat exactly for one pass
            metrics[key] = value
    untraced_rate = len(ops) / statistics.median(untraced)
    traced_rate = len(ops) / statistics.median(traced)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
              for s in summaries]
    return {"metrics": metrics, "repetitions": len(summaries),
            "ops_run": ops * (2 * len(summaries)),
            "counts_repeat": all(c == counts[0] for c in counts)}


def canonical_digests(client: Client, work: Path) -> dict[str, str]:
    check = importlib.import_module("check")
    digests = {}
    for name, argv in check.canonical_argv().items():
        out = work / "canonical" / name
        out.parent.mkdir(parents=True, exist_ok=True)
        op = {"argv": [*argv, "--out", str(out)]}
        if client.run(op) is not None and out.is_file():
            digests[name] = check.sha256_file(out)
    return digests


def environment(args: argparse.Namespace) -> dict:
    return {"cpu_count": os.cpu_count(),
            "cpu_pinned": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)

    if not (ROOT / "src" / "fdrsim" / "cli.py").is_file():
        return _fail(f"no fdrsim sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    os.environ.pop("FDR_WORKERS", None)     # one client, no worker threads
    # one CPU for the client, its cold starts and the reference kernel, so
    # that the reference samples see the speed the operations see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    work = (OUT / "work" / f"{args.workload}-{args.seed}").relative_to(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    passes = workloads.generate(args.workload, args.seed, work)

    client = Client()
    for op in passes[0][:5]:            # imports and first-call set-up
        client.run(op)
    client.attempted, client.errors = 0, {}

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    if args.trace:
        run = traced_run(client, passes[0], args.seconds,
                         OUT / f"spans-{args.workload}.npz")
        values = run["metrics"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        run = timed_run(client, passes, args.seconds)
        values = dict(run, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}

    # correctness: every distinct op that ran, then the canonical digests
    attempted = client.attempted
    failures = dict(client.errors)
    runs_of = collections.Counter(id(op) for op in run["ops_run"])
    seen = {id(op): op for op in run["ops_run"]}
    for key, op in seen.items():
        if key not in failures:
            reason = check.check_op(op, client.stdout.get(key, ""))
            if reason is not None:
                failures[key] = reason
    failed = sum(runs_of[k] for k in failures)
    digests = canonical_digests(client, work)
    bad_digests = check.check_digests(digests, check.load_reference_digests())
    correct = failed == 0 and not bad_digests and run.get("counts_repeat", True)

    for key, reason in list(failures.items())[:5]:
        print(f"bench: FAILED {' '.join(seen[key]['argv'])}: {reason}",
              file=sys.stderr)
    for name in bad_digests:
        print(f"bench: canonical output {name} differs from the reference",
              file=sys.stderr)

    record = {"environment": environment(args),
              "samples": {"attempted": attempted, "failed": failed,
                          "fail_share": failed / attempted,
                          **{k: v for k, v in run.items()
                             if k in ("passes", "elapsed_s", "samples",
                                      "beyond_p90", "repetitions", "unscaled",
                                      "reference_ms",
                                      "setup_samples_s")}},
              "canonical_sha256": digests,
              "correct": correct, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(f"bench: fail_share={failed / attempted} ({failed}/{attempted}); "
          f"environment {json.dumps(record['environment'], sort_keys=True)}; "
          f"samples {json.dumps(record['samples'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
