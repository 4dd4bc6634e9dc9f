"""In-memory span tracer wrapped around fdrsim's public functions.

``Tracer.install()`` replaces each function in ``TARGETS`` at every name
in the ``fdrsim`` modules that binds it (``flow.solve_steady`` and
``engine.solve_steady`` alike), so calls made through any import path
are seen; ``uninstall()`` puts the originals back.  Each call becomes
one span: name, start, end and the index of the enclosing traced span.
A span's self time is its duration minus the durations of its direct
traced children (one thread, so children never overlap).

Counters recorded at the same boundaries:

* ``flow.solve_steady.newton_iters``: sum of ``NetworkSolution.iterations``.
* ``flow.solve_steady.useful``: solves whose result is still referenced
  when the enclosing traced call returns (kept or returned by the
  caller).  A result dropped on the spot is wasted work.
* ``engine.nelder_mead.evals``: sum of the evaluation counts returned.
* ``engine.sweep.rows``: grid rows returned by ``sweep``.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

TARGETS = (
    "cli.main",
    "core.catalog_device",
    "engine.compare_designs",
    "engine.sweep",
    "engine.optimize_geometry",
    "engine.nelder_mead",
    "calib.fit_closures",
    "friction.friction_curve",
    "engine.solve_operating_point",
    "flow.input_pressure",
    "flow.bifurcation_pressure",
    "gate.opening_area",
    "flow.assemble_network",
    "flow.solve_steady",
    "ejector.output_pressure",
)


class Tracer:
    def __init__(self) -> None:
        self.names = array("i")      # index into TARGETS
        self.parents = array("i")    # enclosing span, -1 at the root
        self.starts = array("d")     # perf_counter seconds
        self.ends = array("d")
        self.counters = {"flow.solve_steady.newton_iters": 0,
                         "flow.solve_steady.useful": 0,
                         "engine.nelder_mead.evals": 0,
                         "engine.sweep.rows": 0}
        self._stack: list[int] = []
        self._pending: list[tuple[weakref.ref, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "fdrsim" or name.startswith("fdrsim."))]
        for nid, target in enumerate(TARGETS):
            module_name, func_name = target.split(".")
            original = getattr(sys.modules.get(f"fdrsim.{module_name}"),
                               func_name, None)
            if original is None:
                continue    # function gone from the program: zero calls
            wrapper = self._wrap(nid, original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._settle_pending(-1)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, nid: int, fn, target: str):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, pending = self._stack, self._pending
        clock = time.perf_counter
        after = {
            "flow.solve_steady": self._after_solve_steady,
            "engine.nelder_mead": self._after_nelder_mead,
            "engine.sweep": self._after_sweep,
        }.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if pending and pending[-1][1] == i:
                    self._settle_pending(i)
            if after is not None:
                after(result, i)
            return result

        return wrapper

    def _after_solve_steady(self, result, i: int) -> None:
        self.counters["flow.solve_steady.newton_iters"] += result.iterations
        self._pending.append((weakref.ref(result), self.parents[i]))

    def _after_nelder_mead(self, result, i: int) -> None:
        self.counters["engine.nelder_mead.evals"] += result[2]

    def _after_sweep(self, result, i: int) -> None:
        self.counters["engine.sweep.rows"] += len(result.states)

    def _settle_pending(self, parent: int) -> None:
        """Judge the solves whose enclosing span ``parent`` just ended."""
        pending = self._pending
        while pending and (parent == -1 or pending[-1][1] == parent):
            ref, _ = pending.pop()
            if ref() is not None:
                self.counters["flow.solve_steady.useful"] += 1

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.names, dtype=np.intc),
                "parent": np.frombuffer(self.parents, dtype=np.intc),
                "start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64)}

    def write(self, path: Path) -> None:
        """Spans as ``.npz``: name ids, parent indices, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, targets=np.array(TARGETS), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: ``<module>.<function>.<stat>`` plus derived."""
        a = self.arrays()
        n_targets = len(TARGETS)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_targets)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_targets)
        out: dict[str, float] = {}
        for nid, target in enumerate(TARGETS):
            out[f"{target}.calls"] = int(calls[nid])
            out[f"{target}.self_s"] = float(self_s[nid])
        c = self.counters
        solves = out["flow.solve_steady.calls"]
        out["flow.solve_steady.newton_iters"] = c["flow.solve_steady.newton_iters"]
        out["flow.solve_steady.useful_share"] = (
            c["flow.solve_steady.useful"] / solves if solves else 1.0)
        points = out["engine.solve_operating_point.calls"]
        out["gate.opening_area.per_point"] = (
            out["gate.opening_area.calls"] / points if points else 0.0)
        out["engine.nelder_mead.evals"] = c["engine.nelder_mead.evals"]
        sop = TARGETS.index("engine.solve_operating_point")
        swp = TARGETS.index("engine.sweep")
        mask = (a["name"] == sop) & has_parent
        in_sweep = int(np.sum(a["name"][a["parent"][mask]] == swp))
        out["engine.bisection_points"] = in_sweep - c["engine.sweep.rows"]
        roots = ~has_parent
        out["trace.root_s"] = float(np.sum(dur[roots]))
        out["trace.spans"] = int(dur.size)
        return out
