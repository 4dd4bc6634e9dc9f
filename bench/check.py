"""Output checker: decides whether one CLI operation's output is right.

Each ``check_*`` function takes the output text and the request's
``expect`` record (see ``workloads.py``) and returns ``None`` when the
output passes, else a one-line reason.  The checks use only the output
and the request, never the code under test, except for the canonical
digests, which compare output bytes with ``reference/canonical.json``,
recorded when the benchmark was introduced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

DEADBAND_PA = 1.0     # |p_out| at or below this is "neutral"
_EPS_PA = 1.0e-6      # printed-precision slack at the deadband edge
_REL = 1.0e-9         # slack for 9-significant-digit round trips

CANONICAL_FILE = Path(__file__).resolve().parent / "reference" / "canonical.json"


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= _REL * max(scale, abs(a), abs(b))


def _mode_ok(mode: str, p_out_pa: float) -> bool:
    if p_out_pa > DEADBAND_PA + _EPS_PA:
        return mode == "blowing"
    if p_out_pa < -DEADBAND_PA - _EPS_PA:
        return mode == "suction"
    if abs(p_out_pa) < DEADBAND_PA - _EPS_PA:
        return mode == "neutral"
    return mode in ("blowing", "suction", "neutral")


def _sign_change_bracket(qs: list[float], ps: list[float]):
    """First bracket (q_lo, q_hi) where p_out changes sign, zeros skipped."""
    last_sign, last_q = 0.0, qs[0]
    for q, p in zip(qs, ps):
        sign = 0.0 if p == 0.0 else math.copysign(1.0, p)
        if sign and last_sign and sign != last_sign:
            return last_q, q
        if sign:
            last_sign, last_q = sign, q
    return None


def _check_rows(qs: list[float], p_out_pa: list[float], modes: list[str],
                switching_q: float | None, max_blow: float, max_suck: float,
                expect: dict) -> str | None:
    start, end, step = expect["start"], expect["end"], expect["step"]
    n = round((end - start) / step)
    if len(qs) != n + 1:
        return f"{len(qs)} rows for a {n + 1}-point grid"
    for i, q in enumerate(qs):
        want = end if i == n else start + i * step
        if not _close(q, want, end):
            return f"row {i} at q={q!r}, grid point is {want!r}"
    for i, (mode, p) in enumerate(zip(modes, p_out_pa)):
        if not _mode_ok(mode, p):
            return f"row {i}: mode {mode!r} with p_out={p!r} Pa"
    bracket = _sign_change_bracket(qs, p_out_pa)
    if bracket is None:
        if switching_q is not None:
            return f"switching_q={switching_q!r} without a sign change"
    else:
        lo, hi = bracket
        if switching_q is None:
            return f"no switching point for the sign change in [{lo}, {hi}]"
        if not (lo - _REL * hi <= switching_q <= hi + _REL * hi):
            return f"switching_q={switching_q!r} outside bracket [{lo}, {hi}]"
    p_kpa = [p / 1000.0 for p in p_out_pa]
    if not _close(max_blow, max(p_kpa)) or not _close(max_suck, -min(p_kpa)):
        return "max_blow/max_suck disagree with the rows"
    return None


def _comment_value(lines: list[str], key: str) -> str:
    prefix = f"# {key}="
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise KeyError(key)


def _num_or_none(text: str) -> float | None:
    return None if text == "none" else float(text)


def check_sweep(text: str, expect: dict) -> str | None:
    if expect["format"] == "json":
        doc = json.loads(text)
        states = doc["states"]
        return _check_rows([s["q_in_lpm"] for s in states],
                           [s["si"]["p_out"] for s in states],
                           [s["mode"] for s in states],
                           doc["switching_q_lpm"], doc["max_blow_kpa"],
                           doc["max_suck_kpa"], expect)
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(ln for ln in lines if not ln.startswith("#")))))
    if expect["si"] != ("p_out_pa" in (rows[0] if rows else {})):
        return "SI columns present iff --si was given"
    p_key, p_scale = ("p_out_pa", 1.0) if expect["si"] else ("p_out_kpa", 1e3)
    return _check_rows([float(r["q_in_lpm"]) for r in rows],
                       [float(r[p_key]) * p_scale for r in rows],
                       [r["mode"] for r in rows],
                       _num_or_none(_comment_value(comments, "switching_q_lpm")),
                       float(_comment_value(comments, "max_blow_kpa")),
                       float(_comment_value(comments, "max_suck_kpa")),
                       expect)


def _ordering_ok(order: list[str], values: dict[str, float | None]) -> bool:
    if sorted(order) != sorted(values):
        return False
    ranked = [-math.inf if values[t] is None else values[t] for t in order]
    return all(a >= b for a, b in zip(ranked, ranked[1:]))


def check_compare(text: str, expect: dict) -> str | None:
    types = expect["types"]
    if expect["format"] == "json":
        doc = json.loads(text)
        table = doc["types"]
        orderings = doc["orderings"]
        if sorted(table) != sorted(types):
            return f"table holds {sorted(table)}, asked for {types}"
    else:
        lines = text.splitlines()
        rows = list(csv.DictReader(io.StringIO(
            "\n".join(ln for ln in lines if not ln.startswith("#")))))
        if [r["type"] for r in rows] != types:
            return f"table rows {[r['type'] for r in rows]}, asked for {types}"
        table = {r["type"]: {k: _num_or_none(v) for k, v in r.items()
                             if k != "type"} for r in rows}
        orderings = {}
        for ln in lines:
            if ln.startswith("# order_"):
                key, _, order = ln[len("# order_"):].partition("=")
                orderings[key] = order.split(">")
    for key, column in (("switching_p_in", "switching_p_in_kpa"),
                        ("max_blow", "max_blow_kpa"),
                        ("max_suck", "max_suck_kpa")):
        if key not in orderings:
            return f"missing ordering {key}"
        if not _ordering_ok(orderings[key],
                            {t: table[t][column] for t in table}):
            return f"ordering {key} disagrees with the table"
    for t, row in table.items():
        if (row["switching_q_lpm"] is None) != (row["switching_p_in_kpa"] is None):
            return f"type {t}: switching fields not present together"
    return None


def check_optimize(text: str, expect: dict) -> str | None:
    doc = json.loads(text)
    for key, (lo, hi) in expect["box"].items():
        v = doc[key]
        if not lo - _REL * hi <= v <= hi + _REL * hi:
            return f"{key}={v!r} outside its box [{lo}, {hi}]"
    if not 1 <= doc["evaluations"] <= expect["max_evals"]:
        return f"evaluations={doc['evaluations']} outside the budget"
    if not math.isfinite(doc["objective_value"]):
        return "objective_value is not finite"
    return None


def check_calibrate(text: str, expect: dict) -> str | None:
    doc = json.loads(text)
    res = doc["residuals"]["p_out"]
    if len(res) != expect["rows"]:
        return f"{len(res)} residuals for {expect['rows']} measured rows"
    rms = math.sqrt(sum(r * r for r in res) / len(res))
    if not _close(doc["rms_residual"]["p_out"], rms, 1e-300):
        return "rms_residual does not match its residual list"
    missing = {"eta", "k0", "p_c"} - set(doc["coefficients"])
    if missing:
        return f"missing coefficients {sorted(missing)}"
    return None


def check_simulate(text: str, expect: dict) -> str | None:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    if set(fields) != {"q_in", "p_in", "p_chamber", "a_fg", "p_out", "mode"}:
        return f"unexpected simulate output fields {sorted(fields)}"
    if not _close(float(fields["q_in"].split()[0]), expect["q"]):
        return f"q_in {fields['q_in']!r}, asked for {expect['q']}"
    p_out_pa = float(fields["p_out"].split("(")[1].split()[0])
    if not _mode_ok(fields["mode"], p_out_pa):
        return f"mode {fields['mode']!r} with p_out={p_out_pa!r} Pa"
    return None


def check_friction(text: str, expect: dict) -> str | None:
    if expect["format"] == "json":
        rows = json.loads(text)
    else:
        rows = [{k: float(v) for k, v in r.items()}
                for r in csv.DictReader(io.StringIO(text))]
    flows = expect["flows"]
    if len(rows) != len(flows):
        return f"{len(rows)} friction rows for {len(flows)} flows"
    if not all(_close(r["q_in_lpm"], q) for r, q in zip(rows, flows)):
        return "friction rows do not match the requested flows"
    ratio = expect["mu0_s"] / expect["mu0_k"]
    for r in rows:
        if r["mu_k"] == 0.0:
            if r["mu_s"] != 0.0 or r["n_eff_n"] != 0.0:
                return "lift-off row with nonzero coefficients"
        elif abs(r["mu_s"] / r["mu_k"] - ratio) > 1.0e-7 * ratio:
            return "mu_s/mu_k departs from mu0_s/mu0_k"
    return None


CHECKS = {
    "sweep": check_sweep,
    "compare": check_compare,
    "optimize": check_optimize,
    "calibrate": check_calibrate,
    "simulate": check_simulate,
    "friction": check_friction,
}


def check_op(op: dict, stdout: str) -> str | None:
    """Check one operation's output; ``stdout`` is used by ``simulate``."""
    try:
        text = stdout if op["out"] is None else Path(op["out"]).read_text(
            encoding="utf-8")
        return CHECKS[op["kind"]](text, op["expect"])
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        return f"missing or malformed {op['kind']} output: {exc!r}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_digests(actual: dict[str, str],
                  reference: dict[str, str]) -> list[str]:
    """Names of canonical outputs whose digest differs from the reference."""
    return sorted(name for name in reference
                  if actual.get(name) != reference[name])


def _canonical() -> dict:
    return json.loads(CANONICAL_FILE.read_text(encoding="utf-8"))


def canonical_argv() -> dict[str, list[str]]:
    """The CLI argv (without ``--out``) of each canonical output, by name."""
    return _canonical()["argv"]


def load_reference_digests() -> dict[str, str]:
    return _canonical()["sha256"]
