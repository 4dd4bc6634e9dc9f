"""The JSON writer: ``cli._json_text`` writes what ``json.dumps`` writes.

The stdlib is the oracle: for any value built from dicts with str keys,
lists, tuples and JSON scalars, ``_json_text`` returns
``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` plus a
newline, and raises the stdlib's own error for a non-finite float.  Lists
of dicts of one shape take the column-at-a-time path, so the draws hold
such record lists, with nested dicts and with a row of another shape
mixed in.  Every JSON output of the CLI is canonical, and a sweep or
compare of hundreds of rows never enters the stdlib's pure-Python
encoder.
"""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fdrsim import CATALOG_TYPE_IDS
from fdrsim.cli import _json_text, main
from test_golden import CASES, GOLDEN

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# keys a %-template, a JSON string or a line split could get wrong
_KEYS = st.one_of(st.text(max_size=6),
                  st.sampled_from(["%", "%s", "%%", "a%d", '"', "\\", "\n",
                                   "\x00\x1f", "é", " ",
                                   "\U0001f600"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 2 ** 63, -(10 ** 40),
                     "%s", "a\nb", '"']))


@st.composite
def _records(draw) -> list:
    """Dicts of one shape (scalars or nested dicts of scalars), sometimes
    with a row of another shape mixed in."""
    shape = draw(st.dictionaries(
        _KEYS, st.one_of(st.none(), st.dictionaries(_KEYS, st.none(),
                                                    min_size=1, max_size=3)),
        min_size=1, max_size=4))

    def row(shape):
        return {k: draw(_SCALARS) if sub is None else row(sub)
                for k, sub in shape.items()}

    rows = [row(shape) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.dictionaries(_KEYS, _SCALARS, max_size=3)))
    return rows


_VALUES = st.recursive(
    st.one_of(_SCALARS, _records()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=12)


@_PROPERTY
@given(_VALUES)
@example({})
@example([])
@example([{}, {}])
@example([{"a%": 1, "b": {"c": -0.0}}, {"a%": "%s", "b": {"c": 5e-324}}])
@example([{"a": 1}, {"a": {"b": 1}}])
@example([{"a": 1, "b": 2}, {"a": 1, "c": 2}])
@example([{"a": 1}, {"a": 2, "b": 3}])
@example([{"a": {"b": 1}}, {"a": {"b": 2, "c": 3}}])
def test_json_text_is_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: {"states": [{"p_out_kpa": 1.0}, {"p_out_kpa": x}]},
    lambda x: [{"si": {"a": 0.5, "b": x}}, {"si": {"a": 0.5, "b": 2.0}}],
    lambda x: {"a": [1, x]},
])
def test_json_text_non_finite_raises_the_stdlib_error(bad, wrap):
    value = wrap(bad)
    with pytest.raises(ValueError) as expected:
        _dumps(value)
    with pytest.raises(ValueError) as got:
        _json_text(value)
    assert str(got.value) == str(expected.value)


def _canonical(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(n for n in CASES
                                        if n.endswith(".json")))
def test_json_golden_is_canonical(name):
    assert _canonical((GOLDEN / name).read_text(encoding="utf-8"))


def _no_pure_python_encoder(*args, **kwargs):
    raise AssertionError("json.encoder._make_iterencode called")


# 601 rows each at --step-lpm 0.05
_LONG_OUTPUTS = {
    **{f"sweep_{t}": ["sweep", "--type", t] for t in CATALOG_TYPE_IDS},
    "sweep_config": ["sweep", "--config", str(GOLDEN / "device.json")],
    "compare_A-K": ["compare", "--types", ",".join(CATALOG_TYPE_IDS)],
}


@pytest.mark.parametrize("name", sorted(_LONG_OUTPUTS))
def test_json_output_is_canonical_without_pure_python_encoder(
        tmp_path, monkeypatch, name):
    # every record list goes through the C encoder a column at a time
    out = tmp_path / "out.json"
    argv = _LONG_OUTPUTS[name]
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode",
                      _no_pure_python_encoder)
        assert main([*argv, "--step-lpm", "0.05", "--format", "json",
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert _canonical(text)
    if argv[0] == "sweep":
        assert len(json.loads(text)["states"]) == 601
