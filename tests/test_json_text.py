"""The JSON writer: ``cli._json_text`` writes what ``json.dumps`` writes.

The stdlib is the oracle: for any value built from dicts with str keys,
lists, tuples and JSON scalars, ``_json_text`` returns
``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` plus a
newline, and raises the stdlib's own error for a non-finite float.  The
draws hold record lists of one shape, with nested dicts and with a row of
another shape mixed in, which are written value by value.  A ``_Table``
(sweep rows, friction points) is written a column at a time, as the
stdlib writes its ``_json_records`` list.  Every JSON output of the CLI is
canonical, and a sweep or compare of hundreds of rows never enters the
stdlib's pure-Python encoder.
"""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fdrsim import CATALOG_TYPE_IDS
from fdrsim._units import AREA, FLOW, PRESSURE, UNITLESS
from fdrsim.cli import _Column, _json_records, _json_text, _Table, main
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


# columns whose keys a %-template, a JSON string or a duplicate could get
# wrong; a string or bool has no display scale
_COLUMN_NAMES = st.sampled_from(["q_in", "p_out", "a%", "%s", "%%", "si",
                                 '"', "é", ""])
_NUMBERS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([-0.0, 5e-324, 1e308, 2 ** 63]))


@st.composite
def _tables(draw) -> _Table:
    """A table over records ``0 .. n-1``: each column's getter indexes its
    own drawn values."""
    n = draw(st.sampled_from([0, 1, 2, 7]))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        unit = draw(st.sampled_from([UNITLESS, FLOW, PRESSURE, AREA]))
        elements = (st.one_of(_SCALARS, st.dictionaries(_KEYS, _SCALARS,
                                                        max_size=2))
                    if unit is UNITLESS else
                    st.one_of(st.none(), st.integers(-2 ** 70, 2 ** 70),
                              st.floats(-1e300, 1e300)))
        values = draw(st.lists(elements, min_size=n, max_size=n))
        columns.append(_Column(draw(_COLUMN_NAMES), unit,
                               values.__getitem__))
    return _Table(columns, list(range(n)), draw(st.booleans()))


def _records_form(table: _Table) -> list[dict]:
    return _json_records(table.columns, table.records, si=table.si)


@_PROPERTY
@given(_tables(), _SCALARS)
@example(_Table([], [0, 1], True), None)
@example(_Table([_Column("mode", UNITLESS, ["blow", "suck"].__getitem__)],
                [0, 1], True), 1.5)
@example(_Table([_Column("x", UNITLESS, [[1], {"a": 2}].__getitem__)],
                [0, 1], False), "a non-scalar column")
def test_json_table_is_json_dumps_of_its_records(table, scalar):
    records = _records_form(table)
    assert _json_text(table) == _dumps(records)
    assert (_json_text({"a%": scalar, "states": table})
            == _dumps({"a%": scalar, "states": records}))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("si", [False, True])
def test_json_table_non_finite_raises_the_stdlib_error(bad, si):
    table = _Table([_Column("p_out", PRESSURE, [1.0, bad].__getitem__),
                    _Column("mode", UNITLESS, ["blow", "suck"].__getitem__)],
                   [0, 1], si)
    with pytest.raises(ValueError) as expected:
        _dumps({"max_blow_kpa": 1.0, "states": _records_form(table)})
    with pytest.raises(ValueError) as got:
        _json_text({"max_blow_kpa": 1.0, "states": table})
    assert str(got.value) == str(expected.value)


def test_json_text_other_values_raise_the_stdlib_type_error():
    value = {"states": _Table([], [0], False), "x": {1, 2}}
    with pytest.raises(TypeError) as expected:
        _dumps({"states": [{}], "x": {1, 2}})
    with pytest.raises(TypeError) as got:
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


# 601 rows each at --step-lpm 0.05, and a 31-point friction curve
_STEP = ["--step-lpm", "0.05"]
_LONG_OUTPUTS = {
    **{f"sweep_{t}": ["sweep", "--type", t, *_STEP]
       for t in CATALOG_TYPE_IDS},
    "sweep_config": ["sweep", "--config", str(GOLDEN / "device.json"), *_STEP],
    "compare_A-K": ["compare", "--types", ",".join(CATALOG_TYPE_IDS), *_STEP],
    "friction": ["friction", "--weight-n", "1",
                 "--qin-lpm", ",".join(map(str, range(31)))],
}


@pytest.mark.parametrize("name", sorted(_LONG_OUTPUTS))
def test_json_output_is_canonical_without_pure_python_encoder(
        tmp_path, monkeypatch, name):
    # every table and record list goes through the C encoder
    out = tmp_path / "out.json"
    argv = _LONG_OUTPUTS[name]
    with monkeypatch.context() as patch:
        patch.setattr(json.encoder, "_make_iterencode",
                      _no_pure_python_encoder)
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert _canonical(text)
    if argv[0] == "sweep":
        assert len(json.loads(text)["states"]) == 601
    if argv[0] == "friction":
        assert len(json.loads(text)) == 31
