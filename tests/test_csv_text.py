"""The CSV writer: ``cli._csv_text`` writes what a per-cell writer writes.

``_csv_text`` formats each row with one ``%`` template: ``%.9g`` for a
column of numbers, ``%s`` for a column of strings and for the formatted
cells of any other column.  The oracle is the per-cell writer it
replaced, frozen here: every cell formatted on its own, a string as
itself, ``None`` as ``none`` and anything else with 9 significant
digits.  The draws hold the values a template could format differently
(signed zero, infinities, nan, subnormals, ints past 2**53, bools,
``None``, strings holding ``%`` or ``,``) and columns that mix them.
"""

from hypothesis import example, given, settings, strategies as st

from fdrsim._units import FLOW, FORCE, PRESSURE, UNITLESS
from fdrsim.cli import _Column, _csv_text

_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                     database=None)


def _per_cell_csv(columns, records, *, si=False, comments=()) -> str:
    """The CSV writer as it was before the row template: one cell at a
    time."""
    def display(c):
        values = [c.get(r) for r in records]
        if c.unit.scale is None:
            return values
        return [None if x is None else x / c.unit.scale for x in values]

    def cells(values):
        return [x if x.__class__ is str else "none" if x is None
                else f"{x:.9g}" for x in values]

    si_columns = [c for c in columns if si and c.unit.scale is not None]
    header = ([c.unit.key(c.name) for c in columns]
              + [f"{c.name}_{c.unit.si}" for c in si_columns])
    table = [cells(display(c)) for c in columns]
    table += [cells([c.get(r) for r in records]) for c in si_columns]
    lines = [",".join(header), *map(",".join, zip(*table)), *comments]
    return "\n".join(lines) + "\n"


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"),
                                  float("nan"), 5e-324, -5e-324, 1e308,
                                  -1e308, 1e-9, 123456789.5]))
_INTS = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                  st.sampled_from([2 ** 53 + 1, -(2 ** 63), 10 ** 20]))
_STRINGS = st.one_of(st.text(max_size=6),
                     st.sampled_from(["%", "%s", "%%", "%.9g", "a,b", ",",
                                      "none", ""]))
_NUMBERS = st.one_of(_FLOATS, _INTS, st.booleans(), st.none())
# column kinds: (element strategy, units it may carry); a string has no
# display scale, so only numbers, bools and None take a dimensioned unit
_KINDS = [
    (_FLOATS, [UNITLESS, FLOW, PRESSURE, FORCE]),
    (_INTS, [UNITLESS, FLOW, PRESSURE, FORCE]),
    (st.booleans(), [UNITLESS, PRESSURE]),
    (st.none(), [UNITLESS, FLOW]),
    (_STRINGS, [UNITLESS]),
    (_NUMBERS, [UNITLESS, FLOW, FORCE]),
    (st.one_of(_NUMBERS, _STRINGS), [UNITLESS]),
]
_NAMES = st.sampled_from(["q_in", "p_out", "mode", "a%", "x,y", "si", ""])


@st.composite
def _tables(draw):
    """Columns over records ``0 .. n-1``: each column's getter indexes its
    own drawn values."""
    n = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        elements, units = draw(st.sampled_from(_KINDS))
        values = draw(st.lists(elements, min_size=n, max_size=n))
        columns.append(_Column(draw(_NAMES), draw(st.sampled_from(units)),
                               values.__getitem__))
    return columns, list(range(n))


@_PROPERTY
@given(_tables(), st.booleans(),
       st.lists(st.text(max_size=8).map("# ".__add__), max_size=3))
@example(([_Column("switching_q", FLOW, [None, 5e-5].__getitem__),
           _Column("type", UNITLESS, ["A", "B%"].__getitem__)], [0, 1]),
         True, ["# order_suction=A>B"])
@example(([_Column("n", UNITLESS, [True, 2 ** 53 + 1, -0.0].__getitem__)],
          [0, 1, 2]), False, [])
def test_csv_text_is_the_per_cell_writer(table, si, comments):
    columns, records = table
    assert (_csv_text(columns, records, si=si, comments=comments)
            == _per_cell_csv(columns, records, si=si, comments=comments))
