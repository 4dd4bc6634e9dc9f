"""A warm-started switching scan finds the cold one's bracket.

``engine._switching_q`` finds the first sign change of ``p_out`` along
the grid.  A design search's binding starts each candidate's scan at the
last candidate's sign change, when the signs run nonnegative, then
negative, and stages each flow once, when a row is first read there.  In
that sign order the first negative row is unique, so any start must give
the row and the refined bits of a scan from row 0, and of a plain scan
of the whole grid.  A binding stages no flow twice, and none whose row
no candidate reads, and a design search reads no more rows than it did
when its counts were last measured.
"""

import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

import fdrsim.engine as engine
from fdrsim import (
    CATALOG_TYPE_IDS,
    DEFAULT_COEFFS,
    SupersonicJetWarning,
    catalog_device,
    optimize_geometry,
    switching_objective,
    with_gate,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.model import _point_law

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)

_QS = engine._grid(0.0, 30.0 * M3S_PER_LPM, 1.0 * M3S_PER_LPM)
_TOP = len(_QS) - 1


def _first_change(p_outs, law):
    """The first sign change of a plain scan over every row, exact zeros
    skipped, as ``(row, refined flow's bits)``; ``None`` if none."""
    nonzero = [(i, p) for i, p in enumerate(p_outs) if p != 0.0]
    for (below, p_below), (i, p) in zip(nonzero, nonzero[1:]):
        if (p < 0.0) != (p_below < 0.0):
            return i, engine._refine_switching(law, _QS[below], _QS[i],
                                               p_below).hex()
    return None


def _searched(p_outs, law, start):
    """``_switching_q`` from ``start`` over rows not yet read, as ``(row,
    refined flow's bits)`` or ``None``, and the grid flows it read."""
    reads = []
    rows = dict(zip(_QS, p_outs))
    refine_switching = engine._refine_switching
    refining = False

    def row(q):
        if q in rows and not refining:
            reads.append(q)
            return 0.0, 0.0, 0.0, rows[q]
        return law(q)

    def refine(*args):
        nonlocal refining
        refining = True
        return refine_switching(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_refine_switching", refine)
        found = engine._switching_q(_QS, [None] * len(_QS), row, start)
    return (None if found is None else (found[0], found[1].hex())), reads


# --- the scan on any monotone sign pattern ------------------------------------

_POSITIVE = st.floats(1.0e-300, 1.0e6)


@st.composite
def sign_patterns(draw):
    """31 ``p_out``s that run nonnegative (exact zeros among them), then
    negative; none negative at all, or all of them, included."""
    switch = draw(st.integers(0, len(_QS)))
    head = [draw(st.one_of(st.just(0.0), _POSITIVE)) for _ in range(switch)]
    tail = [-draw(_POSITIVE) for _ in range(len(_QS) - switch)]
    return head + tail


def _interpolated(p_outs):
    """A law through the rows' ``p_out``s, linear between grid flows."""
    def law(q):
        i = min(int(q / _QS[1]), _TOP - 1)
        a = (q - _QS[i]) / (_QS[i + 1] - _QS[i])
        return 0.0, 0.0, 0.0, p_outs[i] + a * (p_outs[i + 1] - p_outs[i])

    return law


@_PROPERTY
@given(sign_patterns(), st.integers(0, _TOP))
# starts at the first row and the last row
@example([1.0] * 10 + [-1.0] * 21, 0)
@example([1.0] * 10 + [-1.0] * 21, _TOP)
# a start past the switch, one just above it, and one at it
@example([1.0] * 10 + [-1.0] * 21, 20)
@example([1.0] * 10 + [-1.0] * 21, 11)
@example([1.0] * 10 + [-1.0] * 21, 10)
# exact zeros below the bracket, down to row 0: no bracket at all
@example([0.0] * 12 + [-1.0] * 19, 12)
@example([2.0, 0.0, 0.0, 3.0, 0.0, 0.0] + [-1.0] * 25, 6)
# no row is negative: the top row zero or positive
@example([0.0] * 31, 30)
@example([1.0] * 31, 15)
def test_warm_bracket_equals_the_cold_one_and_the_scan(p_outs, start):
    law = _interpolated(p_outs)
    cold, _ = _searched(p_outs, law, 0)
    assert cold == _first_change(p_outs, law)
    for other in range(len(_QS)):
        assert _searched(p_outs, law, other)[0] == cold
    warm, reads = _searched(p_outs, law, start)
    assert warm == cold
    assert len(reads) == len(set(reads))   # each row read at most once
    if cold is not None:
        # started at its own answer, the scan reads that row and the last
        # nonzero row below it, and the exact zeros between them
        row = cold[0]
        below = max(i for i in range(row) if p_outs[i] != 0.0)
        assert len(_searched(p_outs, law, row)[1]) == 2 + (row - 1 - below)


# --- the bracket on the device's rows, candidate after candidate --------------

@st.composite
def templates(draw):
    """Catalog templates whose junction cannot reclose the gate, with an
    even or a wide branch, under the default or a stiffer gate."""
    device = catalog_device(draw(st.sampled_from(CATALOG_TYPE_IDS)))
    geometry = device.geometry._replace(
        split_design_rule=False,
        a_branch=draw(st.sampled_from([2.0e-6, 2.148e-6, 2.5e-6])))
    coeffs = DEFAULT_COEFFS._replace(
        **draw(st.sampled_from([{}, {}, {"p_c": 1.0e6}, {"k0": 5.0e-11},
                                {"k0": 1.0e-6, "p_c": 0.0}])))
    return device._replace(geometry=geometry), coeffs


@st.composite
def sequences(draw):
    """A search's candidates: one (w, t, h, a_ne) after another, each a
    small step from the last or a jump anywhere in the catalog's ranges."""
    ranges = ((5.0e-3, 12.0e-3), (0.3e-3, 0.7e-3), (1.5e-3, 2.5e-3),
              (0.25e-6, 0.55e-6))
    point = [draw(st.floats(lo, hi)) for lo, hi in ranges]
    out = [tuple(point)]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            point = [draw(st.floats(lo, hi)) for lo, hi in ranges]
        else:
            point = [min(max(x * (1.0 + draw(st.floats(-0.02, 0.02))), lo),
                         hi) for x, (lo, hi) in zip(point, ranges)]
        out.append(tuple(point))
    return out


@_PROPERTY
@given(templates(), sequences())
def test_a_binding_scores_each_candidate_as_a_cold_one(template, sequence):
    device, coeffs = template
    objective = switching_objective(coeffs)
    score = objective.bind(device)
    start = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        for dimensions in sequence:
            candidate = with_gate(device, **dict(zip("w t h a_ne".split(),
                                                     dimensions)))
            law = _point_law(candidate, coeffs)
            p_outs = tuple(law(q)[3] for q in _QS)
            cold = engine._switching_q(_QS, p_outs, law)
            warm = engine._switching_q(_QS, [None] * len(_QS), law, start)
            assert warm == cold
            assert (None if cold is None else (cold[0], cold[1].hex())
                    ) == _first_change(p_outs, law)
            if cold is not None:
                start = cold[0]
            # the binding, warm and with its stored stages, scores what a
            # fresh binding scores, and so does the same candidate again
            assert (score(*dimensions).hex()
                    == objective.bind(device)(*dimensions).hex()
                    == objective(candidate).hex()
                    == score(*dimensions).hex())


# type B with a narrow branch, whose junction recloses the gate: scanned
_RECLOSING_B = catalog_device("B")._replace(
    geometry=catalog_device("B").geometry._replace(split_design_rule=False,
                                                   a_branch=1.6e-6))


@_PROPERTY
@given(templates(), sequences())
# B's own dimensions, which switch between 13 and 14 L/min, then a step
@example((_RECLOSING_B, DEFAULT_COEFFS),
         [(8.0e-3, 0.5e-3, 2.0e-3, 0.4e-6), (8.1e-3, 0.5e-3, 2.0e-3, 0.4e-6)])
def test_a_binding_stages_each_flow_it_reads_once(template, sequence):
    device, coeffs = template
    staged, read = [], set()
    design_terms, finish = engine._design_terms, engine._finish

    def recording_terms(template, coeffs):
        stage, terms = design_terms(template, coeffs)

        def recording_stage(q_in):
            flow = stage(q_in)
            staged.append(q_in)
            return flow

        return recording_stage, terms

    def recording_finish(flow, terms):
        read.add(flow[0])
        return finish(flow, terms)

    # hypothesis runs each example in one call: no function-scoped fixture
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(engine, "_design_terms", recording_terms)
        patch.setattr(engine, "_finish", recording_finish)
        warnings.simplefilter("ignore", SupersonicJetWarning)
        score = switching_objective(coeffs).bind(device)
        for dimensions in sequence:
            score(*dimensions)
    # no flow is staged twice, and none whose row no candidate read
    assert len(staged) == len(set(staged))
    assert set(staged) <= read


# --- the work a design search does --------------------------------------------

_BOX_B = {"w": (6.0e-3, 10.0e-3), "t": (0.4e-3, 0.6e-3),
          "h": (1.8e-3, 2.0e-3), "a_ne": (0.32e-6, 0.48e-6)}


@pytest.mark.parametrize("target_p_in, finishes, stages", [
    (None, 1466, 123),
    (20.0e3, 1088, 93),
])
def test_a_switching_search_reads_no_more_rows(monkeypatch, target_p_in,
                                               finishes, stages):
    # the rows a 4-key search on type B reads, and the flows it stages,
    # at the default budget: no more than when they were last counted.
    # The counts are deterministic, so the bound has no tolerance.
    counts = {"finish": 0, "stage": 0}
    design_terms, finish = engine._design_terms, engine._finish

    def counted_terms(template, coeffs):
        stage, terms = design_terms(template, coeffs)

        def counted_stage(q_in):
            counts["stage"] += 1
            return stage(q_in)

        return counted_stage, terms

    def counted_finish(flow, terms):
        counts["finish"] += 1
        return finish(flow, terms)

    monkeypatch.setattr(engine, "_design_terms", counted_terms)
    monkeypatch.setattr(engine, "_finish", counted_finish)
    objective = switching_objective(DEFAULT_COEFFS, target_p_in=target_p_in)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        optimize_geometry(objective, _BOX_B, catalog_device("B"))
    assert counts["finish"] <= finishes
    assert counts["stage"] <= stages
