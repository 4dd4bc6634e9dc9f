"""A warm-started switching bracket is the cold one, and the scan's.

``engine._switching_bracket`` bisects the grid's rows for the first
negative ``p_out`` when the signs run nonnegative, then negative.  A
design search's binding starts each candidate's bisection at the last
candidate's bracket, and stages each flow once, when a row is first read
there.  In that sign order the first negative row is unique, so any
start must give the bracket of a cold bisection, and the refined flow
must have the bits of the linear ``_switching_q`` scan.  A binding
stages no flow twice, and none whose row no candidate reads.
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
    switching_objective,
    with_gate,
)
from fdrsim._units import M3S_PER_LPM
from fdrsim.model import _point_law

_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)

_QS = engine._grid(0.0, 30.0 * M3S_PER_LPM, 1.0 * M3S_PER_LPM)
_TOP = len(_QS) - 1


def _refined(bracket, law):
    """The flow a bracket ``(lo, below, p_below)`` refines to, as bits."""
    lo, below, p_below = bracket
    if below < 0:
        return None
    return engine._refine_switching(law, _QS[below], _QS[lo],
                                    p_below).hex()


def _scanned(p_outs, law):
    q = engine._switching_q(_QS, p_outs, law)
    return None if q is None else q.hex()


# --- the bracket on any monotone sign pattern ---------------------------------

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


_HINTS = st.one_of(st.none(), st.integers(0, len(_QS)))


@_PROPERTY
@given(sign_patterns(), _HINTS)
# hints at the first row, the last row and past every row
@example([1.0] * 10 + [-1.0] * 21, 0)
@example([1.0] * 10 + [-1.0] * 21, _TOP)
@example([1.0] * 10 + [-1.0] * 21, len(_QS))
# a hint past the switch, and one just above it
@example([1.0] * 10 + [-1.0] * 21, 20)
@example([1.0] * 10 + [-1.0] * 21, 11)
# exact zeros below the bracket, down to row 0: no bracket at all
@example([0.0] * 12 + [-1.0] * 19, 12)
@example([2.0, 0.0, 0.0, 3.0, 0.0, 0.0] + [-1.0] * 25, 6)
# a top row that is not negative, zero or positive: no row is negative
@example([0.0] * 31, 30)
@example([1.0] * 31, 15)
def test_warm_bracket_equals_the_cold_one_and_the_scan(p_outs, hint):
    reads = []

    def row(q):
        reads.append(q)
        return 0.0, 0.0, 0.0, p_outs[_QS.index(q)]

    warm = engine._switching_bracket(_QS, row, p_outs[-1], hint)
    assert len(reads) == len(set(reads))   # each row read at most once
    cold = engine._switching_bracket(_QS, row, p_outs[-1])
    assert warm == cold
    law = _interpolated(p_outs)
    assert _refined(warm, law) == _scanned(p_outs, law)
    # started at its own bracket, the bisection reads rows lo and lo - 1,
    # then only the exact zeros under them
    lo, below, _ = warm
    reads.clear()
    assert engine._switching_bracket(_QS, row, p_outs[-1], lo) == warm
    zeros = lo - 1 - max(below, 0) if lo <= _TOP else 0
    assert len(reads) <= (2 if lo < _TOP else 1) + zeros


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
    previous = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupersonicJetWarning)
        for dimensions in sequence:
            candidate = with_gate(device, **dict(zip("w t h a_ne".split(),
                                                     dimensions)))
            law = _point_law(candidate, coeffs)
            p_outs = [law(q)[3] for q in _QS]
            cold = engine._switching_bracket(_QS, law, p_outs[-1])
            warm = engine._switching_bracket(_QS, law, p_outs[-1], previous)
            assert warm == cold
            assert _refined(warm, law) == _scanned(p_outs, law)
            previous = warm[0]
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
