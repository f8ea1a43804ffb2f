"""Tolerance schedules and the simulator's minimal-passing-level scan.

``element_close`` below is a scalar oracle: it states the closeness rule
one element pair at a time, in plain Python, and ``scan_levels`` walks
the grid with it. The vectorized ``min_passing_tolerance``, which takes
``(rows, elements)`` stacks, must agree with that scan on every row of
any stack; single output pairs go in as one-row stacks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcscore.simulator import min_passing_tolerance
from tcscore.tolerance import SLOPES, ScalarKind, atol, rtol

GRID = [float(t) for t in range(-10, 1)]


def element_close(x, y, atol: float, rtol: float) -> bool:
    """Inclusive elementwise check: |x - y| <= atol + rtol * |y|.

    ``y`` is the reference element. Complex values compare through the
    modulus of the difference and of y. Non-finite values are close only
    to an identical non-finite value: NaN matches NaN and infinities must
    agree in sign, per component for complex values.
    """
    if not (_finite(x) and _finite(y)):
        cx, cy = complex(x), complex(y)
        return _component_match(cx.real, cy.real) and _component_match(cx.imag, cy.imag)
    return abs(x - y) <= atol + rtol * abs(y)


def _finite(value) -> bool:
    c = complex(value)
    return math.isfinite(c.real) and math.isfinite(c.imag)


def _component_match(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def scan_levels(xs, ys, kind: ScalarKind, grid=GRID) -> float | None:
    """First grid level at which every pair is close, one pair at a time."""
    for t in grid:
        a, r = atol(kind, t), rtol(kind, t)
        if all(element_close(x, y, a, r) for x, y in zip(xs, ys)):
            return t
    return None

# (kind, atol(-5), atol(0), rtol(-5), rtol(0)); rounded entries checked
# to two significant figures below.
SCHEDULE_TABLE = [
    (ScalarKind.FLOAT16, 1e-5, 1.0, 1e-3, 1.0),
    (ScalarKind.BFLOAT16, 1e-5, 1.0, 1.6e-2, 1.0),
    (ScalarKind.FLOAT32, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.FLOAT64, 1e-7, 1.0, 1e-7, 1.0),
    (ScalarKind.COMPLEX32, 1e-5, 1.0, 1e-3, 1.0),
    (ScalarKind.COMPLEX64, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.COMPLEX128, 1e-7, 1.0, 1e-7, 1.0),
    (ScalarKind.QUINT8, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.QUINT2X4, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.QUINT4X2, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.QINT8, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.QINT32, 1e-5, 1.0, 1.3e-6, 1.0),
    (ScalarKind.OTHER, 0.0, 0.0, 0.0, 0.0),
]


def two_sig_figs(value: float) -> str:
    return f"{value:.1e}"


@pytest.mark.parametrize("kind,atol5,atol0,rtol5,rtol0", SCHEDULE_TABLE)
def test_schedule_table(kind, atol5, atol0, rtol5, rtol0):
    assert two_sig_figs(atol(kind, -5.0)) == two_sig_figs(atol5)
    assert atol(kind, 0.0) == atol0
    assert two_sig_figs(rtol(kind, -5.0)) == two_sig_figs(rtol5)
    assert rtol(kind, 0.0) == rtol0


def test_power_of_ten_entries_exact():
    assert atol(ScalarKind.FLOAT32, -5.0) == 1e-5
    assert atol(ScalarKind.FLOAT64, -5.0) == 1e-7
    assert atol(ScalarKind.BFLOAT16, 0.0) == 1.0
    assert atol(ScalarKind.OTHER, -3.0) == 0.0
    assert rtol(ScalarKind.FLOAT16, -5.0) == 1e-3
    assert rtol(ScalarKind.QINT32, 0.0) == 1.0


def test_rounded_entries_match_two_sig_figs():
    assert rtol(ScalarKind.BFLOAT16, -5.0) == pytest.approx(10 ** -1.796)
    assert two_sig_figs(rtol(ScalarKind.BFLOAT16, -5.0)) == "1.6e-02"
    assert rtol(ScalarKind.FLOAT32, -5.0) == pytest.approx(10 ** -5.886)
    assert two_sig_figs(rtol(ScalarKind.FLOAT32, -5.0)) == "1.3e-06"


@pytest.mark.parametrize("func", [atol, rtol])
def test_positive_level_rejected(func):
    with pytest.raises(ValueError):
        func(ScalarKind.FLOAT32, 0.5)


def test_unknown_kind_parses_to_other():
    assert ScalarKind.from_name("float8_e4m3") is ScalarKind.OTHER
    assert ScalarKind.from_name("bfloat16") is ScalarKind.BFLOAT16


def test_every_kind_has_slopes():
    assert set(SLOPES) == set(ScalarKind)


def test_element_close_basics():
    assert element_close(1.0, 1.0, 0.0, 0.0)
    assert not element_close(2.0, 1.0, 0.5, 0.4)  # |diff| 1.0 > 0.9


def test_element_close_boundary_is_inclusive():
    # Dyadic values make the boundary exact in binary floating point.
    assert element_close(1.0 + 2**-20, 1.0, 2**-20, 0.0)
    assert not element_close(1.0 + 2**-19, 1.0, 2**-20, 0.0)
    diff = (1.0 + 1e-5) - 1.0
    assert element_close(1.0 + 1e-5, 1.0, diff, 0.0)


def test_element_close_complex_uses_modulus():
    # |(3+4j) - 0| = 5
    assert element_close(3 + 4j, 0j, 5.0, 0.0)
    assert not element_close(3 + 4j, 0j, 4.9, 0.0)
    # rtol scales with |y|
    assert element_close(1.05 + 0j, 1 + 0j, 0.0, 0.05 + 1e-12)


def test_element_close_nonfinite_policy():
    nan, inf = float("nan"), float("inf")
    assert element_close(nan, nan, 1.0, 1.0)
    assert element_close(inf, inf, 0.0, 0.0)
    assert element_close(-inf, -inf, 0.0, 0.0)
    assert not element_close(inf, -inf, 1e9, 1e9)
    assert not element_close(nan, 1.0, 1e9, 1e9)
    assert not element_close(1.0, inf, 1e9, 1e9)
    assert element_close(complex(nan, 1.0), complex(nan, 1.0), 0.0, 0.0)
    assert not element_close(complex(nan, 1.0), complex(nan, 2.0), 0.0, 0.0)


def test_other_kind_requires_exact_match():
    a0, r0 = atol(ScalarKind.OTHER, -1.0), rtol(ScalarKind.OTHER, -1.0)
    assert (a0, r0) == (0.0, 0.0)
    assert element_close(0.25, 0.25, a0, r0)
    assert not element_close(0.25, 0.25 + 2**-40, a0, r0)
    assert element_close(float("nan"), float("nan"), a0, r0)


def test_min_passing_identical_inputs():
    assert min_passing_tolerance([[1.0, 2.0]], [[1.0, 2.0]], ScalarKind.FLOAT32, GRID) == [-10.0]


def test_min_passing_small_perturbation():
    assert min_passing_tolerance([[1.0 + 1e-4]], [[1.0]], ScalarKind.FLOAT32, GRID) == [-4.0]


def test_min_passing_never():
    assert min_passing_tolerance([[4.0]], [[1.0]], ScalarKind.FLOAT32, GRID) == [None]


def test_min_passing_level_zero_boundary_inclusive():
    # diff 2.0 equals atol(0) + rtol(0) * |1.0| exactly, so it passes at 0.
    assert min_passing_tolerance([[3.0]], [[1.0]], ScalarKind.FLOAT32, GRID) == [0.0]


def test_min_passing_mismatched_nonfinite_is_never():
    nan = float("nan")
    assert min_passing_tolerance([[nan]], [[1.0]], ScalarKind.FLOAT32, GRID) == [None]
    assert min_passing_tolerance([[nan]], [[nan]], ScalarKind.FLOAT32, GRID) == [-10.0]


def test_min_passing_input_errors():
    with pytest.raises(ValueError):
        min_passing_tolerance([[1.0, 2.0]], [[1.0]], ScalarKind.FLOAT32, GRID)
    with pytest.raises(ValueError):
        min_passing_tolerance([[]], [[]], ScalarKind.FLOAT32, GRID)
    with pytest.raises(ValueError):
        min_passing_tolerance([[1.0]], [[1.0]], ScalarKind.FLOAT32, [])
    with pytest.raises(ValueError):
        min_passing_tolerance([[1.0]], [[1.0]], ScalarKind.FLOAT32, [-2.0, -2.0])
    with pytest.raises(ValueError):
        min_passing_tolerance([[1.0]], [[1.0]], ScalarKind.FLOAT32, [-1.0, 1.0])


def test_min_passing_matches_elementwise_scan():
    # Independent route: scan element_close directly over the grid.
    xs = [1.0, 1.5 + 3e-4, 0.75, -2.0]
    ys = [1.0, 1.5, 0.75 + 1e-7, -2.0 + 5e-2]
    for kind in (ScalarKind.FLOAT32, ScalarKind.FLOAT16, ScalarKind.FLOAT64):
        assert min_passing_tolerance([xs], [ys], kind, GRID) == [scan_levels(xs, ys, kind)]


NAN, INF = float("nan"), float("inf")
# Finite pairs: a reference y and x = y + sign * 10**e (or x = y), so rows
# land on every level of the grid as well as past its loosest one.
_FINITE_PAIR = st.builds(
    lambda y, step, sign: (y + sign * step, y),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0] + [10.0**e for e in range(-12, 2)]),
    st.sampled_from([-1.0, 1.0]),
)
# Non-finite pairs, either way round: matched ((nan, nan), (inf, inf), ...)
# are skipped; mismatched ((inf, -inf), (nan, 1.0), ...) fail their row.
_SPECIAL_PAIR = st.tuples(
    st.sampled_from([NAN, INF, -INF, 1.0]), st.sampled_from([NAN, INF, -INF])
).flatmap(lambda pair: st.sampled_from([pair, pair[::-1]]))
_REAL_PAIR = st.one_of(*[_FINITE_PAIR] * 5, _SPECIAL_PAIR)
_COMPLEX_PAIR = st.builds(
    lambda re, im: (complex(re[0], im[0]), complex(re[1], im[1])), _REAL_PAIR, _REAL_PAIR
)


@st.composite
def stacks(draw):
    """A ``(rows, elements)`` pair of stacks, real or complex, as nested lists."""
    width = draw(st.integers(min_value=1, max_value=6))
    pair = _COMPLEX_PAIR if draw(st.booleans()) else _REAL_PAIR
    rows = draw(
        st.lists(st.lists(pair, min_size=width, max_size=width), min_size=1, max_size=8)
    )
    return [[x for x, _ in row] for row in rows], [[y for _, y in row] for row in rows]


@given(stack=stacks(), kind=st.sampled_from(list(ScalarKind)))
@settings(max_examples=300)
def test_batched_levels_match_scalar_oracle(stack, kind):
    xs, ys = stack
    assert min_passing_tolerance(xs, ys, kind, GRID) == [
        scan_levels(x, y, kind) for x, y in zip(xs, ys)
    ]


@given(stack=stacks(), kind=st.sampled_from(list(ScalarKind)))
@settings(max_examples=100)
def test_one_row_form_agrees_with_stacked_form(stack, kind):
    # Rows are independent: each row scored alone, as a one-row stack,
    # gets the level it gets inside the full stack.
    xs, ys = stack
    stacked = min_passing_tolerance(np.array(xs), np.array(ys), kind, GRID)
    assert [min_passing_tolerance([x], [y], kind, GRID)[0] for x, y in zip(xs, ys)] == stacked


def test_batched_mismatched_nonfinite_fails_its_row_only():
    xs = [[NAN, 1.0 + 1e-4], [NAN, 1.0], [INF, 1.0], [complex(1.0, -INF), 2.0]]
    ys = [[NAN, 1.0], [1.0, 1.0], [-INF, 1.0], [complex(1.0, -INF), 2.0]]
    assert min_passing_tolerance(xs, ys, ScalarKind.FLOAT32, GRID) == [-4.0, None, None, -10.0]
    assert min_passing_tolerance(xs, ys, ScalarKind.OTHER, GRID) == [None, None, None, -10.0]


def test_batched_input_errors():
    with pytest.raises(ValueError):  # a bare output pair is not a stack
        min_passing_tolerance([1.0, 2.0], [1.0, 2.0], ScalarKind.FLOAT32, GRID)
    with pytest.raises(ValueError):
        min_passing_tolerance([[1.0, 2.0]], [[1.0], [2.0]], ScalarKind.FLOAT32, GRID)
    with pytest.raises(ValueError):
        min_passing_tolerance([[[1.0]]], [[[1.0]]], ScalarKind.FLOAT32, GRID)
    with pytest.raises(ValueError):
        min_passing_tolerance([[], []], [[], []], ScalarKind.FLOAT32, GRID)


@given(
    kind=st.sampled_from([k for k in ScalarKind if k is not ScalarKind.OTHER]),
    y=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200)
def test_pass_is_monotone_in_level(kind, y, delta):
    x = y + delta
    passed = [
        element_close(x, y, atol(kind, t), rtol(kind, t)) for t in GRID
    ]
    # Once a level passes, every looser level passes too.
    assert passed == sorted(passed)
    [level] = min_passing_tolerance([[x]], [[y]], kind, GRID)
    if level is None:
        assert not any(passed)
    else:
        assert passed[GRID.index(level)]
        assert not any(passed[: GRID.index(level)])


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=8
    )
)
@settings(max_examples=100)
def test_zero_difference_passes_at_strictest_level(values):
    assert min_passing_tolerance([values], [values], ScalarKind.FLOAT64, GRID) == [GRID[0]]
