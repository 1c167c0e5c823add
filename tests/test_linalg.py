"""Properties of the exact elimination kernel in kmflag._linalg, and of the
reflection test built on it."""

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmflag._linalg import RowSpan, kernel_basis, solve_right
from kmflag.root_datum import validate_cartan
from kmflag.weyl import (
    enumerate_ideal,
    full_weyl_group,
    inverse,
    is_reflection,
    multiply,
    reflection,
)

from oracles import (
    is_linear_reflection,
    kernel_over_q,
    primitive_over_q,
    rref_over_q,
    solve_over_q,
)

entries = st.integers(-3, 3)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """(rows, ncols) with 0..max_rows rows of 0..max_cols entries; some rows
    are copies or multiples of earlier ones, so rank deficiency is common."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            c = draw(entries)
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


def _apply(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def _rank(rows, ncols):
    span = RowSpan(ncols)
    for r in rows:
        span.add(r)
    return span.dim


def _check_kernel(rows, ncols, kernel):
    assert len(kernel) == ncols - _rank(rows, ncols)
    assert _rank(kernel, ncols) == len(kernel)
    for v in kernel:
        assert len(v) == ncols
        assert all(type(x) is int for x in v)
        assert not any(_apply(rows, v))
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
        assert next(x for x in v if x) > 0
    assert kernel == kernel_over_q(rows, ncols)


@settings(max_examples=300)
@given(matrices())
def test_kernel_basis_spans_primitive_null_space(system):
    rows, ncols = system
    _check_kernel(rows, ncols, kernel_basis(rows, ncols))


def _check_solve_right(rows, rhs, ncols):
    """solve_right against the Q oracles, with A' the matrix A with the
    fresh b's adjoined: fresh is the oracle's pivots among the b columns,
    every lift (scale, x) has an int vector x with A' x = scale * b and free
    coordinates zero, scale is the least denominator of the oracle's
    solution over Q, and the kernel is that of A'."""
    system = solve_right(list(zip(*rows)) or [()] * ncols, rhs)
    fresh, xs, kernel = system.fresh, system.lifts(), system.kernel()
    aug = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    _, pivots = rref_over_q(aug, ncols + len(rhs))
    assert fresh == [p - ncols for p in pivots if p >= ncols]
    extended = [list(r) + [rhs[s][i] for s in fresh] for i, r in enumerate(rows)]
    width = ncols + len(fresh)
    assert len(xs) == len(rhs)
    for (scale, x), b, x_q in zip(xs, rhs, solve_over_q(extended, rhs, width)):
        assert type(scale) is int and scale >= 1
        assert len(x) == width
        assert all(type(c) is int for c in x)
        assert _apply(extended, x) == [scale * c for c in b]
        assert all(x[c] == 0 for c in range(ncols) if c not in pivots)
        assert scale == lcm(*(c.denominator for c in x_q))
        assert x == [scale * c for c in x_q]
        if not any(b):
            assert (scale, x) == (1, [0] * width)
    _check_kernel(extended, width, kernel)
    return fresh, xs


@settings(max_examples=300)
@given(matrices(), st.data())
def test_solve_right_consistent(system, data):
    # planted integer solutions, with zero right-hand sides mixed in:
    # nothing is adjoined, so A' is A
    rows, ncols = system
    rhs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            rhs.append([0] * len(rows))
        else:
            x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
            rhs.append(_apply(rows, x))
    fresh, _ = _check_solve_right(rows, rhs, ncols)
    assert fresh == []


@settings(max_examples=300)
@given(matrices(max_rows=5), st.data())
def test_solve_right_adjoins_inconsistent(system, data):
    # append a row c * r_j (or zero) whose right-hand side is off by delta:
    # that b is adjoined as a column, and solves to its own unit vector
    rows, ncols = system
    if rows:
        j = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(entries)
        last = [c * x for x in rows[j]]
    else:
        j, c, last = None, 0, [0] * ncols
    b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    delta = data.draw(st.integers(1, 3))
    b_last = (c * b[j] if j is not None else 0) + delta
    fresh, xs = _check_solve_right(rows + [last], [b + [b_last]], ncols)
    assert fresh == [0]
    assert xs == [(1, [0] * ncols + [1])]


@settings(max_examples=300)
@given(matrices(), st.data())
def test_solve_right_any_rhs(system, data):
    # arbitrary right-hand sides, copies and zeros among them
    rows, ncols = system
    rhs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if rhs and data.draw(st.booleans()):
            rhs.append(list(data.draw(st.sampled_from(rhs))))
        else:
            rhs.append(data.draw(st.lists(entries, min_size=len(rows),
                                          max_size=len(rows))))
    _check_solve_right(rows, rhs, ncols)


@settings(max_examples=300)
@given(matrices())
def test_rowspan_rows_are_primitive_oracle_rows(system):
    rows, ncols = system
    span = RowSpan(ncols)
    for r in rows:
        span.add(r)
    reduced, pivots = rref_over_q(rows, ncols)
    assert span.rows == [primitive_over_q(r) for r in reduced[: len(pivots)]]
    assert span.pivots == pivots
    assert all(type(x) is int for row in span.rows for x in row)
    assert all(span.contains(r) for r in rows)


@pytest.mark.parametrize(
    "cartan, bound",
    [
        ([[2, -1], [-2, 2]], None),
        ([[2, -2], [-2, 2]], 4),
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 3),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], None),
    ],
    ids=["b2", "affine_a1", "hyperbolic", "a3"],
)
def test_is_reflection_matches_linear_oracle(cartan, bound):
    datum = validate_cartan(cartan)
    ideal = full_weyl_group(datum) if bound is None else enumerate_ideal(datum, bound)
    for x in ideal:
        for y in ideal:
            t = multiply(y, inverse(x))
            beta = is_reflection(t)
            assert (beta is not None) == is_linear_reflection(t)
            if beta is not None:
                assert reflection(datum, beta) == t
