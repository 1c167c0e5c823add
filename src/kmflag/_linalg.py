"""Exact linear algebra over the rationals for small dense systems.

Vectors are plain lists of int or Fraction.  RowSpan, an incrementally
kept reduced row-echelon span, is the one Gauss-Jordan routine:
kernel_basis and solve_right reduce their rows through it.  Elimination is
fraction-free: every row operation replaces v by b*v - a*row, with a and b
the two entries of the pivot column divided by their gcd, and then divides
the result by the gcd of its entries, so integral inputs stay Python ints
throughout.  Results are the unique scale-free answers - primitive reduced
row-echelon rows, primitive kernel vectors - and values read off as
quotients a/b are ints whenever b divides a.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def primitive(vec):
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive."""
    scale = lcm(*[x.denominator for x in vec])
    if scale == 1:
        ints = _content_free([x.numerator for x in vec])
    else:
        ints = _content_free([x.numerator * (scale // x.denominator) for x in vec])
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints


def _content_free(ints):
    """An integer vector divided by the gcd of its entries; signs kept."""
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


def _ratio(a, b):
    """a/b for integers, as an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _combine(v, row, p):
    """b*v - a*row for integer rows, where a = v[p] and b = row[p] are
    divided by their gcd, then divided by the gcd of its entries.  Column p
    of the result is zero; when b > 0, entries where row is zero keep their
    sign."""
    a, b = v[p], row[p]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b == 1:
        return _content_free([x - a * y if y else x for x, y in zip(v, row)])
    return _content_free([b * x - a * y for x, y in zip(v, row)])


class RowSpan:
    """Incrementally maintained reduced row-echelon span of integer rows:
    each row is primitive with a positive pivot, and every other row is
    zero in its pivot column."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec):
        """An integer multiple of vec reduced against the span, with no
        common factor; it vanishes exactly when vec lies in the span.
        Returns a new list."""
        v = primitive(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v = _combine(v, row, p)
        return v

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        v = self.residual(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        if v[p] < 0:
            v = [-x for x in v]
        rows = self.rows
        for k, row in enumerate(rows):
            if row[p]:
                rows[k] = _combine(row, v, p)
        pos = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return True


def _null_vectors(rows, pivots, ncols: int):
    """Primitive basis of the kernel of reduced rows, one vector per free
    column in increasing order."""
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, p in zip(rows, pivots):
            if row[free]:
                v[p] = _ratio(-row[free], row[p])
        basis.append(primitive(v))
    return basis


def kernel_basis(rows, width: int):
    """Primitive integer basis of {v : R v = 0} for the given equation rows."""
    span = RowSpan(width)
    for row in rows:
        span.add(row)
    return _null_vectors(span.rows, span.pivots, width)


def solve_right(a_rows, rhs, ncols: int):
    """One elimination of [A | B] for the right-hand sides b in rhs.

    A is given as rows of length ncols; each b has one entry per row of A.
    Returns (fresh, xs, kernel).  fresh lists, in order, the index of each b
    outside the column span of A and of the b's adjoined before it; A' is A
    with those b's adjoined as columns ncols, ncols + 1, ...  xs holds one
    solution of A' x = b per b, with free coordinates zero, and kernel the
    primitive basis of {v : A' v = 0}, which is zero on the adjoined
    columns.  A zero b solves to the zero vector and stays out of the
    elimination.
    """
    live = [s for s, b in enumerate(rhs) if any(b)]
    span = RowSpan(ncols + len(live))
    for i, ar in enumerate(a_rows):
        span.add(list(ar) + [rhs[s][i] for s in live])
    rows, pivots = span.rows, span.pivots
    # pivots ascend, so A's pivot columns come first, then the adjoined b's
    n_a = sum(p < ncols for p in pivots)
    fresh = [live[p - ncols] for p in pivots[n_a:]]
    width = ncols + len(fresh)
    slots = pivots[:n_a] + list(range(ncols, width))
    xs = [[0] * width for _ in rhs]
    for j, s in enumerate(live):
        x = xs[s]
        for row, p, slot in zip(rows, pivots, slots):
            if row[ncols + j]:
                x[slot] = _ratio(row[ncols + j], row[p])
    pad = [0] * len(fresh)
    kernel = [v + pad for v in _null_vectors(rows[:n_a], pivots[:n_a], ncols)]
    return fresh, xs, kernel
