"""Exact linear algebra over the integers for small dense systems.

Vectors are plain lists of int.  RowSpan, an incrementally kept reduced
row-echelon span, is the one Gauss-Jordan routine: solve_right reduces its
rows through it, and kernel_basis is solve_right with no right-hand side.
Elimination is fraction-free: every row operation replaces v by b*v - a*row,
with a and b the two entries of the pivot column divided by their gcd, and
then divides the result by the gcd of its entries.  Results are the unique
scale-free answers - primitive reduced row-echelon rows, primitive kernel
vectors - and a value read off the reduced rows is cleared of its
denominators by the least scale that does so, which is returned beside it.
"""

from __future__ import annotations

from math import gcd, lcm


def primitive(vec):
    """An integer vector divided by the gcd of its entries, first nonzero
    entry positive, as a new list."""
    g = gcd(*vec)
    if next((x for x in vec if x), 0) < 0:
        g = -g
    return list(vec) if g in (0, 1) else [x // g for x in vec]


def _content_free(ints):
    """An integer vector divided by the gcd of its entries; signs kept."""
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


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


def _read_off(rows, pivots, c, slots, width: int):
    """Column c of reduced rows, solved for in one slot per row and cleared
    of denominators: (scale, x), x[slot] = scale * row[c] / row[p], for the
    least integer scale >= 1 that makes every entry an integer."""
    pairs = [(row[c], row[p]) for row, p in zip(rows, pivots)]
    scale = lcm(*(b // gcd(a, b) for a, b in pairs if a))
    x = [0] * width
    for slot, (a, b) in zip(slots, pairs):
        x[slot] = scale * a // b
    return scale, x


def _null_vectors(rows, pivots, ncols: int, width: int):
    """Primitive basis of the kernel of reduced rows, one vector of length
    width per free column below ncols, in increasing order."""
    basis = []
    for free in sorted(set(range(ncols)).difference(pivots)):
        # minus a kernel vector; primitive fixes the sign
        scale, v = _read_off(rows, pivots, free, pivots, width)
        v[free] = -scale
        basis.append(primitive(v))
    return basis


def kernel_basis(rows, width: int):
    """Primitive integer basis of {v : R v = 0} for the given equation rows."""
    return solve_right(rows, (), width)[2]


def solve_right(a_rows, rhs, ncols: int):
    """One elimination of [A | B] for the integer right-hand sides b in rhs.

    A is given as rows of length ncols; each b has one entry per row of A.
    Returns (fresh, xs, kernel).  fresh lists, in order, the index of each b
    outside the column span of A and of the b's adjoined before it; A' is A
    with those b's adjoined as columns ncols, ncols + 1, ...  xs holds one
    lift (scale, x) per b: x is the integer vector, free coordinates zero,
    with A' x = scale * b for the least integer scale >= 1 that allows one.
    kernel is the primitive basis of {v : A' v = 0}, which is zero on the
    adjoined columns.  A zero b lifts to (1, zero vector) and stays out of
    the elimination; an adjoined b lifts to (1, its unit vector).
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
    xs = [(1, [0] * width) for _ in rhs]
    for j, s in enumerate(live):
        xs[s] = _read_off(rows, pivots, ncols + j, slots, width)
    # the rows pivoting on adjoined columns are zero on A's, so no kernel
    # vector needs them
    return fresh, xs, _null_vectors(rows[:n_a], pivots[:n_a], ncols, width)
