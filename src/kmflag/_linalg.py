"""Exact linear algebra over the rationals for small dense systems.

Vectors are plain lists of int or Fraction; results are normalized to
primitive integer vectors where a scale-free answer makes sense.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def primitive(vec):
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive."""
    scale = 1
    for x in vec:
        if isinstance(x, Fraction):
            scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) if isinstance(x, Fraction) else x * scale for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return [0] * len(vec)
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        g = -g
    return [x // g for x in ints]


class RowSpan:
    """Incrementally maintained reduced row-echelon span of integer rows."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec):
        """Reduce a copy of vec against the span; exact, returns a new list."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = Fraction(v[p], row[p])
                v = [x - f * y if y else x for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        v = self.residual(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        v = primitive(v)
        for row in self.rows:
            if row[p]:
                f = Fraction(row[p], v[p])
                for i in range(p, self.width):
                    if v[i]:
                        row[i] -= f * v[i]
        # keep rows primitive integers after back-elimination
        self.rows = [primitive(r) for r in self.rows]
        pos = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(pos, v)
        self.pivots.insert(pos, p)
        return True


def _rref(rows, ncols: int):
    """Gauss-Jordan elimination over Q on the first ncols columns of a copy
    of rows.  Returns (rows, pivots): row i < len(pivots) has a 1 in column
    pivots[i] and zeros in every other pivot column; the remaining rows
    vanish on the first ncols columns."""
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        if pv != 1:
            pv = Fraction(pv)
            rows[r] = [x / pv if x else x for x in rows[r]]
        row_r = rows[r]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], row_r)]
        pivots.append(col)
        r += 1
    return rows, pivots


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
            v[p] = -row[free]
        basis.append(primitive(v))
    return basis


def kernel_basis(rows, width: int):
    """Primitive integer basis of {v : R v = 0} for the given equation rows."""
    reduced, pivots = _rref(rows, width)
    return _null_vectors(reduced, pivots, width)


def solve_right(a_rows, rhs, ncols: int):
    """Solve A x = b for every right-hand side b in rhs, with one
    elimination of [A | B].  A is given as rows of length ncols; each b has
    one entry per row of A.  Returns (xs, kernel): xs holds one solution per
    b with free coordinates zero, kernel the primitive basis of {v : A v = 0}.
    Raises ValueError when some b is not in the column space of A."""
    aug = [list(ar) + [b[i] for b in rhs] for i, ar in enumerate(a_rows)]
    reduced, pivots = _rref(aug, ncols)
    for row in reduced[len(pivots):]:
        if any(row[ncols:]):
            raise ValueError("inconsistent linear system")
    xs = []
    for s in range(len(rhs)):
        x = [0] * ncols
        for row, col in zip(reduced, pivots):
            x[col] = row[ncols + s]
        xs.append(x)
    return xs, _null_vectors(reduced, pivots, ncols)
