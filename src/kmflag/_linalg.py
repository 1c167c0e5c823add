"""Exact linear algebra over the integers for small dense systems.

Vectors are plain lists of int.  RowSpan, an incrementally kept reduced
row-echelon span, is the one Gauss-Jordan routine.  solve_right reduces the
columns of [A | B] through it once and finds which right-hand sides are new;
the lifts and the kernel are read off its reduced rows, the Elimination it
returns, only when asked for.  kernel_basis is solve_right with no
right-hand side.  The arithmetic is fraction-free: every row operation
replaces v by b*v - a*row, with a and b the two entries of the pivot column
divided by their gcd, and a row is divided by the gcd of its entries once
it is reduced.  Results are the unique scale-free answers - primitive
reduced row-echelon rows, primitive kernel vectors - and a value read off
the reduced rows is cleared of its denominators by the least scale that
does so, which is returned beside it.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd, lcm


def primitive(vec):
    """An integer vector divided by the gcd of its entries, first nonzero
    entry positive, as a new list."""
    g = gcd(*vec)
    if next((x for x in vec if x), 0) < 0:
        g = -g
    return list(vec) if g in (0, 1) else [x // g for x in vec]


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

    def _reduce(self, vec):
        """An integer multiple of vec minus a combination of the rows, zero
        in every pivot column; it vanishes exactly when vec lies in the
        span.  Only the pivot-pair gcds are divided out."""
        v = vec
        for row, p in zip(self.rows, self.pivots):
            a = v[p]
            if a:
                b = row[p]
                g = gcd(a, b)
                if g != 1:
                    a //= g
                    b //= g
                if b == 1:
                    v = [x - a * y if y else x for x, y in zip(v, row)]
                else:
                    v = [b * x - a * y for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        v = self._reduce(vec)
        g = gcd(*v)
        if not g:
            return False
        b = next(filter(None, v))
        p = v.index(b)  # the first nonzero entry
        if b < 0:
            g = -g
        v = [x // g for x in v]
        b //= g
        rows = self.rows
        for k, row in enumerate(rows):
            a = row[p]
            if a:
                h = gcd(a, b)
                a, c = a // h, b // h
                new = [c * x - a * y for x, y in zip(row, v)]
                h = gcd(*new)
                rows[k] = new if h == 1 else [x // h for x in new]
        pos = bisect(self.pivots, p)
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


class Elimination:
    """What solve_right found for [A | B]: the reduced rows, and in fresh,
    in order, the index of each right-hand side b outside the column span
    of A and of the b's before it.  A' is A with those b's adjoined as
    columns ncols, ncols + 1, ...  lifts() and kernel() read the rest off
    the reduced rows, each only when asked for."""

    __slots__ = ("ncols", "nrhs", "live", "rows", "pivots", "n_a", "fresh")

    def __init__(self, span: RowSpan, ncols: int, nrhs: int, live: list):
        self.ncols, self.nrhs, self.live = ncols, nrhs, live
        self.rows, self.pivots = span.rows, span.pivots
        # pivots ascend, so A's pivot columns come first, then the adjoined b's
        self.n_a = n_a = bisect(self.pivots, ncols - 1)
        self.fresh = [live[p - ncols] for p in self.pivots[n_a:]]

    def lifts(self):
        """One lift (scale, x) per b: x is the integer vector, free
        coordinates zero, with A' x = scale * b for the least integer
        scale >= 1 that allows one.  A zero b lifts to (1, zero vector); an
        adjoined b lifts to (1, its unit vector)."""
        ncols, n_a = self.ncols, self.n_a
        width = ncols + len(self.fresh)
        slots = self.pivots[:n_a] + list(range(ncols, width))
        xs = [(1, [0] * width) for _ in range(self.nrhs)]
        for j, s in enumerate(self.live):
            xs[s] = _read_off(self.rows, self.pivots, ncols + j, slots, width)
        return xs

    def kernel(self):
        """Primitive basis of {v : A' v = 0}, which is zero on the adjoined
        columns, one vector per free column of A in increasing order."""
        # the rows pivoting on adjoined columns are zero on A's, so no
        # kernel vector needs them
        rows, pivots = self.rows[: self.n_a], self.pivots[: self.n_a]
        width = self.ncols + len(self.fresh)
        basis = []
        for free in sorted(set(range(self.ncols)).difference(pivots)):
            # minus a kernel vector; primitive fixes the sign
            scale, v = _read_off(rows, pivots, free, pivots, width)
            v[free] = -scale
            basis.append(primitive(v))
        return basis


def solve_right(a_cols, rhs) -> Elimination:
    """One elimination of [A | B]: A given by its integer columns and each
    right-hand side b in rhs as a column of the same length.  A zero b stays
    out of the elimination."""
    live = [s for s, b in enumerate(rhs) if any(b)]
    span = RowSpan(len(a_cols) + len(live))
    for row in zip(*a_cols, *(rhs[s] for s in live)):
        span.add(row)
    return Elimination(span, len(a_cols), len(rhs), live)


def kernel_basis(rows, width: int):
    """Primitive integer basis of {v : R v = 0} for the given equation rows."""
    return solve_right(list(zip(*rows)) or [()] * width, ()).kernel()
