"""Kazhdan-Lusztig polynomials P_{y,w} and their inverses Q_{x,w} over a
finite open Bruhat ideal, in exact integer arithmetic.

Conventions: one formal variable q throughout; triangularity
P_{y,w} = 0 unless y <= w, P_{w,w} = 1, and the same shape for Q, which is
defined by the signed inversion identity

    sum_{x <= y <= w} (-1)^{l(y)-l(x)} P_{x,y} Q_{y,w} = delta_{x,w}.

Both are built a column at a time, by induction on w along its least left
descent s, with v = s*w < w (Kazhdan-Lusztig, Invent. Math. 53 (1979),
section 2).  The mu-list of an element x holds the z < x whose
mu(z, x), the q^((l(x)-l(z)-1)/2) coefficient of P_{z,x}, is nonzero.

- P_{.,w} from P_{.,v} and v's mu-list: P_{y,w} = P_{sy,w} when sy > y,
  and otherwise P_{y,w} = P_{sy,v} + q P_{y,v} minus the sum of
  mu(z,v) q^((l(v)-l(z)+1)/2) P_{y,z} over the z of the list with sz < z.
- Q_{.,w} from Q_{.,v} by one product in the Hecke algebra.  In
  Soergel's normalisation (Represent. Theory 1 (1997)), with q = v^-2 for
  the Hecke parameter v, the standard basis is
  H_x = sum_y (-1)^(l(x)-l(y)) v^(l(x)-l(y)) Q_{y,x}(v^-2) C_y in the
  Kazhdan-Lusztig basis C, and H_{sx} = (C_s - v) H_x when sx > x.  With
  C_s C_y = (v + 1/v) C_y when sy < y, and C_{sy} plus the mu(z,y) C_z
  over y's mu-list with sz < z otherwise, each Q_{y,v} gives terms to at
  most 2 + |mu-list of y| entries of the new column.

Everything runs on positions in the ideal, reading descents, s*y and the
intervals [y, w] off the ideal's tables; no Weyl element is multiplied.
"""

from __future__ import annotations

from .errors import CrossCheckFailed
# bruhat_leq and multiply stay bound for perfbench's tracer test
from .weyl import BruhatIdeal, WeylElement, bruhat_leq, multiply  # noqa: F401


class QPoly:
    """Univariate integer polynomial in q; zero is the empty tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly((other,))
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the int it equals, so ONE == 1 and hash agree
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.coefficient(0))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(tuple(other * c for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def text(self) -> str:
        """Render as e.g. "1+q^2", terms in ascending degree."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}q^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({self.text()})"


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))


def _positions(bits: int) -> list[int]:
    """The set bits of an int, ascending."""
    return [k for k, b in enumerate(reversed(bin(bits))) if b == "1"]


def _add(acc: list, coeffs, shift: int, factor: int) -> None:
    """acc += factor * q^shift * coeffs, growing acc as needed."""
    if len(acc) < shift + len(coeffs):
        acc.extend([0] * (shift + len(coeffs) - len(acc)))
    for k, c in enumerate(coeffs, shift):
        acc[k] += factor * c


class KLTable:
    """P and Q polynomials scoped to one downward-closed ideal, computed a
    column at a time and keyed by position pairs; the public methods take
    elements."""

    def __init__(self, ideal: BruhatIdeal):
        # ideal.below raises IntervalNotContained unless the ideal is closed
        self.ideal = ideal
        self._below, self._left = ideal.below, ideal.left
        self._length = [w.length() for w in ideal.elements]
        self._p: dict = {}
        self._q: dict = {}
        self._mu: dict = {}

    def kl_polynomial(self, y: WeylElement, w: WeylElement) -> QPoly:
        return self._kl(self.ideal.position(y), self.ideal.position(w))

    def _kl(self, y: int, w: int) -> QPoly:
        p = self._p.get((y, w))
        if p is None:
            if not self._below[w] >> y & 1:
                return ZERO
            self._mu_list(w)  # builds P's columns up to w
            p = self._p[y, w]
        return p

    def _descent(self, w: int):
        """The least left descent of w, None for the identity."""
        left = self._left[w]
        return next((i for i, sw in enumerate(left) if sw is not None and sw < w), None)

    def _mu_list(self, v: int) -> list:
        """The triples (z, mu(z, v), h) with z < v, mu(z, v) != 0 and
        h = (l(v) - l(z) + 1)/2, read off P's column at v.  The columns of
        the whole interval [e, v] are built first, in position order."""
        mu = self._mu.get(v)
        if mu is None:
            for x in _positions(self._below[v]):
                if x not in self._mu:
                    self._kl_recursion(x)
            mu = self._mu[v]
        return mu

    def _kl_recursion(self, w: int) -> None:
        """P's column at w from the columns below it, and its mu-list.

        With s the least left descent of w and v = s*w,
        P_{y,w} = P_{sy,w} when sy > y, and otherwise
        P_{y,w} = P_{sy,v} + q P_{y,v} - sum mu(z,v) q^h P_{y,z}
        over the (z, mu, h) of v's mu-list with sz < z and y <= z.  Every
        z <= w has s*z in the ideal (lifting property), and the y run down
        the positions, so P_{sy,w} is known before P_{y,w}."""
        p, below, left, length = self._p, self._below, self._left, self._length
        i = self._descent(w)
        col = _positions(below[w])
        p[w, w] = ONE
        if i is not None:
            v = left[w][i]
            lowered = [(z, m, h) for z, m, h in self._mu[v] if left[z][i] < z]
            for y in reversed(col[:-1]):
                sy = left[y][i]
                if sy > y:
                    p[y, w] = p[sy, w]
                    continue
                acc = list(p.get((sy, v), ZERO).coeffs)
                _add(acc, p.get((y, v), ZERO).coeffs, 1, 1)
                for z, m, h in lowered:
                    if below[z] >> y & 1:
                        _add(acc, p[y, z].coeffs, h, -m)
                poly = QPoly(acc)
                if any(c < 0 for c in poly.coeffs):
                    raise CrossCheckFailed(f"negative KL coefficient in {poly.text()}")
                if 2 * poly.degree > length[w] - length[y] - 1:
                    raise CrossCheckFailed("KL degree bound violated")
                p[y, w] = poly
        mu = []
        for z in col[:-1]:
            d, odd = divmod(length[w] - length[z] - 1, 2)
            m = 0 if odd else p[z, w].coefficient(d)
            if m:
                mu.append((z, m, d + 1))
        self._mu[w] = mu

    def mu_coefficient(self, z: WeylElement, v: WeylElement) -> int:
        """Coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}, else 0."""
        d, odd = divmod(v.length() - z.length() - 1, 2)
        if d < 0 or odd:
            return 0
        return self.kl_polynomial(z, v).coefficient(d)

    def inverse_kl(self, x: WeylElement, w: WeylElement) -> QPoly:
        return self._inv(self.ideal.position(x), self.ideal.position(w))

    def _inv(self, x: int, w: int) -> QPoly:
        q = self._q.get((x, w))
        if q is None:
            if not self._below[w] >> x & 1:
                return ZERO
            self._inv_column(w)
            q = self._q[x, w]
        return q

    def _inv_column(self, w: int) -> None:
        """Q's columns along w's canonical word, from the highest one known.

        With s the least left descent of w and v = s*w, Q_{.,w} comes from
        Q_{.,v}: for each y with Q_{y,v} != 0, Q_{y,w} -= q Q_{y,v} when
        sy < y, and otherwise Q_{sy,w} and Q_{y,w} gain Q_{y,v} and, for
        each (z, mu, h) of y's mu-list with sz < z, Q_{z,w} gains
        mu q^h Q_{y,v}.  Every index lies below w (lifting property)."""
        q, below, left = self._q, self._below, self._left
        chain = []
        while (w, w) not in q:
            i = self._descent(w)
            if i is None:
                q[w, w] = ONE
                break
            chain.append((w, i))
            w = left[w][i]
        for w, i in reversed(chain):
            v = left[w][i]
            self._mu_list(v)  # builds the mu-lists of every y <= v
            col = {}
            for y in _positions(below[v]):
                c = q[y, v].coeffs
                if not c:
                    continue
                sy = left[y][i]
                if sy < y:
                    _add(col.setdefault(y, []), c, 1, -1)
                    continue
                _add(col.setdefault(sy, []), c, 0, 1)
                _add(col.setdefault(y, []), c, 0, 1)
                for z, m, h in self._mu[y]:
                    if left[z][i] < z:
                        _add(col.setdefault(z, []), c, h, m)
            for x in _positions(below[w]):
                poly = QPoly(col.get(x, ()))
                if any(c < 0 for c in poly.coeffs):
                    raise CrossCheckFailed(
                        f"negative inverse KL coefficient in {poly.text()}"
                    )
                q[x, w] = poly
