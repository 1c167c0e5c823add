"""Kazhdan-Lusztig polynomials P_{y,w} and their inverses Q_{x,w} over a
finite open Bruhat ideal, in exact integer arithmetic.

Conventions: one formal variable q throughout; triangularity
P_{y,w} = 0 unless y <= w, P_{w,w} = 1, and the same shape for Q, which is
defined by the signed inversion identity

    sum_{x <= y <= w} (-1)^{l(y)-l(x)} P_{x,y} Q_{y,w} = delta_{x,w}.

Both recursions run on positions in the ideal, reading descents, s*y and
the intervals [y, w] off the ideal's tables; no Weyl element is multiplied.
"""

from __future__ import annotations

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


class KLTable:
    """Memoized P and Q polynomials scoped to one downward-closed ideal,
    keyed by position pairs; the public methods take elements."""

    def __init__(self, ideal: BruhatIdeal):
        # ideal.below raises IntervalNotContained unless the ideal is closed
        self.ideal = ideal
        self._below, self._left = ideal.below, ideal.left
        self._length = [w.length() for w in ideal.elements]
        self._p: dict = {}
        self._q: dict = {}

    def kl_polynomial(self, y: WeylElement, w: WeylElement) -> QPoly:
        return self._kl(self.ideal.position(y), self.ideal.position(w))

    def _kl(self, y: int, w: int) -> QPoly:
        key = (y, w)
        cached = self._p.get(key)
        if cached is not None:
            return cached
        if y == w:
            p = ONE
        elif not self._below[w] >> y & 1:
            p = ZERO
        else:
            p = self._kl_recursion(y, w)
            if any(c < 0 for c in p.coeffs):
                raise AssertionError(f"negative KL coefficient in {p.text()}")
            if 2 * p.degree > self._length[w] - self._length[y] - 1:
                raise AssertionError("KL degree bound violated")
        self._p[key] = p
        return p

    def _kl_recursion(self, y: int, w: int) -> QPoly:
        # s = s_i for the least left descent i of w; every z <= w has s*z
        # in the ideal (lifting property), so only w's row can hold None
        left = self._left
        i = next(i for i, sw in enumerate(left[w]) if sw is not None and sw < w)
        sy, v = left[y][i], left[w][i]
        if sy > y:
            # s is a descent of w but an ascent of y: P_{y,w} = P_{sy,w}
            return self._kl(sy, w)
        p = self._kl(sy, v) + self._kl(y, v).shift(1)
        for z in _positions(self._below[v]):
            # mu(z, v): the q^d coefficient of P_{z,v}; z = v gives d odd
            d, odd = divmod(self._length[v] - self._length[z] - 1, 2)
            if odd or left[z][i] > z or not self._below[z] >> y & 1:
                continue
            m = self._kl(z, v).coefficient(d)
            if m:
                p = p - m * self._kl(y, z).shift(d + 1)
        return p

    def mu_coefficient(self, z: WeylElement, v: WeylElement) -> int:
        """Coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}, else 0."""
        d, odd = divmod(v.length() - z.length() - 1, 2)
        if d < 0 or odd:
            return 0
        return self.kl_polynomial(z, v).coefficient(d)

    def inverse_kl(self, x: WeylElement, w: WeylElement) -> QPoly:
        return self._inv(self.ideal.position(x), self.ideal.position(w))

    def _inv(self, x: int, w: int) -> QPoly:
        key = (x, w)
        cached = self._q.get(key)
        if cached is not None:
            return cached
        if x == w:
            q = ONE
        elif not self._below[w] >> x & 1:
            q = ZERO
        else:
            q = ZERO
            for y in _positions(self._below[w]):
                if y == x or not self._below[y] >> x & 1:
                    continue
                term = self._kl(x, y) * self._inv(y, w)
                if (self._length[y] - self._length[x]) % 2:
                    q = q + term
                else:
                    q = q - term
            if any(c < 0 for c in q.coeffs):
                raise AssertionError(f"negative inverse KL coefficient in {q.text()}")
        self._q[key] = q
        return q
