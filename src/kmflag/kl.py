"""Kazhdan-Lusztig polynomials P_{y,w} and their inverses Q_{x,w} over a
finite open Bruhat ideal, in exact integer arithmetic.

Conventions: one formal variable q throughout; triangularity
P_{y,w} = 0 unless y <= w, P_{w,w} = 1, and the same shape for Q, which is
defined by the signed inversion identity

    sum_{x <= y <= w} (-1)^{l(y)-l(x)} P_{x,y} Q_{y,w} = delta_{x,w}.
"""

from __future__ import annotations

from .errors import IntervalNotContained
from .weyl import (
    BruhatIdeal,
    WeylElement,
    bruhat_leq,  # noqa: F401  perfbench's tracer test expects it bound here
    multiply,
    simple_reflection,
)


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
        return hash(self.coeffs)

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


class KLTable:
    """Memoized P and Q polynomials scoped to one downward-closed ideal.

    descent_choice, when given, maps (w, left_descents) to the index used
    by the recursion; the result must not depend on it.
    """

    def __init__(self, ideal: BruhatIdeal, descent_choice=None):
        if not ideal.is_downward_closed():
            raise IntervalNotContained("ideal is not downward closed")
        self.ideal = ideal
        self._descent_choice = descent_choice
        self._p: dict = {}
        self._q: dict = {}

    def kl_polynomial(self, y: WeylElement, w: WeylElement) -> QPoly:
        self.ideal.require(y, w)
        return self._kl(y, w)

    def _kl(self, y: WeylElement, w: WeylElement) -> QPoly:
        key = (y, w)
        cached = self._p.get(key)
        if cached is not None:
            return cached
        if y == w:
            p = ONE
        elif not self.ideal.leq(y, w):
            p = ZERO
        else:
            p = self._kl_recursion(y, w)
            if any(c < 0 for c in p.coeffs):
                raise AssertionError(f"negative KL coefficient in {p.text()}")
            if 2 * p.degree > w.length() - y.length() - 1:
                raise AssertionError("KL degree bound violated")
        self._p[key] = p
        return p

    def _kl_recursion(self, y: WeylElement, w: WeylElement) -> QPoly:
        datum = self.ideal.datum
        descents = w.left_descents()
        if self._descent_choice is None:
            i = descents[0]
        else:
            i = self._descent_choice(w, descents)
        s = simple_reflection(datum, i)
        sy = multiply(s, y)
        if sy.length() > y.length():
            # s is a descent of w but an ascent of y: P_{y,w} = P_{sy,w}
            return self._kl(sy, w)
        v = multiply(s, w)
        p = self._kl(sy, v) + self._kl(y, v).shift(1)
        for z in self.ideal:
            if z == v or i not in z.left_descents():
                continue
            if not (self.ideal.leq(y, z) and self.ideal.leq(z, v)):
                continue
            m = self.mu_coefficient(z, v)
            if m:
                exp = w.length() - z.length()
                if exp % 2:
                    raise AssertionError("odd exponent in the mu correction")
                p = p - m * self._kl(y, z).shift(exp // 2)
        return p

    def mu_coefficient(self, z: WeylElement, v: WeylElement) -> int:
        """Coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}, else 0."""
        d = v.length() - z.length() - 1
        if d < 0 or d % 2:
            return 0
        return self._kl(z, v).coefficient(d // 2)

    def inverse_kl(self, x: WeylElement, w: WeylElement) -> QPoly:
        self.ideal.require(x, w)
        return self._inv(x, w)

    def _inv(self, x: WeylElement, w: WeylElement) -> QPoly:
        key = (x, w)
        cached = self._q.get(key)
        if cached is not None:
            return cached
        if x == w:
            q = ONE
        elif not self.ideal.leq(x, w):
            q = ZERO
        else:
            q = ZERO
            for y in self.ideal:
                if y == x or not (self.ideal.leq(x, y) and self.ideal.leq(y, w)):
                    continue
                term = self._kl(x, y) * self._inv(y, w)
                if (y.length() - x.length()) % 2:
                    q = q + term
                else:
                    q = q - term
            if any(c < 0 for c in q.coeffs):
                raise AssertionError(f"negative inverse KL coefficient in {q.text()}")
        self._q[key] = q
        return q
