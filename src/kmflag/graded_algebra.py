"""Exact graded commutative algebra over the rationals.

S is the polynomial ring on the images of the simple roots, graded so that
each generator sits in degree 2.  Modules are finite direct sums of cyclic
pieces S/(alpha)(-shift) for a linear form alpha, with explicit homogeneous
generators, exact below a configured degree cap.  A free piece is the
quotient by the zero form, so every piece shares LinearQuotient's
normal-form arithmetic.  A degree-d element is a flat vector: the
concatenation, over the pieces live in degree d, of its coefficients on
that piece's reduced monomials; a generator is a (degree, vector) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._linalg import RowSpan, solve_right
from .errors import CapBoundaryGenerator, DegreeCapExceeded, DegreeMismatch, ZeroForm


class SPoly:
    """Multivariate polynomial with rational coefficients; terms is a map
    from exponent tuples to nonzero Fractions."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    @classmethod
    def linear(cls, coords) -> "SPoly":
        n = len(coords)
        return cls(
            n,
            {
                tuple(1 if j == i else 0 for j in range(n)): c
                for i, c in enumerate(coords)
                if c
            },
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            v = out.get(exp, 0) + c
            if v:
                out[exp] = v
            else:
                out.pop(exp, None)
        return SPoly(self.nvars, out)

    def __neg__(self):
        return SPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return SPoly(self.nvars, out)

    __rmul__ = __mul__

    def poly_degree(self):
        """Total degree in the generators, None for zero."""
        return max((sum(e) for e in self.terms), default=None)

    def s_degree(self):
        """Graded degree (generators live in degree 2), None for zero."""
        d = self.poly_degree()
        return None if d is None else 2 * d

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "SPoly(0)"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{c}" + ("*" + mono if mono else ""))
        return "SPoly(" + " + ".join(bits) + ")"


def _linear_coords(alpha: SPoly):
    coords = [Fraction(0)] * alpha.nvars
    for exp, c in alpha.terms.items():
        if sum(exp) != 1:
            raise ZeroForm("expected a homogeneous linear form")
        coords[exp.index(1)] = c
    if not any(coords):
        raise ZeroForm("zero linear form")
    return tuple(coords)


def reduce_mod_linear(p: SPoly, alpha: SPoly) -> SPoly:
    """Canonical normal form of p in S/(alpha): eliminate the first
    generator carried by alpha by substitution."""
    coords = _linear_coords(alpha)
    quot = linear_quotient(p.nvars, coords)
    out: dict = {}
    for exp, c in p.terms.items():
        for tgt, f in quot.expand_monomial(exp):
            v = out.get(tgt, 0) + c * f
            if v:
                out[tgt] = v
            else:
                out.pop(tgt, None)
    return SPoly(p.nvars, out)


def divide_by_linear(p: SPoly, alpha: SPoly):
    """(q, r) with p = q*alpha + r and r free of alpha's leading generator."""
    coords = _linear_coords(alpha)
    j = next(i for i, c in enumerate(coords) if c)
    cj = coords[j]
    quot = SPoly.zero(p.nvars)
    while True:
        upper = {e: c for e, c in p.terms.items() if e[j] > 0}
        if not upper:
            return quot, p
        a = SPoly(
            p.nvars,
            {
                tuple(x - (1 if i == j else 0) for i, x in enumerate(e)): Fraction(c) / cj
                for e, c in upper.items()
            },
        )
        quot = quot + a
        p = p - a * alpha


# -- monomial machinery ----------------------------------------------------


class PolyRing:
    """Monomial bookkeeping for a fixed number of generators."""

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._monos: dict[int, tuple] = {}
        self._steps: dict[int, tuple] = {}

    def monomials(self, k: int) -> tuple:
        got = self._monos.get(k)
        if got is None:
            got = tuple(sorted(_compositions(k, self.nvars)))
            self._monos[k] = got
        return got

    def steps(self, k: int) -> tuple:
        """Per monomial m of degree k >= 1, in monomials() order, the pair
        (i, j): x_i is m's first variable and m / x_i is monomial j of
        degree k - 1."""
        got = self._steps.get(k)
        if got is None:
            index = {m: j for j, m in enumerate(self.monomials(k - 1))}
            out = []
            for m in self.monomials(k):
                i = next(t for t, e in enumerate(m) if e)
                out.append((i, index[m[:i] + (m[i] - 1,) + m[i + 1 :]]))
            got = tuple(out)
            self._steps[k] = got
        return got


def _compositions(k: int, n: int):
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


# bounded caches: one entry per generator count, and per (count, label);
# a run meets far fewer distinct labels than the bound, so none is rebuilt
@lru_cache(maxsize=16)
def poly_ring(nvars: int) -> PolyRing:
    return PolyRing(nvars)


def _integral(x):
    """x as an int when it is a whole number."""
    return x.numerator if x.denominator == 1 else x


class LinearQuotient:
    """Normal-form arithmetic in S/(alpha) for a linear form alpha.

    The first generator with a nonzero coefficient is substituted away, so
    normal forms are spanned by the monomials avoiding it.  Substitution,
    reduction and multiplication coefficients are ints whenever they are
    integral, as they are when that generator's coefficient is +-1.  The
    zero form eliminates nothing (elim is None): S/(0) is the free piece S,
    every monomial is a normal form and reduction is the identity.
    """

    def __init__(self, ring: PolyRing, coords):
        self.ring = ring
        self.coords = coords
        self.elim = next((i for i, c in enumerate(coords) if c), None)
        self.sub = {
            i: _integral(-Fraction(c) / coords[self.elim])
            for i, c in enumerate(coords)
            if c and i != self.elim
        }
        self._reduced: dict[int, tuple] = {}
        self._reduced_index: dict[int, dict] = {}
        self._powers: dict[int, dict] = {0: {(0,) * ring.nvars: 1}}
        self._mulmaps: dict = {}

    def reduced_monomials(self, k: int) -> tuple:
        got = self._reduced.get(k)
        if got is None:
            got = tuple(m for m in self.ring.monomials(k) if not self._elim_exp(m))
            self._reduced[k] = got
        return got

    def reduced_index(self, k: int) -> dict:
        got = self._reduced_index.get(k)
        if got is None:
            got = {m: i for i, m in enumerate(self.reduced_monomials(k))}
            self._reduced_index[k] = got
        return got

    def dim(self, k: int) -> int:
        return len(self.reduced_monomials(k))

    def _elim_exp(self, exp) -> int:
        """Exponent of the eliminated generator; 0 when nothing is."""
        return 0 if self.elim is None else exp[self.elim]

    def _power(self, e: int) -> dict:
        """Expansion of x_elim^e as a normal-form polynomial."""
        got = self._powers.get(e)
        if got is None:
            prev = self._power(e - 1)
            out: dict = {}
            for mono, c in prev.items():
                for i, f in self.sub.items():
                    tgt = tuple(x + (1 if t == i else 0) for t, x in enumerate(mono))
                    v = out.get(tgt, 0) + c * f
                    if v:
                        out[tgt] = v
                    else:
                        out.pop(tgt, None)
            out = {mono: _integral(c) for mono, c in out.items()}
            self._powers[e] = out
            got = out
        return got

    def expand_monomial(self, exp):
        """Normal form of a monomial as ((monomial, coeff), ...)."""
        e = self._elim_exp(exp)
        if e == 0:
            return ((exp, 1),)
        rest = tuple(x if i != self.elim else 0 for i, x in enumerate(exp))
        return tuple(
            (tuple(a + b for a, b in zip(rest, mono)), c)
            for mono, c in self._power(e).items()
        )

    def reduce_map_indexed(self, k: int) -> tuple:
        """Reduction matrix in sparse index form: per source monomial index,
        ((reduced index, coeff), ...)."""
        key = ("red", k)
        got = self._mulmaps.get(key)
        if got is None:
            idx = self.reduced_index(k)
            got = tuple(
                tuple((idx[tgt], f) for tgt, f in self.expand_monomial(m))
                for m in self.ring.monomials(k)
            )
            self._mulmaps[key] = got
        return got

    def reduce_vec_indexed(self, vec, k: int):
        out = [0] * self.dim(k)
        rmap = self.reduce_map_indexed(k)
        for i, c in enumerate(vec):
            if c:
                for tgt, f in rmap[i]:
                    out[tgt] += c * f
        return out

    def mul_var_map(self, k: int, var: int) -> tuple:
        """Multiplication by x_var from reduced degree k to reduced degree
        k+1, as ((target, coeff), ...) per source monomial."""
        key = (k, var)
        got = self._mulmaps.get(key)
        if got is None:
            idx = self.reduced_index(k + 1)
            rows = []
            for m in self.reduced_monomials(k):
                if var != self.elim:
                    tgt = tuple(e + (1 if i == var else 0) for i, e in enumerate(m))
                    rows.append(((idx[tgt], 1),))
                else:
                    row = []
                    for i, f in self.sub.items():
                        tgt = tuple(e + (1 if t == i else 0) for t, e in enumerate(m))
                        row.append((idx[tgt], f))
                    rows.append(tuple(row))
            got = tuple(rows)
            self._mulmaps[key] = got
        return got


@lru_cache(maxsize=1024)
def linear_quotient(nvars: int, coords) -> LinearQuotient:
    return LinearQuotient(poly_ring(nvars), coords)


# -- graded module representations -----------------------------------------


@dataclass(frozen=True)
class CyclicPiece:
    """One cyclic summand (S/alpha)(-shift) for a linear form given by its
    coordinate tuple; annihilator None is the zero form, the free S(-shift)."""

    shift: int
    annihilator: tuple | None = None


class ModuleAmbient:
    """A finite direct sum of cyclic pieces with degreewise coordinates."""

    def __init__(self, nvars: int, pieces):
        self.nvars = nvars
        self.ring = poly_ring(nvars)
        self.pieces = tuple(pieces)
        self.quotients = tuple(
            linear_quotient(nvars, tuple(p.annihilator or (0,) * nvars))
            for p in self.pieces
        )
        self._dims: dict[int, tuple] = {}

    def _piece_k(self, piece: CyclicPiece, d: int):
        """Polynomial degree of the degree-d slice of a piece, or None."""
        rel = d - piece.shift
        if rel < 0 or rel % 2:
            return None
        return rel // 2

    def piece_dim(self, t: int, d: int) -> int:
        k = self._piece_k(self.pieces[t], d)
        if k is None:
            return 0
        return self.quotients[t].dim(k)

    def dims(self, d: int) -> tuple:
        """Per-piece dimensions of the degree-d slice, computed once."""
        got = self._dims.get(d)
        if got is None:
            got = tuple(self.piece_dim(t, d) for t in range(len(self.pieces)))
            self._dims[d] = got
        return got

    def dim(self, d: int) -> int:
        return sum(self.dims(d))

    def reduce_free(self, vec, d: int):
        """Image of a flattened degree-d vector of the free module on the
        same shifts: each live block is reduced by its piece's quotient."""
        out = []
        pos = 0
        for piece, q in zip(self.pieces, self.quotients):
            k = self._piece_k(piece, d)
            if k is None:
                continue
            size = len(self.ring.monomials(k))
            block = vec[pos : pos + size]
            pos += size
            out.extend(q.reduce_vec_indexed(block, k))
        return out

    def mul_var_vec(self, vec, d: int, var: int):
        """Multiply a flattened degree-d vector by x_var (degree d+2)."""
        sdims = self.dims(d)
        tdims = self.dims(d + 2)
        out = [0] * sum(tdims)
        src_pos = 0
        tgt_pos = 0
        for t, piece in enumerate(self.pieces):
            sdim = sdims[t]
            if not sdim:
                tgt_pos += tdims[t]
                continue
            k = (d - piece.shift) // 2
            rows = self.quotients[t].mul_var_map(k, var)
            for i in range(sdim):
                c = vec[src_pos + i]
                if c:
                    for tgt, f in rows[i]:
                        out[tgt_pos + tgt] += c * f
            src_pos += sdim
            tgt_pos += tdims[t]
        return out


@dataclass
class GradedModuleRep:
    """Submodule of an ambient sum of cyclic pieces, given by homogeneous
    generators as (degree, flattened degree-d vector) pairs; all degreewise
    data is exact up to degree_cap."""

    ambient: ModuleAmbient
    generators: tuple
    degree_cap: int

    def __post_init__(self):
        for d, vec in self.generators:
            if len(vec) != self.ambient.dim(d):
                raise DegreeMismatch(
                    f"degree-{d} generator has {len(vec)} coordinates, "
                    f"expected {self.ambient.dim(d)}"
                )


def monomial_multiples(amb: ModuleAmbient, gens, d: int, store=None) -> list:
    """The degree-d columns m * g: for each (degree, vector) generator g in
    order, one per monomial m carrying g to degree d, in monomials() order.
    A generator above d or of the other parity contributes no column.

    Each column is x_i times the column of m / x_i one degree lower, x_i
    being m's first variable; the multiplication maps commute, so this is
    exact.  store, a dict the caller keeps across calls on one append-only
    generator list, holds each generator's columns of the last degree
    asked for, so an ascending sweep builds every column once.  The
    ambient may gain pieces between calls, provided a new piece is dead in
    the degrees already built.
    """
    store = {} if store is None else store
    steps = amb.ring.steps
    out = []
    for j, (e, vec) in enumerate(gens):
        rel = d - e
        if rel < 0 or rel % 2:
            continue
        deg, cols = store.get(j, (e, [vec]))
        if deg > d:
            deg, cols = e, [vec]
        while deg < d:
            cols = [
                amb.mul_var_vec(cols[prev], deg, var)
                for var, prev in steps((deg - e) // 2 + 1)
            ]
            deg += 2
        store[j] = (d, cols)
        out.extend(cols)
    return out


def cover_step(amb: ModuleAmbient, gens: list, candidates, d: int,
               cap: int | None = None, store=None, where: str = ""):
    """One degree of a graded projective cover of a submodule M: one
    solve_right of [lower | candidates].

    gens lists the (degree, vector) generators of M found below d, and
    lower their monomial_multiples (kept in store), which span
    (S+ M)_d = S_2 * M_{d-2}; candidates are degree-d vectors of M.
    Returns solve_right's (fresh, xs, kernel): fresh indexes the
    candidates that enlarge the span, the new minimal generators, which
    are appended to gens as (d, vector); xs and kernel are over lower
    followed by those candidates.  With a cap, a generator within one even
    step of it means the answer cannot be trusted, and raises
    CapBoundaryGenerator; where is appended to that error's message.
    """
    lower = monomial_multiples(amb, gens, d, store)
    a_rows = [[col[r] for col in lower] for r in range(amb.dim(d))]
    fresh, xs, kernel = solve_right(a_rows, candidates, len(lower))
    if fresh and cap is not None and d >= cap - 2:
        raise CapBoundaryGenerator(
            f"generator in degree {d} within one step of cap {cap}{where}"
        )
    gens.extend((d, candidates[i]) for i in fresh)
    return fresh, xs, kernel


def degree_basis(module: GradedModuleRep, d: int):
    """Basis of the degree-d slice of the generated submodule, as
    flattened rows."""
    if d > module.degree_cap:
        raise DegreeCapExceeded(f"degree {d} above cap {module.degree_cap}")
    span = RowSpan(module.ambient.dim(d))
    for col in monomial_multiples(module.ambient, module.generators, d):
        span.add(col)
    return span.rows


def minimal_generators(module: GradedModuleRep):
    """Degrees of a minimal homogeneous generating set, with representatives
    drawn from the module's (degree, vector) generators.

    One cover_step per distinct generator degree, ascending: the new
    generators of degree d are the candidates outside the span of the
    degree-d multiples of those already found.  A representative of the
    other parity contributes no column, so one sweep serves both parities.
    Generators above degree_cap are ignored.
    """
    reps = []
    store = {}
    for d in sorted({e for e, _ in module.generators if e <= module.degree_cap}):
        cover_step(
            module.ambient, reps, [vec for e, vec in module.generators if e == d],
            d, module.degree_cap, store,
        )
    return tuple(d for d, _ in reps), reps
