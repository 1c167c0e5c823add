"""Exact graded commutative algebra with integral normal forms.

S is the polynomial ring on the images of the simple roots, graded so that
each generator sits in degree 2.  Modules are finite direct sums of cyclic
pieces S/(alpha)(-shift) for a linear form alpha, with explicit homogeneous
generators, exact below a configured degree cap.  A free piece, like S
itself, is the quotient by the zero form, so every piece shares
LinearQuotient's normal-form arithmetic, whose maps are all integral.  A
degree-d element is a flat vector: the concatenation, over the pieces
live in degree d, of its coefficients on that piece's monomials; a
generator is a (degree, vector) pair.
"""

from __future__ import annotations

from functools import lru_cache

from ._linalg import Elimination, solve_right
from ._value import Value
from .errors import CapBoundaryGenerator, DegreeMismatch


# -- monomial machinery ----------------------------------------------------


def _compositions(k: int, n: int):
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


class LinearQuotient:
    """Normal-form arithmetic in S/(alpha) for a linear form alpha.

    Let c be alpha's first nonzero coefficient, on the generator x_e.  Then
    S/(alpha) is the polynomial ring on the kept generators scaled as
    t_i = x_i/|c| (i != e), so normal forms are spanned by the monomials
    avoiding x_e, read in the t_i.  Every generator is one integral linear
    form in the t_i: x_i = |c| t_i and x_e = -sign(c) sum_{i != e} alpha_i t_i.
    images[var] holds that form as {kept index: coefficient}, so every map
    is integral.  Multiplication by a variable (mul_var_map) is the one
    primitive; reduction maps are built from it.  The zero form eliminates
    nothing (elim is None): S/(0) is the polynomial ring S itself, t_i = x_i,
    its monomials are every composition and reduction is the identity.
    ring is that free quotient, and a quotient's monomials are the ring's
    that avoid x_e, in the ring's order.
    """

    def __init__(self, nvars: int, coords):
        self.nvars = nvars
        self.elim = e = next((i for i, c in enumerate(coords) if c), None)
        self.ring = self if e is None else linear_quotient(nvars, (0,) * nvars)
        c = 1 if e is None else coords[e]
        sign = 1 if c > 0 else -1
        self.images = tuple(
            {t: -sign * a for t, a in enumerate(coords) if a and t != e}
            if i == e else {i: abs(c)}
            for i in range(nvars)
        )
        self._monos: dict[int, tuple] = {}
        self._index: dict[int, dict] = {}
        self._steps: dict[int, tuple] = {}
        self._mulmaps: dict = {}

    def monomials(self, k: int) -> tuple:
        """The normal-form monomials of degree k, as exponent tuples."""
        got = self._monos.get(k)
        if got is None:
            e = self.elim
            if e is None:
                got = tuple(sorted(_compositions(k, self.nvars)))
            else:
                got = tuple(m for m in self.ring.monomials(k) if not m[e])
            self._monos[k] = got
        return got

    def index(self, k: int) -> dict:
        got = self._index.get(k)
        if got is None:
            got = {m: i for i, m in enumerate(self.monomials(k))}
            self._index[k] = got
        return got

    def dim(self, k: int) -> int:
        return len(self.monomials(k))

    def steps(self, k: int) -> tuple:
        """Per monomial m of degree k >= 1, in monomials() order, the pair
        (i, j): x_i is m's first variable and m / x_i is monomial j of
        degree k - 1."""
        got = self._steps.get(k)
        if got is None:
            index = self.index(k - 1)
            out = []
            for m in self.monomials(k):
                i = next(t for t, e in enumerate(m) if e)
                out.append((i, index[m[:i] + (m[i] - 1,) + m[i + 1 :]]))
            got = self._steps[k] = tuple(out)
        return got

    def reduce_map_indexed(self, k: int) -> tuple:
        """Reduction matrix in sparse index form: per ring monomial index,
        ((normal-form index, coeff), ...).

        The image of a monomial m is x_i times the image of m / x_i, x_i
        being m's first variable, so reduction is built from mul_var_map."""
        key = ("red", k)
        got = self._mulmaps.get(key)
        if got is None:
            if k == 0:
                got = (((0, 1),),)
            else:
                prev = self.reduce_map_indexed(k - 1)
                rows = []
                for var, j in self.ring.steps(k):
                    mul = self.mul_var_map(k - 1, var)
                    acc: dict = {}
                    for src, c in prev[j]:
                        for tgt, f in mul[src]:
                            acc[tgt] = acc.get(tgt, 0) + c * f
                    rows.append(tuple((t, v) for t, v in acc.items() if v))
                got = tuple(rows)
            self._mulmaps[key] = got
        return got

    def mul_var_map(self, k: int, var: int) -> tuple:
        """Multiplication by x_var from degree k to degree k+1, as
        ((target, coeff), ...) per source monomial: t^m goes to sum over
        images[var] of f * t^m * t_i."""
        key = (k, var)
        got = self._mulmaps.get(key)
        if got is None:
            idx = self.index(k + 1)
            image = self.images[var].items()
            got = tuple(
                tuple(
                    (idx[m[:i] + (m[i] + 1,) + m[i + 1 :]], f) for i, f in image
                )
                for m in self.monomials(k)
            )
            self._mulmaps[key] = got
        return got


# bounded cache, one entry per (count, label), the ring being the zero
# label; a run meets far fewer distinct labels than the bound, so none is
# rebuilt
@lru_cache(maxsize=1024)
def linear_quotient(nvars: int, coords) -> LinearQuotient:
    return LinearQuotient(nvars, coords)


# -- graded module representations -----------------------------------------


class CyclicPiece(Value):
    """One cyclic summand (S/alpha)(-shift) for a linear form given by its
    coordinate tuple; annihilator None is the zero form, the free S(-shift)."""

    __slots__ = _fields = ("shift", "annihilator")

    def __init__(self, shift: int, annihilator: tuple | None = None):
        self.shift = shift
        self.annihilator = annihilator


class ModuleAmbient:
    """A finite direct sum of cyclic pieces with degreewise coordinates.

    A piece of shift s has, in degree d, the slice of its quotient's
    polynomial degree (d - s)/2, and none when that is negative or not an
    integer.  One table per degree, built once, holds the slice sizes and
    where each piece starts in a flattened vector, and one per degree and
    variable the multiplication blocks; module_ambient shares one ambient
    per layout, so a process builds each table once."""

    def __init__(self, nvars: int, pieces):
        self.nvars = nvars
        self.ring = linear_quotient(nvars, (0,) * nvars)
        self.pieces = tuple(pieces)
        self.quotients = tuple(
            linear_quotient(nvars, tuple(p.annihilator or (0,) * nvars))
            for p in self.pieces
        )
        self._slices: dict[int, tuple] = {}
        self._mul: dict = {}

    def _slice(self, d: int) -> tuple:
        """The degree-d table: (dim, per-piece dims, per-piece offsets in a
        flattened vector, (piece index, k) per live piece), k the polynomial
        degree of the piece's slice."""
        got = self._slices.get(d)
        if got is None:
            dims, offsets, live = [], [], []
            pos = 0
            for t, (p, q) in enumerate(zip(self.pieces, self.quotients)):
                rel = d - p.shift
                n = q.dim(rel // 2) if rel >= 0 and rel % 2 == 0 else 0
                if n:
                    live.append((t, rel // 2))
                dims.append(n)
                offsets.append(pos)
                pos += n
            got = self._slices[d] = (pos, tuple(dims), tuple(offsets), tuple(live))
        return got

    def dims(self, d: int) -> tuple:
        """Per-piece dimensions of the degree-d slice."""
        return self._slice(d)[1]

    def dim(self, d: int) -> int:
        return self._slice(d)[0]

    def reduce_free(self, vec, d: int):
        """Image of a flattened degree-d vector of the free module on the
        same shifts: each live block is reduced by its piece's quotient."""
        dim, _, offsets, live = self._slice(d)
        out = [0] * dim
        pos = 0
        for t, k in live:
            tgt = offsets[t]
            rows = self.quotients[t].reduce_map_indexed(k)
            for c, row in zip(vec[pos : pos + len(rows)], rows):
                if c:
                    for j, f in row:
                        out[tgt + j] += c * f
            pos += len(rows)
        return out

    def mul_var_vec(self, vec, d: int, var: int):
        """Multiply a flattened degree-d vector by x_var (degree d+2)."""
        got = self._mul.get((d, var))
        if got is None:
            # per live piece: where it starts in degrees d and d + 2, and
            # its quotient's multiplication rows
            offsets, live = self._slice(d)[2:]
            dim, _, targets, _ = self._slice(d + 2)
            got = self._mul[d, var] = dim, tuple(
                (offsets[t], targets[t], self.quotients[t].mul_var_map(k, var))
                for t, k in live
            )
        dim, blocks = got
        out = [0] * dim
        for src, tgt, rows in blocks:
            for c, row in zip(vec[src : src + len(rows)], rows):
                if c:
                    for j, f in row:
                        out[tgt + j] += c * f
        return out


# one ambient per layout: verify-kl and multiplicities over every base meet
# 92 layouts on affine A1 (l <= 8) and 69 on G2 (l <= 6), which stay whole;
# on wider inputs (B3 645, A4 1,098, affine C2 2,463) the least recently
# used give way, which keeps the process within about a MiB of its size
# without the cache
@lru_cache(maxsize=128)
def module_ambient(nvars: int, layout: tuple) -> ModuleAmbient:
    """The shared ModuleAmbient of a layout, a tuple of (shift, annihilator)
    pairs, one per piece."""
    return ModuleAmbient(nvars, [CyclicPiece(s, a) for s, a in layout])


class GradedModuleRep:
    """Submodule of an ambient sum of cyclic pieces, given by homogeneous
    generators as (degree, flattened degree-d integer vector) pairs; all
    degreewise data is exact up to degree_cap."""

    __slots__ = ("ambient", "generators", "degree_cap")

    def __init__(self, ambient: ModuleAmbient, generators: tuple, degree_cap: int):
        self.ambient = ambient
        self.generators = generators
        self.degree_cap = degree_cap
        for d, vec in generators:
            if len(vec) != self.ambient.dim(d):
                raise DegreeMismatch(
                    f"degree-{d} generator has {len(vec)} coordinates, "
                    f"expected {self.ambient.dim(d)}"
                )
            if not all(isinstance(x, int) for x in vec):
                raise TypeError(f"degree-{d} generator has a non-int entry: {vec!r}")


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
               cap: int | None = None, store=None) -> Elimination:
    """One degree of a graded projective cover of a submodule M: one
    solve_right of [lower | candidates].

    gens lists the (degree, vector) generators of M found below d, and
    lower their monomial_multiples (kept in store), which span
    (S+ M)_d = S_2 * M_{d-2}; candidates are degree-d vectors of M.
    Returns solve_right's Elimination: its fresh indexes the candidates
    that enlarge the span, the new generators, appended to gens as
    (d, vector); its lifts and kernel are over lower followed by those
    candidates, read off only if the caller asks.  With a cap, a generator
    within one even step of it means the answer cannot be trusted, and
    raises CapBoundaryGenerator.
    """
    system = solve_right(monomial_multiples(amb, gens, d, store), candidates)
    if system.fresh and cap is not None and d >= cap - 2:
        raise CapBoundaryGenerator(
            f"generator in degree {d} within one step of cap {cap}"
        )
    gens.extend((d, candidates[i]) for i in system.fresh)
    return system


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
