"""Independent reference implementations used only to check the package.

The KL oracle follows the original construction: R-polynomials by their
descent recursion, then P-polynomials extracted coefficientwise from
q^(l(w)-l(x)) P(1/q) - P(q) = sum R_{x,y} P_{y,w}.  The Bruhat oracle is
the reflexive-transitive closure of the covering relation.  Neither shares
code with the package's recursions.  The polynomial reference lives here
too: SPoly, divide_by_linear by repeated subtraction of multiples of the
linear form, reduce_mod_linear as its remainder, and the structure-algebra
congruence test structure_algebra_check on top of them.  It shares no code
with the package's LinearQuotient, whose reduction maps are built from
multiplication by a variable.  spoly_vector turns an SPoly tuple into the
package's flat element format through divide_by_linear remainders,
rescaled by t_basis to the package's monomials in t_i = x_i/|c|, so the
tests build modules and expected products and reductions without the
package's normal forms.  The graph-sheaf oracles live here because only
the tests use them: constant_sheaf, the endpoint maps of an edge (images,
restriction_matrix), sections over a vertex subset as the kernel of the
edge equations, and degree_basis, a degree slice of a graded module.  The
BMP oracle bmp_cover_degrees recomputes sections from scratch at every
vertex instead of carrying them incrementally, and finds the edges into a
vertex by a full scan of graph.edges, not by the graph's incidence table;
its restriction matrices multiply through ModuleAmbient.mul_var_vec as
compute_bmp does, so that multiplication is checked on its own against
spoly_vector of SPoly products (test_graded_algebra's
test_monomial_multiples_match_spoly_products).  The
linear-algebra oracles eliminate over Q with Fraction pivots scaled to 1,
where the package eliminates fraction-free.  The root-datum oracles find
the symmetrizer by propagating ratios along a spanning forest of the Dynkin
graph and the kind from the characteristic polynomial (Faddeev-LeVerrier),
where the package takes a kernel and leading minors.  The vector kernels
of root_datum and weyl are kept here as first written, by nested generator
expressions, and the moment graph's edges and covers as the full scan
sorted by sort keys, where the package reads positions off the ideal's
reflection table.  The command line's reference is the argparse front end
kmflag.cli used before it read _OPTIONS and _COMMANDS itself: one
subparser per command, built from the same two tables, with
"--pairings -2,-1" glued into one token beforehand."""

import argparse
from fractions import Fraction
from math import gcd, lcm

from kmflag import cli
from kmflag._linalg import RowSpan, kernel_basis
from kmflag.bmp import GraphSheaf
from kmflag.errors import DegreeCapExceeded
from kmflag.graded_algebra import (
    GradedModuleRep,
    ModuleAmbient,
    minimal_generators,
    monomial_multiples,
)
from kmflag.kl import QPoly
from kmflag.moment_graph import Edge
from kmflag.weyl import (
    WeylElement,
    bruhat_leq,
    format_word,
    identity,
    inverse,
    multiply,
    reflection,
    simple_reflection,
)


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
            raise ValueError("expected a homogeneous linear form")
        coords[exp.index(1)] = c
    if not any(coords):
        raise ValueError("zero linear form")
    return tuple(coords)


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


def reduce_mod_linear(p: SPoly, alpha: SPoly) -> SPoly:
    """Canonical normal form of p in S/(alpha): the divide_by_linear
    remainder, free of alpha's first generator."""
    return divide_by_linear(p, alpha)[1]


def t_basis(p: SPoly, label) -> SPoly:
    """A remainder p modulo the label, rewritten on monomials in
    t_i = x_i/|c|, c the label's first nonzero coefficient: each degree-k
    term is scaled by |c|^k.  This is the package's normal-form basis; |c|
    is read off the label, so the change of basis shares no code with
    LinearQuotient.  The zero label (a free piece) leaves p as it is."""
    c = next((abs(a) for a in label if a), 1)
    return SPoly(p.nvars, {e: a * c ** sum(e) for e, a in p.terms.items()})


def structure_algebra_check(graph, tuples: dict) -> bool:
    """Whether (z_x) satisfies z_x = z_{s_a x} mod a on every edge."""
    missing = [v for v in graph.vertices if v not in tuples]
    if missing:
        raise ValueError(f"tuple missing vertices: {format_word(missing[0])} ...")
    for e in graph.edges:
        diff = tuples[e.lower] - tuples[e.upper]
        if not reduce_mod_linear(diff, SPoly.linear(e.label)).is_zero():
            return False
    return True


class KLOracle:
    def __init__(self, ideal):
        self.ideal = ideal
        self.datum = ideal.datum
        self._r = {}
        self._p = {}

    def r_poly(self, x, w) -> QPoly:
        key = (x, w)
        if key in self._r:
            return self._r[key]
        if x == w:
            out = QPoly((1,))
        elif not bruhat_leq(x, w):
            out = QPoly()
        else:
            i = w.left_descents()[0]
            s = simple_reflection(self.datum, i)
            sw = multiply(s, w)
            sx = multiply(s, x)
            if sx.length() < x.length():
                out = self.r_poly(sx, sw)
            else:
                out = QPoly((-1, 1)) * self.r_poly(x, sw) + QPoly((0, 1)) * self.r_poly(
                    sx, sw
                )
        self._r[key] = out
        return out

    def kl_poly(self, x, w) -> QPoly:
        key = (x, w)
        if key in self._p:
            return self._p[key]
        if x == w:
            out = QPoly((1,))
        elif not bruhat_leq(x, w):
            out = QPoly()
        else:
            gap = w.length() - x.length()
            rhs = QPoly()
            for y in self.ideal:
                if y == x or not (bruhat_leq(x, y) and bruhat_leq(y, w)):
                    continue
                rhs = rhs + self.r_poly(x, y) * self.kl_poly(y, w)
            # a_k is the coefficient of q^(gap-k) on the right-hand side
            coeffs = [rhs.coefficient(gap - k) for k in range((gap - 1) // 2 + 1)]
            out = QPoly(coeffs)
            # confirm q^gap P(1/q) - P(q) = RHS at every coefficient
            mirrored = QPoly([out.coefficient(gap - m) for m in range(gap + 1)])
            if mirrored - out != rhs:
                raise AssertionError("R/P consistency identity failed")
        self._p[key] = out
        return out

    def inverse_kl_matrix(self):
        """All Q_{x,w} by inverting the signed oracle-P matrix directly."""
        elems = list(self.ideal.elements)
        out = {}
        for w in elems:
            for x in sorted(elems, key=lambda u: -u.length()):
                if x == w:
                    out[(x, w)] = QPoly((1,))
                    continue
                if not bruhat_leq(x, w):
                    out[(x, w)] = QPoly()
                    continue
                acc = QPoly()
                for y in elems:
                    if y == x or not (bruhat_leq(x, y) and bruhat_leq(y, w)):
                        continue
                    term = self.kl_poly(x, y) * out[(y, w)]
                    acc = acc + term if (y.length() - x.length()) % 2 else acc - term
                out[(x, w)] = acc
        return out


def back_substitution_q(table, columns=None) -> dict:
    """Every Q_{x,w} of a KLTable's ideal, or those of the given column
    positions w, keyed by position pairs, by the unitriangular
    back-substitution
    Q_{x,w} = sum_{x < y <= w} (-1)^{l(y)-l(x)+1} P_{x,y} Q_{y,w}
    over the whole interval, with P read from the table.  Positions follow
    Bruhat order, so x descending meets every Q_{y,w} before it is used."""
    below = table.ideal.below
    length = [w.length() for w in table.ideal.elements]
    q = {}
    for w in range(len(length)) if columns is None else columns:
        q[w, w] = QPoly((1,))
        for x in range(w - 1, -1, -1):
            acc = QPoly()
            if below[w] >> x & 1:
                for y in range(x + 1, w + 1):
                    if below[w] >> y & 1 and below[y] >> x & 1:
                        term = table._kl(x, y) * q[y, w]
                        acc = acc + term if (length[y] - length[x]) % 2 else acc - term
            q[x, w] = acc
    return q


def is_linear_reflection(t) -> bool:
    """Involution fixing a hyperplane: rank(M - I) == 1 over the rationals.
    Deliberately avoids the package's root-based reflection test.  M is the
    stored matrix of t^{-1}: an involution equals its inverse, and
    rank(t^{-1} - I) = rank(t - I)."""
    n = t.datum.rank
    m = t.inv_matrix
    if t.is_identity():
        return False
    mm = [
        [sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    if mm != [[1 if i == j else 0 for j in range(n)] for i in range(n)]:
        return False
    rows = [
        [Fraction(m[i][j] - (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == 1


def reflection_pair_edges(ideal):
    """{(lower, upper)} over all element pairs of the ideal with
    upper = t . lower for a reflection t and l(lower) < l(upper), by the
    pairwise scan with the linear reflection test."""
    elems = list(ideal.elements)
    out = set()
    for a, x in enumerate(elems):
        for y in elems[a + 1 :]:
            if x.length() == y.length():
                continue
            lo, hi = (x, y) if x.length() < y.length() else (y, x)
            if is_linear_reflection(multiply(hi, inverse(lo))):
                out.add((lo, hi))
    return out


def bruhat_closure_oracle(ideal):
    """{(y, x) : y <= x} as the reflexive-transitive closure of covers."""
    elems = list(ideal.elements)
    covers = {
        (y, x)
        for y, x in reflection_pair_edges(ideal)
        if x.length() == y.length() + 1
    }
    leq = {(x, x) for x in elems}
    leq |= covers
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in covers:
                if c == b and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


def brute_kostant(datum, beta, positive_roots_with_mult) -> int:
    """Count multiset decompositions by direct enumeration."""
    roots = []
    for r, m in positive_roots_with_mult:
        roots.extend([r] * m)
    count = 0

    def rec(i, rem):
        nonlocal count
        if all(c == 0 for c in rem):
            count += 1
            return
        if i >= len(roots):
            return
        cur = rem
        while True:
            rec(i + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, roots[i]))
            if any(c < 0 for c in cur):
                break

    rec(0, tuple(beta))
    return count


def constant_sheaf(graph, degree_cap: int) -> GraphSheaf:
    """The structure sheaf: S at every vertex, S/(label) on every edge,
    canonical quotients as restrictions."""
    shifts = {v: (0,) for v in graph.vertices}
    return GraphSheaf(graph, shifts, {e: ([1],) for e in graph.edges}, degree_cap)


def images(sheaf, v, e) -> list:
    """Each generator of the stalk at the endpoint v of e, mapped to a
    flattened sheaf.edge_ambient(e) vector: the stored images at the upper
    end, generator t to piece t's 1 at the lower end, and empty vectors
    when the lower stalk, and so the edge module, is zero."""
    if v not in (e.lower, e.upper):
        raise ValueError(f"{v!r} is not an endpoint of the edge")
    shifts = sheaf.vertex_shifts[v]
    if not sheaf.vertex_shifts[e.lower]:
        return [[] for _ in shifts]
    if v == e.upper:
        return sheaf.restrictions[e]
    amb = sheaf.edge_ambient(e)
    return [
        [1 if i == sum(amb.dims(s)[:t]) else 0 for i in range(amb.dim(s))]
        for t, s in enumerate(shifts)
    ]


def restriction_matrix(sheaf, v, e, d: int):
    """Degree-d matrix of the restriction map at the endpoint v of e, as
    columns over the flattened vertex coordinates."""
    eamb = sheaf.edge_ambient(e)
    gens = zip(sheaf.vertex_shifts[v], images(sheaf, v, e))
    cols = monomial_multiples(eamb, gens, d)
    return [[col[r] for col in cols] for r in range(eamb.dim(d))]


def sections(sheaf, subset=None, max_degree: int | None = None) -> dict:
    """Degreewise bases of the space of sections over a vertex subset, the
    kernel of the edge equations.

    Only edges with both endpoints inside the subset constrain the tuple.
    Returns {degree: [section]}, a section being {vertex: flattened
    degree-d vector of vertex_ambient(vertex)}.
    """
    graph = sheaf.graph
    verts = list(graph.vertices)
    if subset is not None:
        subset = set(subset)
        verts = [v for v in verts if v in subset]
    cap = sheaf.degree_cap if max_degree is None else max_degree
    if cap > sheaf.degree_cap:
        raise DegreeCapExceeded(f"degree {cap} above sheaf cap {sheaf.degree_cap}")
    vset = set(verts)
    internal = [e for e in graph.edges if e.lower in vset and e.upper in vset]
    ambients = {v: sheaf.vertex_ambient(v) for v in verts}
    out: dict[int, list] = {}
    for d in range(0, cap + 1, 2):
        dims = [ambients[v].dim(d) for v in verts]
        offsets = {}
        pos = 0
        for v, dim in zip(verts, dims):
            offsets[v] = pos
            pos += dim
        width = pos
        rows = []
        for e in internal:
            rx = restriction_matrix(sheaf, e.lower, e, d)
            ry = restriction_matrix(sheaf, e.upper, e, d)
            for row_x, row_y in zip(rx, ry):
                row = [0] * width
                ox, oy = offsets[e.lower], offsets[e.upper]
                for c, val in enumerate(row_x):
                    row[ox + c] = val
                for c, val in enumerate(row_y):
                    row[oy + c] -= val
                rows.append(row)
        out[d] = [
            {v: vec[offsets[v] : offsets[v] + dim] for v, dim in zip(verts, dims)}
            for vec in kernel_basis(rows, width)
        ]
    return out


def degree_basis(module, d: int):
    """Basis of the degree-d slice of a GradedModuleRep's generated
    submodule, as flattened rows."""
    if d > module.degree_cap:
        raise DegreeCapExceeded(f"degree {d} above cap {module.degree_cap}")
    span = RowSpan(module.ambient.dim(d))
    for col in monomial_multiples(module.ambient, module.generators, d):
        span.add(col)
    return span.rows


def bmp_cover_degrees(sheaf) -> dict:
    """Stalk degrees that the defining cover condition of the canonical
    sheaf (Braden-MacPherson 2001; Fiebig, Adv. Math. 2008) demands of a
    compute_bmp result, at every vertex of its support.

    The stalk at the base is S.  At any other support vertex w it is the
    minimal graded free cover of the image of the sections over {y < w}
    in the boundary module, the sum of the edge modules over the edges
    e = (y, w).  The sections are recomputed with sections() on the
    sheaf itself for every w, where compute_bmp carries them along.
    """
    graph = sheaf.graph
    cap = sheaf.degree_cap
    out = {}
    for w in graph.vertices:
        if not bruhat_leq(sheaf.base, w):
            continue
        if w == sheaf.base:
            out[w] = (0,)
            continue
        below = [y for y in graph.vertices if y != w and bruhat_leq(y, w)]
        up_edges = [e for e in graph.edges if e.upper == w]
        pieces = [p for e in up_edges for p in sheaf.edge_ambient(e).pieces]
        boundary = ModuleAmbient(graph.datum.rank, pieces)
        images = []
        for d, secs in sections(sheaf, subset=below, max_degree=cap).items():
            maps = [(e.lower, restriction_matrix(sheaf, e.lower, e, d)) for e in up_edges]
            for sec in secs:
                vec = []
                for y, matrix in maps:
                    vec.extend(sum(a * b for a, b in zip(r, sec[y])) for r in matrix)
                images.append((d, vec))
        out[w], _ = minimal_generators(GradedModuleRep(boundary, tuple(images), cap))
    return out


def spoly_vector(amb, element, d: int):
    """The flat degree-d vector of an element given as one SPoly per piece
    of the ambient: over the pieces live in degree d, the coefficients of
    the piece's divide_by_linear remainder (the polynomial itself on a free
    piece) on its reduced monomials, in the t_basis, as ints: the t_basis
    clears the remainder's denominators, so an integral polynomial must
    come out integral.  A piece that is dead in degree d must carry zero,
    and a live one a polynomial of the slice's degree."""
    out = []
    for p, piece, quot in zip(element, amb.pieces, amb.quotients):
        rel = d - piece.shift
        if rel < 0 or rel % 2:
            assert p.is_zero(), "nonzero coordinate in a dead piece"
            continue
        assert all(sum(exp) == rel // 2 for exp in p.terms), "coordinate degree"
        if piece.annihilator is not None:
            _, p = divide_by_linear(p, SPoly.linear(piece.annihilator))
            p = t_basis(p, piece.annihilator)
        index = {m: i for i, m in enumerate(quot.monomials(rel // 2))}
        block = [0] * len(index)
        for exp, c in p.terms.items():
            assert c.denominator == 1, "non-integral coefficient"
            block[index[exp]] = int(c)
        out.extend(block)
    return out


def rref_over_q(rows, ncols: int):
    """Gauss-Jordan elimination over Q on the first ncols columns of a copy
    of rows.  Returns (rows, pivots): row i < len(pivots) has a 1 in column
    pivots[i] and zeros in every other pivot column; the remaining rows
    vanish on the first ncols columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def primitive_over_q(vec):
    """The positive-leading primitive integer multiple of a rational vector."""
    vec = [Fraction(x) for x in vec]
    scale = lcm(1, *(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(0, *ints)
    if g == 0:
        return ints
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def kernel_over_q(rows, ncols: int):
    """Primitive kernel basis of the rows, one vector per free column of
    rref_over_q in increasing order."""
    reduced, pivots = rref_over_q(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(primitive_over_q(v))
    return basis


def solve_over_q(a_rows, rhs, ncols: int):
    """One solution of A x = b per right-hand side, free coordinates zero,
    read off rref_over_q of [A | B]; None when the system is inconsistent."""
    aug = [list(ar) + [b[i] for b in rhs] for i, ar in enumerate(a_rows)]
    reduced, pivots = rref_over_q(aug, ncols)
    if any(any(row[ncols:]) for row in reduced[len(pivots):]):
        return None
    xs = []
    for s in range(len(rhs)):
        x = [Fraction(0)] * ncols
        for row, col in zip(reduced, pivots):
            x[col] = row[ncols + s]
        xs.append(x)
    return xs


# -- the vector kernels by generator expressions ---------------------------


def is_positive_vector_ref(beta) -> bool:
    return any(c > 0 for c in beta) and all(c >= 0 for c in beta)


def is_negative_vector_ref(beta) -> bool:
    return any(c < 0 for c in beta) and all(c <= 0 for c in beta)


def coroot_pairings_ref(datum, beta) -> tuple:
    a = datum.cartan
    n = datum.rank
    return tuple(sum(a[i][j] * beta[j] for j in range(n)) for i in range(n))


def reflect_simple_ref(datum, i, beta) -> tuple:
    p = sum(datum.cartan[i][j] * beta[j] for j in range(datum.rank))
    return tuple(c - p if j == i else c for j, c in enumerate(beta))


def apply_inverse_ref(w, beta) -> tuple:
    m = w.inv_matrix
    n = w.datum.rank
    return tuple(sum(m[i][j] * beta[j] for j in range(n)) for i in range(n))


def column_ref(w, i) -> tuple:
    return tuple(row[i] for row in w.inv_matrix)


def left_step_ref(w, i) -> WeylElement:
    a = w.datum.cartan[i]
    inv = tuple(
        tuple(x - r[i] * c for x, c in zip(r, a)) if r[i] else r for r in w.inv_matrix
    )
    return WeylElement(w.datum, inv)


# -- the moment graph by a full scan -----------------------------------------


def edges_by_scan(datum, ideal, dual=False) -> list:
    """Every edge (s_beta w, w) of the ideal, labeled beta or, on the dual
    graph, beta's coroot, sorted by (lower.sort_key(), upper.sort_key(),
    label)."""
    edges = [Edge(y, w, beta) for w in ideal for beta, y in ideal.lower_reflections(w)]
    if dual:
        edges = [Edge(e.lower, e.upper, datum.coroot_coords(e.label)) for e in edges]
    edges.sort(key=lambda e: (e.lower.sort_key(), e.upper.sort_key(), e.label))
    return edges


def covers_by_scan(ideal) -> list:
    """(y, x) with y covered by x in the ideal, sorted by sort keys."""
    out = [
        (y, x)
        for x in ideal
        for _, y in ideal.lower_reflections(x)
        if y.length() == x.length() - 1
    ]
    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return out


def word_oracle(w):
    """The canonical word of w by peeling its least left descent with one
    matrix product per letter, on a copy that carries no cached word."""
    v = WeylElement(w.datum, w.inv_matrix)
    word = []
    while descents := v.left_descents():
        i = descents[0]
        word.append(i)
        v = multiply(simple_reflection(v.datum, i), v)
    assert v.is_identity()
    return tuple(word)


def inversion_set_oracle(w):
    """{s_{i_1} ... s_{i_{k-1}} alpha_{i_k}} over the prefixes of w's word,
    one product of forward matrices per prefix: the column i_k of the
    prefix's matrix is its image of alpha_{i_k}."""
    n = w.datum.rank
    prefix = identity(w.datum).inv_matrix
    out = set()
    for i in word_oracle(w):
        out.add(tuple(row[i] for row in prefix))
        s = simple_reflection(w.datum, i).inv_matrix  # an involution
        prefix = [
            [sum(r[k] * s[k][c] for k in range(n)) for c in range(n)] for r in prefix
        ]
    return out


def lower_reflections_oracle(w):
    """(beta, reflection(beta) w) over the sorted inversion set."""
    return [
        (beta, multiply(reflection(w.datum, beta), w))
        for beta in sorted(inversion_set_oracle(w))
    ]


def ideal_oracle(datum, max_length):
    """The elements of length <= max_length, by BFS on right multiplication."""
    found = {identity(datum)}
    frontier = list(found)
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for i in range(datum.rank):
                ws = multiply(w, simple_reflection(datum, i))
                if ws not in found:
                    found.add(ws)
                    nxt.append(ws)
        frontier = nxt
    return found


def symmetrizer_oracle(a):
    """(d, components): the minimal positive integers d with
    d_i a_ij = d_j a_ji and the number of Dynkin components, or None when
    the GCM a is not symmetrizable.

    Ratios are propagated along a spanning forest of the Dynkin graph; any
    non-tree edge whose ratio disagrees makes the matrix non-symmetrizable.
    Each connected component is scaled independently to the least positive
    integer solution.
    """
    n = len(a)
    ratio = [None] * n
    component = [-1] * n
    for start in range(n):
        if component[start] >= 0:
            continue
        ratio[start] = Fraction(1)
        component[start] = start
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                # d_j = d_i * a_ij / a_ji
                r = ratio[i] * Fraction(a[i][j], a[j][i])
                if component[j] == -1:
                    component[j] = start
                    ratio[j] = r
                    stack.append(j)
                elif ratio[j] != r:
                    return None
    d = [0] * n
    for start in set(component):
        idx = [i for i in range(n) if component[i] == start]
        for i, v in zip(idx, primitive_over_q([ratio[i] for i in idx])):
            d[i] = v
    return tuple(d), len(set(component))


def charpoly_esyms(b):
    """Elementary symmetric functions e_1..e_n of the eigenvalues of the
    integer matrix b (sums of principal minors), exactly.

    Faddeev-LeVerrier: B_1 = B, c_k = tr(B_k)/k, B_{k+1} = B(B_k - c_k I);
    then e_k = (-1)^(k+1) c_k.
    """
    n = len(b)
    bmat = [[Fraction(x) for x in row] for row in b]
    bk = [row[:] for row in bmat]
    es = []
    for k in range(1, n + 1):
        ck = sum(bk[i][i] for i in range(n)) / k
        es.append(Fraction((-1) ** (k + 1)) * ck)
        if k < n:
            for i in range(n):
                bk[i][i] -= ck
            bk = [
                [sum(bmat[i][t] * bk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return es


def kind_oracle(a):
    """The kind of a symmetrizable GCM from the eigenvalues of B = DA, which
    are real since B is symmetric: finite when all are positive, affine when
    one is zero, the others are positive and the Dynkin diagram is
    connected, indefinite otherwise."""
    d, components = symmetrizer_oracle(a)
    n = len(a)
    es = charpoly_esyms([[d[i] * a[i][j] for j in range(n)] for i in range(n)])
    if all(e > 0 for e in es):
        return "finite"
    if (
        all(e >= 0 for e in es)
        and es[-1] == 0
        and (n == 1 or es[-2] > 0)
        and components == 1
    ):
        return "affine"
    return "indefinite"


# -- the command line by argparse --------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli._CliError(message)


def _build_parser(command=None) -> _Parser:
    """The parser with the subparser of the given command alone, or of every
    command when it names none (help, a missing or an unknown command), so
    the listing and the error messages name them all."""
    parser = _Parser(prog="kmflag", description=cli.__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in cli._COMMANDS else cli._COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in ("--cartan", "--size-limit", *cli._COMMANDS[name][1]):
            p.add_argument(flag, **cli._OPTIONS[flag])
    return parser


def _merge_negative_values(argv):
    """Join "--pairings -2,-1" into one token so argparse does not read the
    value as an option."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--pairings" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--pairings={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def parse_by_argparse(argv) -> argparse.Namespace:
    """argv parsed as kmflag.cli parsed it with argparse; a usage error
    raises cli._CliError with argparse's message."""
    args = _merge_negative_values(argv)
    return _build_parser(args[0] if args else None).parse_args(args)
