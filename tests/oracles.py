"""Independent reference implementations used only to check the package.

The KL oracle follows the original construction: R-polynomials by their
descent recursion, then P-polynomials extracted coefficientwise from
q^(l(w)-l(x)) P(1/q) - P(q) = sum R_{x,y} P_{y,w}.  The Bruhat oracle is
the reflexive-transitive closure of the covering relation.  Neither shares
code with the package's recursions.  The BMP oracle recomputes sections
from scratch at every vertex instead of carrying them incrementally.
"""

from fractions import Fraction

from kmflag.graded_algebra import GradedModuleRep, ModuleAmbient, minimal_generators
from kmflag.kl import QPoly
from kmflag.moment_graph import sections
from kmflag.weyl import bruhat_leq, inverse, multiply, simple_reflection


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


def is_linear_reflection(t) -> bool:
    """Involution fixing a hyperplane: rank(M - I) == 1 over the rationals.
    Deliberately avoids the package's root-based reflection test."""
    n = t.datum.rank
    if t.is_identity():
        return False
    mm = [
        [
            sum(t.matrix[i][k] * t.matrix[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    if mm != [[1 if i == j else 0 for j in range(n)] for i in range(n)]:
        return False
    rows = [
        [Fraction(t.matrix[i][j] - (1 if i == j else 0)) for j in range(n)]
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


def bmp_cover_degrees(result) -> dict:
    """Stalk degrees that the defining cover condition of the canonical
    sheaf (Braden-MacPherson 2001; Fiebig, Adv. Math. 2008) demands of a
    compute_bmp result, at every vertex of its support.

    The stalk at the base is S.  At any other support vertex w it is the
    minimal graded free cover of the image of the sections over {y < w}
    in the boundary module, the sum of the edge modules over the edges
    e = (y, w).  The sections are recomputed with sections() on the
    result's own sheaf for every w, where compute_bmp carries them along.
    """
    sheaf = result.sheaf
    graph = result.graph
    cap = result.degree_cap
    out = {}
    for w in graph.vertices:
        if not bruhat_leq(result.base, w):
            continue
        if w == result.base:
            out[w] = (0,)
            continue
        below = [y for y in graph.vertices if y != w and bruhat_leq(y, w)]
        up_edges = [e for e in graph.edges if e.upper == w]
        boundary = ModuleAmbient(
            sheaf.nvars, [p for e in up_edges for p in sheaf.edge_ambient(e).pieces]
        )
        images = []
        for d, secs in sections(sheaf, subset=below, max_degree=cap).items():
            maps = [
                (e.lower, sheaf.vertex_ambient(e.lower),
                 sheaf.restriction_matrix(e.lower, e, d))
                for e in up_edges
            ]
            for sec in secs:
                vec = []
                for y, amb, matrix in maps:
                    yvec = amb.flatten(sec[y], d)
                    vec.extend(sum(a * b for a, b in zip(row, yvec)) for row in matrix)
                images.append(boundary.unflatten(vec, d))
        out[w], _ = minimal_generators(GradedModuleRep(boundary, tuple(images), cap))
    return out
