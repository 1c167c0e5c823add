"""Sheaves on moment graphs: the canonical indecomposable sheaf, built
vertex by vertex through graded projective covers, and the cross-check of
its stalk Poincare polynomials against inverse Kazhdan-Lusztig
polynomials.  A graph sheaf has a graded free module at each vertex and,
on each edge, its lower stalk modulo the label; it stores the upper ends'
restriction maps, and the lower ends map by the canonical quotient,
ModuleAmbient.reduce_free.

The construction sweeps the support {w : base <= w} in a linear extension
of Bruhat order.  The sections over the processed prefix form a module
over S (Fiebig, Adv. Math. 2008), and the sweep carries only its
generators: each a degree and one stalk vector per processed vertex, the
base starting with one, 1 at the base.  At a new vertex w, degree by
degree, the degree-d generators are pushed into the incident lower edges;
their images, together with S_2 times the image found below d, span the
image of all sections in degree d.  One graded_algebra.cover_step, a
single elimination of the older stalk generators' multiples beside those
images, gives the new stalk generators (the pivots among the images), a
lift of each generator to w, and the kernel K_d of the stalk onto the
image.  Each lift is an integer vector for scale times the image, scale
the least integer that allows one; the generator's vectors are scaled by
it before the lift joins them, which keeps its span over Q and the stalks.
Every section then extends to w, an S-multiple by the same multiple of
its generator's lift, and the sections born at w are the kernel; its
generators are the degree-d kernel vectors outside S_2 K_{d-2}, found by
a second cover_step in the free stalk where counting cannot decide them
(below).  A generator's vector at a vertex is dropped once the upper ends
of all that vertex's edges are processed, and the generator once all its
vectors are.  The image over the processed
prefix equals the image over {y < w} because the canonical sheaf is
flabby.  The oracle bmp_cover_degrees in tests/oracles.py checks that
claim: it recomputes the sections over {y < w} from scratch, as the
kernel of the edge equations, and covers their image at every support
vertex.

A stalk's module is free on its shifts, and an edge's module is its lower
stalk modulo the label.  ModuleAmbient.reduce_free pushes a stalk component
into an edge module, and the boundary module at w is the sum over the edges
into w, read off the graph's incidence table; an edge from off the support
has a zero lower stalk and adds nothing.  Every one of these ambients comes
from graded_algebra.module_ambient, which shares one ambient per layout (the
pieces' shifts and labels) across vertices, degrees, bases and sheaves, so
each layout's degree tables are built once per process.  A new generator's
restrictions are the slices of its boundary row.  The sweep keys its
per-vertex data (the generators' vectors and the count of unprocessed upper
edges) by ideal position.

The sweep stops at an even degree cap, by default L + 4 rounded up to
even, where L = max length - l(base).  A stalk generator of degree d stands
for q^(d/2) in the inverse Kazhdan-Lusztig polynomial Q_{base,w}, and
deg Q_{x,w} <= (l(w) - l(x) - 1)/2, so no generator should lie above degree
L - 1.  That bound is assumed, not proved here: generators above the cap are
never seen.  The cap-boundary sentinel in cover_step guards it, raising
CapBoundaryGenerator for any stalk generator within one even step of the
cap; when it fires, compute_bmp appends the vertex (" at <word>") to its
message.  The kernel step runs without it: a section generator born near
the cap is legitimate.  A step reads off only what it uses: the lifts at
every vertex, the kernel only at a vertex with upper edges, and the kernel
step only which kernel vectors are new; a vertex with no upper edges skips
the degrees that offer no candidate.

Counting decides the sections born at w in most degrees (_born_by_count);
the kernel read-off and the second cover_step run only where it cannot.
Let K be the kernel of the stalk F(w) onto the image.  Each rule is a fact
about free modules, so the sheaf is the same with or without it.
1. K_d = 0 when the older stalk generators' degree-d multiples have no free
   column, for dim K_d is their number of free columns (ncols - n_a of the
   main step's elimination).  Nothing is born, and nothing is read off.
2. Before K has a generator there is nothing to divide out: every vector
   of K_d's basis is a new generator, appended in basis order, as cover_step
   would append them.
3. While the stalk is free on one generator g, K is principal.  An edge
   module F(y)/alpha_e F(y) is free over the domain S/(alpha_e), as F(y) is
   free over S, so f g vanishes on the edge e exactly when g does or
   alpha_e divides f; hence K = (prod alpha_e) S g, the product over the
   edges where g does not vanish.  Once K's generator is found nothing
   more is born at w while the rank stays 1, and a degree with no
   candidate is skipped outright: it can give no lift and no stalk
   generator, and the cap sentinel fires only on fresh candidates.  At
   rank 2 or more K need not be principal, and the elimination decides.
"""

from __future__ import annotations

from .errors import BaseNotVertex, CapBoundaryGenerator, IntervalNotContained, NotInIdeal
from .graded_algebra import ModuleAmbient, cover_step, module_ambient
from .kl import KLTable, QPoly
from .moment_graph import Edge, MomentGraph
# bruhat_leq stays bound here: perfbench's tracer test rebinds it by this name
from .weyl import WeylElement, bruhat_leq, format_word  # noqa: F401


class GraphSheaf:
    """Graded sheaf data as the canonical construction builds it: a free
    stalk at every vertex, given by its generator degrees, and on each edge
    its lower stalk modulo the label.  restrictions[e] maps each generator
    of the upper stalk to a flattened edge_ambient(e) vector in that
    generator's degree; the lower stalk maps onto the edge by the canonical
    quotient, which is not stored."""

    __slots__ = ("graph", "vertex_shifts", "restrictions", "degree_cap")

    def __init__(
        self, graph: MomentGraph, vertex_shifts: dict, restrictions: dict, degree_cap: int
    ):
        self.graph = graph
        self.vertex_shifts = vertex_shifts
        self.restrictions = restrictions
        self.degree_cap = degree_cap

    def vertex_ambient(self, v) -> ModuleAmbient:
        return module_ambient(
            self.graph.datum.rank, tuple((s, None) for s in self.vertex_shifts[v])
        )

    def edge_ambient(self, e: Edge) -> ModuleAmbient:
        shifts = self.vertex_shifts[e.lower]
        return module_ambient(self.graph.datum.rank, tuple((s, e.label) for s in shifts))


class BMPSheaf(GraphSheaf):
    """The canonical sheaf from base; its stalks are empty off the support."""

    __slots__ = ("base",)

    def __init__(self, graph, vertex_shifts, restrictions, degree_cap, base: WeylElement):
        super().__init__(graph, vertex_shifts, restrictions, degree_cap)
        self.base = base

    @property
    def stalks(self) -> dict:
        """Vertex -> tuple of generator degrees (ascending); empty off support."""
        return self.vertex_shifts


def default_degree_cap(graph: MomentGraph, base: WeylElement) -> int:
    """L + 4 rounded up to even, with L = max length - l(base).

    The inverse-KL degree bound puts every stalk generator at degree
    L - 1 or below, so the cap-boundary sentinel (a generator at degree
    cap - 2 or above) keeps a full even step of margin over it.  The bound
    is an assumption that the sentinel guards, not a proof.
    """
    span = graph.ideal.max_length - base.length()
    return span + 4 + span % 2


def stalk_poincare(sheaf: BMPSheaf, w: WeylElement) -> QPoly:
    """Sum of q^(d/2) over the stalk's generator degrees."""
    degrees = sheaf.stalks.get(w)
    if degrees is None:
        raise NotInIdeal(f"{format_word(w)} is not a vertex")
    coeffs: list[int] = []
    for d in degrees:
        k = d // 2
        while len(coeffs) <= k:
            coeffs.append(0)
        coeffs[k] += 1
    return QPoly(coeffs)


def _support_in_order(graph, base, order):
    support = [w for w in graph.vertices if graph.ideal.leq(base, w)]
    if order is None:
        return support
    given = list(order)
    if sorted(given, key=WeylElement.sort_key) != support:
        raise ValueError("order must enumerate exactly the support")
    for i, w in enumerate(given):
        for v in given[i + 1 :]:
            if v != w and graph.ideal.leq(v, w):
                raise ValueError("order is not a linear extension of Bruhat order")
    return given


def _born_by_count(rank: int, found: int, free: int | None = None):
    """What counting says of the sections born at a vertex in one degree d:
    False if none is, True if every vector of the kernel basis is, None if
    only an elimination can tell.  rank and found count the stalk's and the
    kernel's generators so far, and free is dim K_d, the free columns of the
    older stalk generators' multiples, when known (see the module docstring
    for the three rules)."""
    if free == 0 or (rank == 1 and found):
        return False  # rule 1: K_d = 0; rule 3: K = S * its one generator
    if not found:
        return True  # rule 2: nothing to divide out
    return None


def compute_bmp(
    graph: MomentGraph,
    base: WeylElement,
    degree_cap: int | None = None,
    order=None,
) -> BMPSheaf:
    """Run the canonical construction from the given base vertex."""
    if base not in graph.ideal:
        raise BaseNotVertex(f"{format_word(base)} is not a vertex of the graph")
    cap = default_degree_cap(graph, base) if degree_cap is None else degree_cap
    if cap < 0 or cap % 2:
        raise ValueError("degree cap must be even and nonnegative")
    support = _support_in_order(graph, base, order)
    degrees = range(0, cap + 1, 2)

    sheaf = BMPSheaf(graph, {v: () for v in graph.vertices}, {}, cap, base)
    shifts, restrictions = sheaf.vertex_shifts, sheaf.restrictions
    position = graph.ideal.position
    # S-module generators of the sections over the processed prefix: a
    # degree and {vertex position: stalk vector}; a missing vertex means
    # zero.  A vector is dropped once the upper ends of all its vertex's
    # edges are processed (pending reaches 0), and a generator once all its
    # vectors are.
    gens = [(0, {position(base): [1]})]
    pending = [len(up) for up in graph.out_edges]
    shifts[base] = (0,)

    for w in support[1:]:
        k = position(w)
        d_edges = graph.in_edges[k]
        lows = [position(e.lower) for e in d_edges]
        edge_ambs = [sheaf.edge_ambient(e) for e in d_edges]
        boundary = module_ambient(
            graph.datum.rank,
            tuple((s, e.label) for e in d_edges for s in shifts[e.lower]),
        )

        # stalk generators (degree, boundary row) and kernel generators
        # (degree, stalk vector), each with its store of multiples
        new_gens: list = []
        kernel_gens: list = []
        new_store: dict = {}
        kernel_store: dict = {}
        for d in degrees:
            # a generator's boundary row is its edge images in edge order
            cands = [vecs for deg, vecs in gens if deg == d]
            if not cands and (
                not pending[k] or _born_by_count(len(new_gens), len(kernel_gens)) is False
            ):
                continue  # no new stalk generator, and no section born or carried up
            rows = []
            for vecs in cands:
                row = []
                for j, amb in zip(lows, edge_ambs):
                    vec = vecs.get(j)
                    row.extend(amb.reduce_free(vec, d) if vec else [0] * amb.dim(d))
                rows.append(row)

            # the older generators' degree-d multiples span (S+ M)_d; with
            # the fresh rows appended they are the new stalk's degree-d
            # basis, (generator, monomial) ordered, and each candidate
            # lifts through it: an S-multiple lifts by the same multiple
            try:
                system = cover_step(boundary, new_gens, rows, d, cap, new_store)
            except CapBoundaryGenerator as exc:
                exc.args = (f"{exc} at {format_word(w)}",)
                raise
            if system.fresh:
                shifts[w] = tuple(s for s, _ in new_gens)
            for vecs, (scale, lift) in zip(cands, system.lifts()):
                if scale != 1:
                    for j in vecs:
                        vecs[j] = [scale * c for c in vecs[j]]
                if any(lift):
                    vecs[k] = lift
            # sections born at w, needed only if w has upper edges: the
            # kernel vectors outside S_2 K_{d-2}, by counting where that
            # decides and by a second cover_step where it does not
            if not pending[k]:
                continue
            decided = _born_by_count(
                len(new_gens), len(kernel_gens), system.ncols - system.n_a
            )
            if decided is False:
                continue
            kernel = system.kernel()
            if decided:
                kernel_gens.extend((d, vec) for vec in kernel)
                born = range(len(kernel))
            else:
                born = cover_step(
                    sheaf.vertex_ambient(w), kernel_gens, kernel, d, store=kernel_store
                ).fresh
            gens.extend((d, {k: kernel[i]}) for i in born)

        # a new generator restricts to e by its boundary row's slice on e
        images = [[] for _ in d_edges]
        for d, vec in new_gens:
            start = 0
            for image, amb in zip(images, edge_ambs):
                end = start + amb.dim(d)
                image.append(vec[start:end])
                start = end
        restrictions.update(zip(d_edges, images))

        for j in lows:
            pending[j] -= 1
        done = [j for j in (k, *lows) if not pending[j]]
        for _, vecs in gens:
            for j in done:
                vecs.pop(j, None)
        gens = [g for g in gens if g[1]]

    return sheaf


# -- cross-validation -------------------------------------------------------


class VerificationEntry:
    __slots__ = ("vertex", "stalk", "inverse_kl", "match")

    def __init__(self, vertex: WeylElement, stalk: QPoly, inverse_kl: QPoly, match: bool):
        self.vertex = vertex
        self.stalk = stalk
        self.inverse_kl = inverse_kl
        self.match = match


class VerificationReport:
    __slots__ = ("base", "entries")

    def __init__(self, base: WeylElement, entries: list):
        self.base = base
        self.entries = entries

    @property
    def all_match(self) -> bool:
        return all(e.match for e in self.entries)


def verify_against_inverse_kl(sheaf: BMPSheaf, table: KLTable) -> VerificationReport:
    """Compare the stalk Poincare polynomial at every vertex above the
    sheaf's base with the corresponding inverse Kazhdan-Lusztig polynomial."""
    base = sheaf.base
    entries = []
    for w in _support_in_order(sheaf.graph, base, None):
        try:
            q = table.inverse_kl(base, w)
        except NotInIdeal as exc:
            raise IntervalNotContained(
                f"table does not cover the interval up to {format_word(w)}"
            ) from exc
        p = stalk_poincare(sheaf, w)
        entries.append(VerificationEntry(w, p, q, p == q))
    return VerificationReport(base, entries)
