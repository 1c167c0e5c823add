"""Sheaves on moment graphs, with their section spaces as exact kernels;
the canonical indecomposable sheaf, built vertex by vertex through graded
projective covers; and the cross-check of its stalk Poincare polynomials
against inverse Kazhdan-Lusztig polynomials.  A graph sheaf has a graded
free module at each vertex and, on each edge, its lower stalk modulo the
label; it stores the upper ends' restriction maps and derives the lower
ends' canonical quotients.

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
a second cover_step in the free stalk.  A generator's vector at a vertex
is dropped once the upper ends of all that vertex's edges are processed,
and the generator once all its vectors are.  The image over the processed
prefix equals the image over {y < w} because the canonical sheaf is
flabby.  The oracle bmp_cover_degrees in tests/oracles.py checks that
claim: it recomputes the sections over {y < w} from scratch with
sections() and covers their image at every support vertex.

The stalks are the sheaf's own ModuleAmbients, filled in as the sweep
goes, and an edge's module is its lower stalk modulo the label.
ModuleAmbient.reduce_free pushes a stalk component into an edge module, and
the boundary module at w is the sum over every edge into w; an edge from
off the support has a zero lower stalk and adds nothing.  A new generator's
restrictions are the slices of its boundary row.

The sweep stops at an even degree cap, by default L + 4 rounded up to
even, where L = max length - l(base).  A stalk generator of degree d stands
for q^(d/2) in the inverse Kazhdan-Lusztig polynomial Q_{base,w}, and
deg Q_{x,w} <= (l(w) - l(x) - 1)/2, so no generator should lie above degree
L - 1.  That bound is assumed, not proved here: generators above the cap are
never seen.  The cap-boundary sentinel in cover_step guards it, raising
CapBoundaryGenerator for any stalk generator within one even step of the
cap.  The kernel step runs without it: a section generator born near the
cap is legitimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._linalg import kernel_basis
from .errors import BaseNotVertex, DegreeCapExceeded, IntervalNotContained, NotInIdeal
from .graded_algebra import CyclicPiece, ModuleAmbient, cover_step, monomial_multiples
from .kl import KLTable, QPoly
from .moment_graph import Edge, MomentGraph
# bruhat_leq stays bound here: perfbench's tracer test rebinds it by this name
from .weyl import WeylElement, bruhat_leq, format_word  # noqa: F401


@dataclass
class GraphSheaf:
    """Graded sheaf data as the canonical construction builds it: a free
    stalk at every vertex, given by its generator degrees, and on each edge
    its lower stalk modulo the label.  restrictions[e] maps each generator
    of the upper stalk to a flattened edge_ambient(e) vector in that
    generator's degree; the lower stalk maps onto the edge by the canonical
    quotient, which is derived."""

    graph: MomentGraph
    vertex_shifts: dict
    restrictions: dict
    degree_cap: int

    def vertex_ambient(self, v) -> ModuleAmbient:
        return ModuleAmbient(
            self.graph.datum.rank, [CyclicPiece(s) for s in self.vertex_shifts[v]]
        )

    def edge_ambient(self, e: Edge) -> ModuleAmbient:
        return ModuleAmbient(
            self.graph.datum.rank,
            [CyclicPiece(s, e.label) for s in self.vertex_shifts[e.lower]],
        )

    def images(self, v, e: Edge) -> list:
        """Each generator of the stalk at the endpoint v of e, mapped to a
        flattened edge_ambient(e) vector: the stored images at the upper
        end, generator t to piece t's 1 at the lower end, and empty vectors
        when the lower stalk, and so the edge module, is zero."""
        if v not in (e.lower, e.upper):
            raise ValueError(f"{v!r} is not an endpoint of the edge")
        shifts = self.vertex_shifts[v]
        if not self.vertex_shifts[e.lower]:
            return [[] for _ in shifts]
        if v == e.upper:
            return self.restrictions[e]
        amb = self.edge_ambient(e)
        return [
            [1 if i == sum(amb.dims(s)[:t]) else 0 for i in range(amb.dim(s))]
            for t, s in enumerate(shifts)
        ]

    def restriction_matrix(self, v, e: Edge, d: int):
        """Degree-d matrix of the restriction map as columns over the
        flattened vertex coordinates."""
        eamb = self.edge_ambient(e)
        gens = zip(self.vertex_shifts[v], self.images(v, e))
        cols = monomial_multiples(eamb, gens, d)
        return [[col[r] for col in cols] for r in range(eamb.dim(d))]


def constant_sheaf(graph: MomentGraph, degree_cap: int) -> GraphSheaf:
    """The structure sheaf: S at every vertex, S/(label) on every edge,
    canonical quotients as restrictions."""
    shifts = {v: (0,) for v in graph.vertices}
    return GraphSheaf(graph, shifts, {e: ([1],) for e in graph.edges}, degree_cap)


def sections(sheaf: GraphSheaf, subset=None, max_degree: int | None = None) -> dict:
    """Degreewise bases of the space of sections over a vertex subset.

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
            rx = sheaf.restriction_matrix(e.lower, e, d)
            ry = sheaf.restriction_matrix(e.upper, e, d)
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


@dataclass
class BMPSheaf(GraphSheaf):
    """The canonical sheaf from base; its stalks are empty off the support."""

    base: WeylElement

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
    # S-module generators of the sections over the processed prefix: a
    # degree and {vertex: stalk vector}; a missing vertex means zero.  A
    # vector is dropped once the upper ends of all its vertex's edges are
    # processed, and a generator once all its vectors are.
    gens = [(0, {base: [1]})]
    pending = Counter(e.lower for e in graph.edges)
    shifts[base] = (0,)

    for w in support[1:]:
        d_edges = [e for e in graph.edges if e.upper == w]
        edge_ambs = [sheaf.edge_ambient(e) for e in d_edges]
        boundary = ModuleAmbient(
            graph.datum.rank, [p for amb in edge_ambs for p in amb.pieces]
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
            rows = []
            for vecs in cands:
                row = []
                for e, amb in zip(d_edges, edge_ambs):
                    vec = vecs.get(e.lower)
                    row.extend(amb.reduce_free(vec, d) if vec else [0] * amb.dim(d))
                rows.append(row)

            # the older generators' degree-d multiples span (S+ M)_d; with
            # the fresh rows appended they are the new stalk's degree-d
            # basis, (generator, monomial) ordered, and each candidate
            # lifts through it: an S-multiple lifts by the same multiple
            fresh, lifts, kernel = cover_step(
                boundary, new_gens, rows, d, cap, new_store,
                where=f" at {format_word(w)}",
            )
            shifts[w] = tuple(s for s, _ in new_gens)
            for vecs, (scale, lift) in zip(cands, lifts):
                if scale != 1:
                    for v in vecs:
                        vecs[v] = [scale * c for c in vecs[v]]
                if any(lift):
                    vecs[w] = lift
            if kernel and pending[w]:
                # sections born at w, needed only if w has upper edges: the
                # kernel vectors outside S_2 K_{d-2}
                born, _, _ = cover_step(
                    sheaf.vertex_ambient(w), kernel_gens, kernel, d, store=kernel_store
                )
                gens.extend((d, {w: kernel[i]}) for i in born)

        # a new generator restricts to e by its boundary row's slice on e
        restrictions.update((e, []) for e in d_edges)
        for d, vec in new_gens:
            start = 0
            for e, amb in zip(d_edges, edge_ambs):
                restrictions[e].append(vec[start : start + amb.dim(d)])
                start += amb.dim(d)

        for e in d_edges:
            pending[e.lower] -= 1
        done = [v for v in (w, *(e.lower for e in d_edges)) if not pending[v]]
        for _, vecs in gens:
            for v in done:
                vecs.pop(v, None)
        gens = [g for g in gens if g[1]]

    return sheaf


# -- cross-validation -------------------------------------------------------


@dataclass
class VerificationEntry:
    vertex: WeylElement
    stalk: QPoly
    inverse_kl: QPoly
    match: bool


@dataclass
class VerificationReport:
    base: WeylElement
    entries: list

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
