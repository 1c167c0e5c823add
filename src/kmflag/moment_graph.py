"""Moment graphs of finite open Bruhat ideals and sheaves on them.

Vertices are the ideal's elements; two vertices are joined when one is a
real reflection times the other, and the edge is labeled by the positive
root of that reflection (or by its coroot on the Langlands-dual graph).
The stored partial order is the Bruhat order itself; consumers whose
stratification convention orders by closure should note that it runs
opposite.  Graph sheaves assign graded free modules to vertices and, to
each edge, its lower stalk modulo the label; they store the upper ends'
restriction maps and derive the lower ends' canonical quotients.  Section
spaces are computed degreewise as exact kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import kernel_basis
from .errors import DegreeCapExceeded
from .graded_algebra import CyclicPiece, ModuleAmbient, monomial_multiples
from .root_datum import RootDatum, RootVector
from .weyl import BruhatIdeal, WeylElement


@dataclass(frozen=True)
class Edge:
    """Edge {lower, upper} with upper = s_label . lower and lower < upper."""

    lower: WeylElement
    upper: WeylElement
    label: RootVector


@dataclass(frozen=True)
class MomentGraph:
    datum: RootDatum
    ideal: BruhatIdeal
    edges: tuple[Edge, ...]
    dual_flag: bool

    @property
    def vertices(self) -> tuple[WeylElement, ...]:
        return self.ideal.elements

    def edges_at(self, v: WeylElement) -> list[Edge]:
        return [e for e in self.edges if v in (e.lower, e.upper)]


def build_moment_graph(
    datum: RootDatum, ideal: BruhatIdeal, dual: bool = False
) -> MomentGraph:
    """Edges (s_beta w, w) labeled beta, for each vertex w and each lower
    reflection s_beta w < w that is again a vertex.  Only the finite
    inversion sets of the vertices are read, never the (possibly infinite)
    set of real roots."""
    edges = [Edge(y, w, beta) for w in ideal for beta, y in ideal.lower_reflections(w)]
    if dual:
        dual_datum = datum.langlands_dual()
        mapped = []
        for e in edges:
            covec = datum.coroot_coords(e.label)
            if not dual_datum.is_real_root(covec):
                raise AssertionError("coroot label is not a dual real root")
            mapped.append(Edge(e.lower, e.upper, covec))
        edges = mapped
    edges.sort(key=lambda e: (e.lower.sort_key(), e.upper.sort_key(), e.label))
    return MomentGraph(datum, ideal, tuple(edges), dual)


# -- sheaves on a moment graph ---------------------------------------------


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


def covering_relations(ideal: BruhatIdeal) -> list[tuple[WeylElement, WeylElement]]:
    """(y, x) pairs with y covered by x inside the ideal, in canonical order."""
    out = [
        (y, x)
        for x in ideal
        for _, y in ideal.lower_reflections(x)
        if y.length() == x.length() - 1
    ]
    out.sort(key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    return out
