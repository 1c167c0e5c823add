"""Moment graphs of finite open Bruhat ideals and sheaves on them.

Vertices are the ideal's elements; two vertices are joined when one is a
real reflection times the other, and the edge is labeled by the positive
root of that reflection (or by its coroot on the Langlands-dual graph).
The stored partial order is the Bruhat order itself; consumers whose
stratification convention orders by closure should note that it runs
opposite.  Graph sheaves assign graded free modules to vertices,
label-annihilated modules to edges, and restriction maps to incidences;
section spaces are computed degreewise as exact kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._linalg import kernel_basis
from .errors import DegreeCapExceeded
from .graded_algebra import (
    CyclicPiece,
    ModuleAmbient,
    SPoly,
    reduce_mod_linear,
)
from .root_datum import RootDatum, RootVector
from .weyl import BruhatIdeal, WeylElement, format_word


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
    #: datum whose root lattice carries the edge labels
    label_datum: RootDatum = field(compare=False)

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
    label_datum = datum
    if dual:
        label_datum = datum.langlands_dual()
        mapped = []
        for e in edges:
            covec = datum.coroot_coords(e.label)
            if not label_datum.is_real_root(covec):
                raise AssertionError("coroot label is not a dual real root")
            mapped.append(Edge(e.lower, e.upper, covec))
        edges = mapped
    edges.sort(key=lambda e: (e.lower.sort_key(), e.upper.sort_key(), e.label))
    return MomentGraph(datum, ideal, tuple(edges), dual, label_datum)


def structure_algebra_check(graph: MomentGraph, tuples: dict) -> bool:
    """Whether (z_x) satisfies z_x = z_{s_a x} mod a on every edge."""
    missing = [v for v in graph.vertices if v not in tuples]
    if missing:
        raise ValueError(f"tuple missing vertices: {format_word(missing[0])} ...")
    for e in graph.edges:
        diff = tuples[e.lower] - tuples[e.upper]
        if not reduce_mod_linear(diff, SPoly.linear(e.label)).is_zero():
            return False
    return True


# -- sheaves on a moment graph ---------------------------------------------


@dataclass
class GraphSheaf:
    """Graded sheaf data: free vertex modules, label-annihilated edge
    modules, and restriction maps given by generator images."""

    graph: MomentGraph
    nvars: int
    vertex_shifts: dict
    edge_shifts: dict
    restrictions: dict
    degree_cap: int

    def vertex_ambient(self, v) -> ModuleAmbient:
        return ModuleAmbient(
            self.nvars, [CyclicPiece(s) for s in self.vertex_shifts[v]]
        )

    def edge_ambient(self, e: Edge) -> ModuleAmbient:
        return ModuleAmbient(
            self.nvars, [CyclicPiece(s, e.label) for s in self.edge_shifts[e]]
        )

    def restriction_matrix(self, v, e: Edge, d: int):
        """Degree-d matrix of the restriction map as columns over the
        flattened vertex coordinates."""
        vamb = self.vertex_ambient(v)
        eamb = self.edge_ambient(e)
        images = self.restrictions[(v, e)]
        cols = []
        ring = vamb.ring
        for t, shift in enumerate(self.vertex_shifts[v]):
            rel = d - shift
            if rel < 0 or rel % 2:
                continue
            img = images[t]
            for mono in ring.monomials(rel // 2):
                mono_poly = SPoly(self.nvars, {mono: 1})
                moved = tuple(mono_poly * comp for comp in img)
                cols.append(eamb.flatten(moved, d))
        rows = len(cols[0]) if cols else eamb.dim(d)
        return [[col[r] for col in cols] for r in range(rows)]


def constant_sheaf(graph: MomentGraph, degree_cap: int) -> GraphSheaf:
    """The structure sheaf: S at every vertex, S/(label) on every edge,
    canonical quotients as restrictions."""
    n = graph.label_datum.rank
    unit = (SPoly.constant(n, 1),)
    vertex_shifts = {v: (0,) for v in graph.vertices}
    edge_shifts = {e: (0,) for e in graph.edges}
    restrictions = {}
    for e in graph.edges:
        restrictions[(e.lower, e)] = (unit,)
        restrictions[(e.upper, e)] = (unit,)
    return GraphSheaf(graph, n, vertex_shifts, edge_shifts, restrictions, degree_cap)


def sections(sheaf: GraphSheaf, subset=None, max_degree: int | None = None) -> dict:
    """Degreewise bases of the space of sections over a vertex subset.

    Only edges with both endpoints inside the subset constrain the tuple.
    Returns {degree: [section]}, a section being {vertex: element}.
    """
    graph = sheaf.graph
    verts = list(graph.vertices) if subset is None else [
        v for v in graph.vertices if v in set(subset)
    ]
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
        basis = kernel_basis(rows, width)
        secs = []
        for vec in basis:
            sec = {}
            for v in verts:
                amb = ambients[v]
                block = vec[offsets[v] : offsets[v] + amb.dim(d)]
                sec[v] = amb.unflatten(block, d)
            secs.append(sec)
        out[d] = secs
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
