"""Moment graphs of finite open Bruhat ideals.

Vertices are the ideal's elements; two vertices are joined when one is a
real reflection times the other, and the edge is labeled by the positive
root of that reflection (or by its coroot on the Langlands-dual graph).
The stored partial order is the Bruhat order itself; consumers whose
stratification convention orders by closure should note that it runs
opposite.  Sheaves on these graphs live in bmp.
"""

from __future__ import annotations

from ._value import Value
from .errors import CrossCheckFailed
from .root_datum import RootDatum, RootVector
from .weyl import BruhatIdeal, WeylElement


class Edge(Value):
    """Edge {lower, upper} with upper = s_label . lower and lower < upper."""

    __slots__ = _fields = ("lower", "upper", "label")

    def __init__(self, lower: WeylElement, upper: WeylElement, label: RootVector):
        self.lower = lower
        self.upper = upper
        self.label = label


class MomentGraph(Value):
    """The graph with its incidence table: in_edges[k] and out_edges[k] are
    the edges whose upper, resp. lower, end is the vertex at ideal position
    k, each in `edges` order.  Equality reads the graph, not the table."""

    _fields = ("datum", "ideal", "edges", "dual_flag")
    __slots__ = _fields + ("in_edges", "out_edges")

    def __init__(
        self, datum: RootDatum, ideal: BruhatIdeal, edges: tuple[Edge, ...],
        dual_flag: bool, in_edges: tuple, out_edges: tuple,
    ):
        self.datum = datum
        self.ideal = ideal
        self.edges = edges
        self.dual_flag = dual_flag
        self.in_edges = in_edges
        self.out_edges = out_edges

    @property
    def vertices(self) -> tuple[WeylElement, ...]:
        return self.ideal.elements


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
                raise CrossCheckFailed("coroot label is not a dual real root")
            mapped.append(Edge(e.lower, e.upper, covec))
        edges = mapped
    edges.sort(key=lambda e: (e.lower.sort_key(), e.upper.sort_key(), e.label))
    ins = [[] for _ in ideal.elements]
    outs = [[] for _ in ideal.elements]
    for e in edges:
        ins[ideal.position(e.upper)].append(e)
        outs[ideal.position(e.lower)].append(e)
    return MomentGraph(
        datum, ideal, tuple(edges), dual,
        tuple(map(tuple, ins)), tuple(map(tuple, outs)),
    )


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
