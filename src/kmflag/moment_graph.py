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
    set of real roots.  The edges are read off the ideal's reflection table
    as (lower, upper, label) position triples: positions follow sort_key
    and one edge joins each pair, so sorting the triples orders the edges
    by (lower.sort_key(), upper.sort_key()), and the incidence lists are
    filled by position.  On the dual graph each distinct label's coroot is
    computed, and checked to be a dual real root, once."""
    triples = sorted(
        (j, k, beta) for k, lower in enumerate(ideal._lower) for beta, j in lower
    )
    if dual:
        dual_datum = datum.langlands_dual()
        coroot = {}
        for beta in {beta for _, _, beta in triples}:
            covec = coroot[beta] = datum.coroot_coords(beta)
            if not dual_datum.is_real_root(covec):
                raise CrossCheckFailed("coroot label is not a dual real root")
        triples = [(j, k, coroot[beta]) for j, k, beta in triples]
    els = ideal.elements
    edges = [Edge(els[j], els[k], beta) for j, k, beta in triples]
    ins = [[] for _ in els]
    outs = [[] for _ in els]
    for (j, k, _), e in zip(triples, edges):
        ins[k].append(e)
        outs[j].append(e)
    return MomentGraph(
        datum, ideal, tuple(edges), dual,
        tuple(map(tuple, ins)), tuple(map(tuple, outs)),
    )


def covering_relations(ideal: BruhatIdeal) -> list[tuple[WeylElement, WeylElement]]:
    """(y, x) pairs with y covered by x inside the ideal, in canonical order,
    read off the reflection table by position."""
    els = ideal.elements
    length = [w.length() for w in els]
    pairs = sorted(
        (j, k)
        for k, lower in enumerate(ideal._lower)
        for _, j in lower
        if length[j] == length[k] - 1
    )
    return [(els[j], els[k]) for j, k in pairs]
