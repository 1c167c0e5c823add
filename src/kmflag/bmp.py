"""The canonical indecomposable sheaf on a moment graph, built vertex by
vertex through graded projective covers, and the cross-check of its stalk
Poincare polynomials against inverse Kazhdan-Lusztig polynomials.

The construction sweeps the support {w : base <= w} in a linear extension
of Bruhat order.  At each new vertex the sections built so far are pushed
into the incident lower edges, the image is covered by a minimal graded
free module (the new stalk, via graded_algebra.cover_step), and every
section is lifted through the cover; the kernel of the cover map supplies
the sections born at the new vertex.  Extending a section never changes its
components at older vertices, so the section space is carried
incrementally.  The image over the processed prefix equals the image over
{y < w} because the canonical sheaf is flabby.  The oracle
bmp_cover_degrees in tests/oracles.py checks that claim: it recomputes the
sections over {y < w} from scratch with moment_graph.sections and covers
their image at every support vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._linalg import solve_right
from .errors import BaseNotVertex, IntervalNotContained, NotInIdeal
from .graded_algebra import (
    CyclicPiece,
    ModuleAmbient,
    SPoly,
    cover_step,
    linear_quotient,
    monomial_multiples,
    poly_ring,
)
from .kl import KLTable, QPoly
from .moment_graph import GraphSheaf, MomentGraph
# bruhat_leq stays bound here: perfbench's tracer test rebinds it by this name
from .weyl import WeylElement, bruhat_leq, format_word  # noqa: F401


@dataclass
class BMPSheaf:
    base: WeylElement
    graph: MomentGraph
    #: vertex -> tuple of generator degrees (ascending); empty off support
    stalks: dict
    #: generator representatives and edge maps, consumable by sections()
    sheaf: GraphSheaf
    degree_cap: int


def default_degree_cap(graph: MomentGraph, base: WeylElement) -> int:
    """2*(max length - l(base)) + 4: above the inverse-KL degree bound with
    an even step of margin for the cap-boundary sentinel."""
    return 2 * (graph.ideal.max_length - base.length()) + 4


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


class _FreeStalk:
    """Degreewise coordinates of a graded free module with given shifts."""

    def __init__(self, ring, shifts):
        self.ring = ring
        self.shifts = shifts

    def blocks(self, d):
        """(shift, polynomial degree, block size) per live piece."""
        out = []
        for s in self.shifts:
            rel = d - s
            if rel >= 0 and rel % 2 == 0:
                out.append((s, rel // 2, len(self.ring.monomials(rel // 2))))
        return out

    def dim(self, d):
        return sum(b[2] for b in self.blocks(d))


def _reduce_to_edge(nvars, label, stalk: _FreeStalk, vec, d):
    """Push a flattened free-stalk vector into the edge quotient S/(label)."""
    quot = linear_quotient(nvars, tuple(label))
    out = []
    pos = 0
    for _, k, size in stalk.blocks(d):
        out.extend(quot.reduce_vec_indexed(vec[pos : pos + size], k))
        pos += size
    return out


def _edge_dim(nvars, label, stalk: _FreeStalk, d):
    quot = linear_quotient(nvars, tuple(label))
    return sum(quot.dim(k) for _, k, _ in stalk.blocks(d))


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
    nvars = graph.label_datum.rank
    ring = poly_ring(nvars)
    degrees = list(range(0, cap + 1, 2))

    stalk_of: dict = {}
    vertex_shifts = {v: () for v in graph.vertices}
    edge_shifts: dict = {}
    restrictions: dict = {}
    # per degree: per processed vertex, one component row per section
    comp: dict = {}
    nsec = {d: 0 for d in degrees}
    reduced_cache: dict = {}

    def reduced_rows(e, d, want):
        """Edge-reduced section components at e.lower, lazily extended;
        sections born after e.lower have zero components there."""
        key = (e, d)
        rows = reduced_cache.setdefault(key, [])
        y = e.lower
        stalk = stalk_of[y]
        src = comp[y][d]
        zero_width = None
        for s in range(len(rows), want):
            if s < len(src):
                rows.append(_reduce_to_edge(nvars, e.label, stalk, src[s], d))
            else:
                if zero_width is None:
                    zero_width = _edge_dim(nvars, e.label, stalk, d)
                rows.append([0] * zero_width)
        return rows

    first = True
    for w in support:
        if first:
            stalk_of[w] = _FreeStalk(ring, (0,))
            vertex_shifts[w] = (0,)
            comp[w] = {}
            for d in degrees:
                dim = len(ring.monomials(d // 2))
                comp[w][d] = [
                    [1 if i == j else 0 for i in range(dim)] for j in range(dim)
                ]
                nsec[d] = dim
            first = False
            continue

        d_edges = [e for e in graph.edges if e.upper == w and e.lower in stalk_of]
        pieces = []
        edge_piece_ranges = []
        for e in d_edges:
            start = len(pieces)
            pieces.extend(CyclicPiece(s, e.label) for s in stalk_of[e.lower].shifts)
            edge_piece_ranges.append((start, len(pieces)))
        boundary_amb = ModuleAmbient(nvars, pieces)

        def edge_offsets(d):
            dims = boundary_amb.dims(d)
            offs = []
            pos = 0
            for start, end in edge_piece_ranges:
                offs.append(pos)
                pos += sum(dims[start:end])
            return offs

        new_gens: list[tuple[int, list]] = []
        image_basis_prev: list = []
        comp[w] = {}
        for d in degrees:
            width = boundary_amb.dim(d)
            offs = edge_offsets(d)
            per_edge = [reduced_rows(e, d, nsec[d]) for e in d_edges]
            pi_rows = []
            for s in range(nsec[d]):
                row = [0] * width
                for off, rows in zip(offs, per_edge):
                    red = rows[s]
                    for i, val in enumerate(red):
                        row[off + i] = val
                pi_rows.append(row)

            image_basis_prev, fresh = cover_step(
                boundary_amb, image_basis_prev, pi_rows, d, cap,
                where=f" at {format_word(w)}",
            )
            new_gens.extend((d, pi_rows[i]) for i in fresh)

            # the new stalk's degree-d basis, (generator, monomial) ordered,
            # mapped into the boundary; each section lifts through it
            gen_cols = [
                col
                for dgen, vec in new_gens
                for col in monomial_multiples(boundary_amb, vec, dgen, d)
            ]
            g_rows = [[col[r] for col in gen_cols] for r in range(width)]
            lifts, kernel = solve_right(g_rows, pi_rows, len(gen_cols))
            comp[w][d] = lifts + kernel
            nsec[d] += len(kernel)

        shifts_w = tuple(d for d, _ in new_gens)
        stalk_of[w] = _FreeStalk(ring, shifts_w)
        vertex_shifts[w] = shifts_w

        for e in d_edges:
            lower_shifts = stalk_of[e.lower].shifts
            edge_shifts[e] = lower_shifts
            restrictions[(e.lower, e)] = tuple(
                tuple(
                    SPoly.constant(nvars, 1) if t == t0 else SPoly.zero(nvars)
                    for t in range(len(lower_shifts))
                )
                for t0 in range(len(lower_shifts))
            )
        upper_images = {e: [] for e in d_edges}
        for dgen, vec in new_gens:
            offs = edge_offsets(dgen)
            for e, off in zip(d_edges, offs):
                quot = linear_quotient(nvars, tuple(e.label))
                parts = []
                pos = off
                for s in stalk_of[e.lower].shifts:
                    rel = dgen - s
                    if rel < 0 or rel % 2:
                        parts.append(SPoly.zero(nvars))
                        continue
                    monos = quot.reduced_monomials(rel // 2)
                    block = vec[pos : pos + len(monos)]
                    pos += len(monos)
                    parts.append(SPoly(nvars, dict(zip(monos, block))))
                upper_images[e].append(tuple(parts))
        for e in d_edges:
            restrictions[(w, e)] = tuple(upper_images[e])

    # edges whose lower endpoint is off the support carry the zero module
    for e in graph.edges:
        if e not in edge_shifts:
            if e.lower in stalk_of:
                raise AssertionError("support edge left unprocessed")
            edge_shifts[e] = ()
            restrictions[(e.lower, e)] = ()
            restrictions[(e.upper, e)] = tuple(() for _ in vertex_shifts[e.upper])

    out_sheaf = GraphSheaf(graph, nvars, vertex_shifts, edge_shifts, restrictions, cap)
    stalks = {v: vertex_shifts[v] for v in graph.vertices}
    return BMPSheaf(base, graph, stalks, out_sheaf, cap)


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
