"""Block combinatorics of category O at negative level.

Weights are tracked by their simple-coroot pairings; a block is indexed by
Weyl elements through the dot action around an antidominant base weight.
Verma characters come from the Kostant partition function, irreducible
characters from the alternating Kazhdan-Lusztig sum, Jordan-Holder
multiplicities from inverse KL values, and Verma-flag multiplicities of
truncated projectives from stalk ranks on the Langlands-dual moment graph,
cross-checked against BGG reciprocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bmp import compute_bmp, stalk_poincare
from .errors import (
    CrossCheckFailed,
    NegativeCoefficient,
    PredicateViolation,
    UnsupportedKind,
)
from .kl import KLTable
from .moment_graph import MomentGraph
from .root_datum import AFFINE, FINITE, RootDatum, height
from .weyl import BruhatIdeal, WeightCoords, WeylElement, dot_action


@dataclass(frozen=True)
class BlockSpec:
    """An antidominant-block candidate: base weight plus its predicates.

    noncritical is None for indefinite data, where the imaginary roots are
    not available in closed form.
    """

    datum: RootDatum
    pairings: tuple
    integral: bool
    regular: bool
    antidominant: bool
    noncritical: bool | None

    def base_weight(self) -> WeightCoords:
        if not self.integral:
            raise PredicateViolation("root-lattice offsets need an integral weight")
        return WeightCoords.base(self.pairings)


def _is_integer(x) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


def classify_weight(
    datum: RootDatum, pairings, ideal: BruhatIdeal | None = None
) -> BlockSpec:
    """Evaluate the four block predicates for <lambda, alpha_i^vee> = p_i.

    Regularity is the simple-pairing test p_i + 1 != 0 sharpened by the
    full positive-root test in finite type and, when an ideal is supplied,
    by a dot-action stabilizer scan over it.
    """
    p = tuple(Fraction(x) for x in pairings)
    if len(p) != datum.rank:
        raise ValueError("one pairing per simple root required")
    integral = all(_is_integer(x) for x in p)
    antidominant = all(not (_is_integer(x) and x >= 0) for x in p)
    regular = all(x + 1 != 0 for x in p)
    if regular and datum.kind == FINITE:
        for beta in datum.positive_roots():
            cov = datum.coroot_coords(beta)
            if sum(c * (x + 1) for c, x in zip(cov, p)) == 0:
                regular = False
                break
    if regular and ideal is not None and integral:
        lam = WeightCoords.base(tuple(int(x) for x in p))
        for w in ideal:
            if not w.is_identity() and dot_action(w, lam) == lam:
                regular = False
                break
    if datum.kind == FINITE:
        noncritical: bool | None = True
    elif datum.kind == AFFINE:
        noncritical = sum(a * (x + 1) for a, x in zip(datum.dual_labels, p)) != 0
    else:
        noncritical = None
    return BlockSpec(datum, tuple(pairings), integral, regular, antidominant, noncritical)


# -- characters -------------------------------------------------------------


@lru_cache(maxsize=None)
def _kostant_table(datum: RootDatum, depth: int) -> dict:
    """Partition counts of every nonnegative root-lattice vector of height
    at most depth, with affine imaginary multiplicities."""
    weighted_roots = []
    if datum.kind == FINITE:
        weighted_roots = [
            (r, 1) for r in datum.positive_roots() if height(r) <= depth
        ]
    elif datum.kind == AFFINE:
        mult = datum.imaginary_root_multiplicity()
        weighted_roots = [(r, 1) for r in datum.real_positive_roots(depth)]
        delta = datum.delta()
        k = 1
        while height(delta) * k <= depth:
            weighted_roots.append((tuple(k * c for c in delta), mult))
            k += 1
    else:
        raise UnsupportedKind("partition counts need finite or untwisted affine kind")
    n = datum.rank
    points = sorted(_lattice_points(n, depth), key=lambda b: (height(b), b))
    counts = {b: 0 for b in points}
    counts[(0,) * n] = 1
    for root, mult in sorted(weighted_roots, key=lambda rm: (height(rm[0]), rm[0])):
        for _ in range(mult):
            for b in points:
                prev = tuple(x - y for x, y in zip(b, root))
                if all(c >= 0 for c in prev):
                    counts[b] += counts[prev]
    return counts


def _lattice_points(n: int, depth: int):
    if n == 1:
        for h in range(depth + 1):
            yield (h,)
        return
    for first in range(depth + 1):
        for rest in _lattice_points(n - 1, depth - first):
            yield (first,) + rest


def kostant_partition(datum: RootDatum, beta, depth: int) -> int:
    """Number of multiset decompositions of beta into positive roots,
    counted with root multiplicities."""
    beta = tuple(beta)
    if any(c < 0 for c in beta):
        return 0
    if height(beta) > depth:
        raise ValueError(f"height {height(beta)} exceeds depth {depth}")
    return _kostant_table(datum, depth).get(beta, 0)


@dataclass(frozen=True)
class CharacterSeries:
    """Weight multiplicities below a base weight, keyed by the root-lattice
    offset (coordinates <= 0), truncated to drops of height <= depth."""

    base: WeightCoords
    coeffs: dict
    depth: int

    def coefficient(self, offset) -> int:
        return self.coeffs.get(tuple(offset), 0)


def verma_character(block: BlockSpec, y: WeylElement, depth: int) -> CharacterSeries:
    """ch of the Verma module with highest weight y.lambda."""
    if not block.integral:
        raise PredicateViolation("character expansion needs an integral block")
    base = dot_action(y, block.base_weight())
    table = _kostant_table(block.datum, depth)
    coeffs = {
        tuple(-c for c in drop): v for drop, v in table.items() if v
    }
    return CharacterSeries(base, coeffs, depth)


def irreducible_character(
    block: BlockSpec, w: WeylElement, depth: int, table: KLTable
) -> CharacterSeries:
    """Alternating sum of Verma characters below w with KL evaluations at 1
    as multiplicities; every resulting coefficient must be nonnegative."""
    for name in ("integral", "regular", "antidominant", "noncritical"):
        if getattr(block, name) is not True:
            raise PredicateViolation(f"block is not {name}")
    lam = block.base_weight()
    base_w = dot_action(w, lam)
    kp = _kostant_table(block.datum, depth)
    coeffs: dict = {}
    for y in table.ideal:
        if not table.ideal.leq(y, w):
            continue
        mult = table.kl_polynomial(y, w)(1)
        sign = -1 if (w.length() - y.length()) % 2 else 1
        shift = tuple(
            a - b for a, b in zip(base_w.offset, dot_action(y, lam).offset)
        )
        if any(c < 0 for c in shift):
            raise PredicateViolation("dot action is not order-compatible here")
        for drop, v in kp.items():
            total = tuple(a + b for a, b in zip(drop, shift))
            if height(total) > depth:
                continue
            key = tuple(-c for c in total)
            coeffs[key] = coeffs.get(key, 0) + sign * mult * v
    coeffs = {k: v for k, v in coeffs.items() if v}
    neg = [k for k, v in coeffs.items() if v < 0]
    if neg:
        raise NegativeCoefficient(f"negative multiplicity at offset {neg[0]}")
    return CharacterSeries(base_w, coeffs, depth)


# -- multiplicities ---------------------------------------------------------


def jh_multiplicity(
    block: BlockSpec, x: WeylElement, y: WeylElement, table: KLTable
) -> int:
    """[Delta(x.lambda) : L(y.lambda)], an inverse KL value at 1; nonzero
    only when y <= x."""
    return table.inverse_kl(y, x)(1)


_bmp_cache: dict = {}


def _cached_bmp(graph: MomentGraph, w: WeylElement):
    key = (graph, w)
    got = _bmp_cache.get(key)
    if got is None:
        got = compute_bmp(graph, w)
        _bmp_cache[key] = got
    return got


def projective_verma_multiplicity(
    block: BlockSpec,
    w: WeylElement,
    x: WeylElement,
    dual_graph: MomentGraph,
    table: KLTable,
) -> int:
    """(P(w.lambda) : Delta(x.lambda)) inside the truncation given by the
    graph's ideal: the stalk rank at x of the canonical sheaf based at w on
    the Langlands-dual moment graph.  BGG reciprocity against the
    Jordan-Holder multiplicity is enforced on every call."""
    sheaf = _cached_bmp(dual_graph, w)
    value = stalk_poincare(sheaf, x)(1)
    expected = jh_multiplicity(block, x, w, table)
    if value != expected:
        raise CrossCheckFailed(
            f"BGG reciprocity violated at ({w!r}, {x!r}): {value} != {expected}"
        )
    return value


def antidominant_block(datum: RootDatum, ideal: BruhatIdeal | None = None) -> BlockSpec:
    """The canonical regular integral antidominant block, all pairings -2."""
    block = classify_weight(datum, (-2,) * datum.rank, ideal)
    if not (block.integral and block.regular and block.antidominant):
        raise PredicateViolation("the all -2 weight should be a regular block base")
    return block
