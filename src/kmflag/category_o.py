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

from functools import lru_cache

from ._value import Value
from .bmp import BMPSheaf, compute_bmp, stalk_poincare
from .errors import (
    CrossCheckFailed,
    NegativeCoefficient,
    PredicateViolation,
    UnsupportedKind,
)
from .graded_algebra import linear_quotient
from .kl import KLTable
from .moment_graph import MomentGraph
from .root_datum import AFFINE, FINITE, RootDatum, height
from .weyl import BruhatIdeal, WeightCoords, WeylElement, dot_action


class BlockSpec(Value):
    """An antidominant-block candidate: base weight plus its predicates.

    noncritical is None for indefinite data, where the imaginary roots are
    not available in closed form.
    """

    __slots__ = _fields = (
        "datum", "pairings", "integral", "regular", "antidominant", "noncritical"
    )

    def __init__(
        self, datum: RootDatum, pairings: tuple, integral: bool, regular: bool,
        antidominant: bool, noncritical: bool | None,
    ):
        self.datum = datum
        self.pairings = pairings
        self.integral = integral
        self.regular = regular
        self.antidominant = antidominant
        self.noncritical = noncritical

    def base_weight(self) -> WeightCoords:
        if not self.integral:
            raise PredicateViolation("root-lattice offsets need an integral weight")
        return WeightCoords.base(self.pairings)


def _require_block(block: BlockSpec, undecided_ok: bool = False) -> None:
    """PredicateViolation unless all four block predicates hold;
    undecided_ok accepts noncritical None, as for indefinite data."""
    for name in ("integral", "regular", "antidominant", "noncritical"):
        value = getattr(block, name)
        if value is not True and not (undecided_ok and value is None):
            raise PredicateViolation(f"block is not {name}")


def classify_weight(
    datum: RootDatum, pairings, ideal: BruhatIdeal | None = None
) -> BlockSpec:
    """Evaluate the four block predicates for <lambda, alpha_i^vee> = p_i.

    Regularity is the simple-pairing test p_i + 1 != 0 sharpened by the
    full positive-root test in finite type and, when an ideal is supplied,
    by a dot-action stabilizer scan over it.  Each pairing is an exact
    rational, an int or a fractions.Fraction: one that has no denominator
    (a float, a str) raises ValueError.
    """
    p = tuple(pairings)
    if len(p) != datum.rank:
        raise ValueError("one pairing per simple root required")
    try:
        whole = [x.denominator == 1 for x in p]
    except AttributeError:
        raise ValueError(f"pairings must be exact rationals: {p!r}") from None
    integral = all(whole)
    antidominant = all(not (w and x >= 0) for w, x in zip(whole, p))
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
    return BlockSpec(datum, p, integral, regular, antidominant, noncritical)


# -- characters -------------------------------------------------------------


# bounded: a command reads the table of one datum at one depth
@lru_cache(maxsize=8)
def _kostant_table(datum: RootDatum, depth: int) -> dict:
    """Partition counts of every nonnegative root-lattice vector of height
    at most depth, with affine imaginary multiplicities."""
    if datum.kind not in (FINITE, AFFINE):
        raise UnsupportedKind("partition counts need finite or untwisted affine kind")
    weighted_roots = [(r, 1) for r in datum.real_positive_roots(depth)]
    if datum.kind == AFFINE:
        mult = datum.imaginary_root_multiplicity()
        delta = datum.delta()
        k = 1
        while height(delta) * k <= depth:
            weighted_roots.append((tuple(k * c for c in delta), mult))
            k += 1
    n = datum.rank
    # (height, b) order: monomials(h) lists the height-h points sorted
    ring = linear_quotient(n, (0,) * n)
    points = [b for h in range(depth + 1) for b in ring.monomials(h)]
    counts = {b: 0 for b in points}
    counts[(0,) * n] = 1
    for root, mult in sorted(weighted_roots, key=lambda rm: (height(rm[0]), rm[0])):
        for _ in range(mult):
            for b in points:
                prev = tuple(x - y for x, y in zip(b, root))
                if all(c >= 0 for c in prev):
                    counts[b] += counts[prev]
    return counts


def kostant_partition(datum: RootDatum, beta, depth: int) -> int:
    """Number of multiset decompositions of beta into positive roots,
    counted with root multiplicities."""
    beta = tuple(beta)
    if any(c < 0 for c in beta):
        return 0
    if height(beta) > depth:
        raise ValueError(f"height {height(beta)} exceeds depth {depth}")
    return _kostant_table(datum, depth).get(beta, 0)


class CharacterSeries:
    """Weight multiplicities below a base weight, keyed by the root-lattice
    offset (coordinates <= 0), truncated to drops of height <= depth."""

    __slots__ = ("base", "coeffs", "depth")

    def __init__(self, base: WeightCoords, coeffs: dict, depth: int):
        self.base = base
        self.coeffs = coeffs
        self.depth = depth

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
    # indefinite data leaves noncritical undecided; unsupported partition
    # counts are the real obstacle there, so they are checked first
    kp = _kostant_table(block.datum, depth)
    _require_block(block)
    lam = block.base_weight()
    base_w = dot_action(w, lam)
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
    only when y <= x.  The formula holds on an integral, regular,
    antidominant, not critical block, which is enforced."""
    _require_block(block, undecided_ok=True)
    return table.inverse_kl(y, x)(1)


class SheafTable:
    """Canonical sheaves on one moment graph, computed once per base vertex
    and kept for the life of the table, as KLTable keeps KL polynomials."""

    def __init__(self, graph: MomentGraph):
        self.graph = graph
        self._sheaves: dict = {}

    def sheaf(self, base: WeylElement) -> BMPSheaf:
        got = self._sheaves.get(base)
        if got is None:
            got = compute_bmp(self.graph, base)
            self._sheaves[base] = got
        return got


def projective_verma_multiplicity(
    block: BlockSpec,
    w: WeylElement,
    x: WeylElement,
    sheaves: SheafTable,
    table: KLTable,
) -> int:
    """(P(w.lambda) : Delta(x.lambda)) inside the truncation given by the
    graph's ideal: the stalk rank at x of the canonical sheaf based at w on
    the Langlands-dual moment graph that the sheaf table is built on.  BGG
    reciprocity against the Jordan-Holder multiplicity is enforced on every
    call, on an integral, regular, antidominant, not critical block."""
    expected = jh_multiplicity(block, x, w, table)
    value = stalk_poincare(sheaves.sheaf(w), x)(1)
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
