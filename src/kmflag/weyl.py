"""Weyl group elements, Bruhat order, finite open ideals and the dot action.

Elements act on simple-root coordinates as integer matrices; identity of an
element is identity of its matrix.  The canonical reduced word of an element
is the one produced by greedily peeling the smallest-index left descent,
which is the lexicographically least greedy word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._linalg import kernel_basis
from .errors import (
    IntervalNotContained,
    NotInIdeal,
    NotRealRoot,
    SizeLimitExceeded,
    UnsupportedKind,
)
from .root_datum import (
    FINITE,
    RootDatum,
    RootVector,
    is_negative_vector,
    is_positive_vector,
)

DEFAULT_SIZE_LIMIT = 100_000


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    """Group element as a matrix acting on simple-root coordinates.

    Carries its inverse matrix so descent tests never trigger a matrix
    inversion; length and the canonical reduced word are computed lazily.
    """

    __slots__ = ("datum", "matrix", "inv_matrix", "_length", "_word")

    def __init__(self, datum: RootDatum, matrix, inv_matrix):
        self.datum = datum
        self.matrix = matrix
        self.inv_matrix = inv_matrix
        self._length = None
        self._word = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.datum is other.datum
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement({format_word(self)})"

    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(self.datum.rank)

    def apply(self, beta) -> tuple:
        m = self.matrix
        n = self.datum.rank
        return tuple(sum(m[i][j] * beta[j] for j in range(n)) for i in range(n))

    def apply_inverse(self, beta) -> tuple:
        m = self.inv_matrix
        n = self.datum.rank
        return tuple(sum(m[i][j] * beta[j] for j in range(n)) for i in range(n))

    def _image_of_simple(self, i: int, inverse: bool = False) -> RootVector:
        m = self.inv_matrix if inverse else self.matrix
        return tuple(row[i] for row in m)

    def left_descents(self) -> list[int]:
        """Indices i with l(s_i w) < l(w), i.e. w^{-1}(alpha_i) negative."""
        return [
            i
            for i in range(self.datum.rank)
            if is_negative_vector(self._image_of_simple(i, inverse=True))
        ]

    def right_descents(self) -> list[int]:
        return [
            i
            for i in range(self.datum.rank)
            if is_negative_vector(self._image_of_simple(i))
        ]

    def _compute_word(self):
        word = []
        w = self
        while True:
            ds = w.left_descents()
            if not ds:
                break
            i = ds[0]
            word.append(i)
            w = multiply(simple_reflection(w.datum, i), w)
        if not w.is_identity():
            raise AssertionError("descent peeling did not reach the identity")
        self._word = tuple(word)
        self._length = len(word)

    def length(self) -> int:
        if self._length is None:
            self._compute_word()
        return self._length

    def reduced_word(self) -> tuple[int, ...]:
        if self._word is None:
            self._compute_word()
        return self._word

    def sort_key(self):
        return (self.length(), self.reduced_word())


def identity(datum: RootDatum) -> WeylElement:
    m = _identity_matrix(datum.rank)
    return WeylElement(datum, m, m)


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
    n = datum.rank
    a = datum.cartan
    m = tuple(
        tuple((1 if r == c else 0) - (a[i][c] if r == i else 0) for c in range(n))
        for r in range(n)
    )
    return WeylElement(datum, m, m)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.datum is not v.datum:
        raise ValueError("elements belong to different root data")
    return WeylElement(
        u.datum, _matmul(u.matrix, v.matrix), _matmul(v.inv_matrix, u.inv_matrix)
    )


def inverse(u: WeylElement) -> WeylElement:
    return WeylElement(u.datum, u.inv_matrix, u.matrix)


def from_word(datum: RootDatum, word) -> WeylElement:
    w = identity(datum)
    for i in word:
        w = multiply(w, simple_reflection(datum, i))
    return w


def format_word(u: WeylElement) -> str:
    """Serialize as 1-based reflection indices, identity as "e"."""
    word = u.reduced_word()
    return "e" if not word else ",".join(str(i + 1) for i in word)


def parse_word(datum: RootDatum, text: str) -> WeylElement:
    text = text.strip()
    if text in ("e", ""):
        return identity(datum)
    word = []
    for part in text.split(","):
        i = int(part) - 1
        if not 0 <= i < datum.rank:
            raise ValueError(f"reflection index {part} out of range 1..{datum.rank}")
        word.append(i)
    return from_word(datum, word)


def bruhat_leq(y: WeylElement, w: WeylElement) -> bool:
    """Bruhat order test by the right-to-left scan over w's canonical word.

    Peeling the rightmost letter s of w, the lifting property gives
    y <= w  iff  min(y, ys) <= ws; iterating down to the identity leaves
    exactly the identity when y <= w.
    """
    if y.datum is not w.datum:
        raise ValueError("elements belong to different root data")
    if y.length() > w.length():
        return False
    v = y
    for i in reversed(w.reduced_word()):
        if is_negative_vector(v._image_of_simple(i)):
            v = multiply(v, simple_reflection(v.datum, i))
    return v.is_identity()


def reflection(datum: RootDatum, beta) -> WeylElement:
    """The reflection s_beta for a positive real root beta."""
    if not is_positive_vector(beta):
        raise NotRealRoot(f"{beta} is not a positive vector")
    if not datum.is_real_root(beta):
        raise NotRealRoot(f"{beta} is not a real root")
    norm = datum.bilinear(beta, beta)
    n = datum.rank
    cols = []
    for j in range(n):
        pairing = Fraction(2 * datum.bilinear(datum.simple_root(j), beta), norm)
        if pairing.denominator != 1:
            raise AssertionError(f"non-integral coroot pairing for {beta}")
        cols.append(
            tuple(
                (1 if r == j else 0) - int(pairing) * beta[r] for r in range(n)
            )
        )
    m = tuple(tuple(cols[j][r] for j in range(n)) for r in range(n))
    return WeylElement(datum, m, m)


def is_reflection(t: WeylElement) -> RootVector | None:
    """The positive real root beta with t = s_beta, or None.

    beta is recovered as a primitive integer spanning vector of the
    (-1)-eigenspace; the candidate is then verified against the
    reflection formula.
    """
    n = t.datum.rank
    if t.is_identity() or _matmul(t.matrix, t.matrix) != _identity_matrix(n):
        return None
    kernel = kernel_basis(
        [[t.matrix[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)],
        n,
    )
    if len(kernel) != 1:
        return None
    beta = tuple(kernel[0])
    if not is_positive_vector(beta):
        return None
    if not t.datum.is_real_root(beta):
        return None
    if reflection(t.datum, beta) != t:
        return None
    return beta


# -- finite open ideals ---------------------------------------------------


def lower_reflections(w: WeylElement) -> list[tuple[RootVector, WeylElement]]:
    """The pairs (beta, s_beta w), beta in the inversion set of w in sorted
    order: exactly the reflections t with t w < w.  These relations generate
    the Bruhat order (Bjorner-Brenti, GTM 231, ch. 2)."""
    return [
        (beta, multiply(reflection(w.datum, beta), w))
        for beta in sorted(inversion_set(w))
    ]


@dataclass(frozen=True)
class BruhatIdeal:
    """A finite downward-closed subset of the Weyl group."""

    datum: RootDatum
    elements: tuple[WeylElement, ...]
    description: str

    def __post_init__(self):
        object.__setattr__(self, "_pos", {w: k for k, w in enumerate(self.elements)})

    def __contains__(self, w) -> bool:
        return w in self._pos

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_length(self) -> int:
        return max(w.length() for w in self.elements)

    def require(self, *ws):
        for w in ws:
            if w not in self:
                raise NotInIdeal(f"element {format_word(w)} not in the ideal")

    def lower_reflections(self, w) -> list[tuple[RootVector, WeylElement]]:
        """The pairs of lower_reflections(w) whose lower element lies in the
        set, given as the set's own element."""
        return [
            (beta, self.elements[self._pos[y]])
            for beta, y in lower_reflections(w)
            if y in self._pos
        ]

    @cached_property
    def _below(self) -> dict | None:
        """Each element's Bruhat lower set as a bitset over positions in
        `elements`, built in length order; None if the set is not
        downward closed."""
        below = {}
        for w in sorted(self.elements, key=WeylElement.length):
            bits = 1 << self._pos[w]
            for _, y in lower_reflections(w):
                if y not in below:
                    return None
                bits |= below[y]
            below[w] = bits
        return below

    def is_downward_closed(self) -> bool:
        """Whether every lower reflection of every element stays in the set."""
        return self._below is not None

    def leq(self, y: WeylElement, w: WeylElement) -> bool:
        """Bruhat order between two elements of the set, as a bit test."""
        below = self._below
        if below is None:
            raise IntervalNotContained(f"{self.description} is not downward closed")
        try:
            return bool(below[w] >> self._pos[y] & 1)
        except KeyError:
            self.require(y, w)
            raise


def _canonical_sort(elements) -> tuple[WeylElement, ...]:
    return tuple(sorted(elements, key=WeylElement.sort_key))


def enumerate_ideal(
    datum: RootDatum, max_length: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BruhatIdeal:
    """All elements of length <= max_length, by BFS on right multiplication."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    e = identity(datum)
    e._length, e._word = 0, ()
    found = {e}
    frontier = [e]
    length = 0
    while frontier and length < max_length:
        nxt = []
        for w in frontier:
            for i in range(datum.rank):
                if is_positive_vector(w._image_of_simple(i)):
                    ws = multiply(w, simple_reflection(datum, i))
                    if ws not in found:
                        ws._length = length + 1
                        found.add(ws)
                        nxt.append(ws)
                        if len(found) > size_limit:
                            raise SizeLimitExceeded(
                                f"ideal exceeds size limit {size_limit}"
                            )
        frontier = nxt
        length += 1
    return BruhatIdeal(datum, _canonical_sort(found), f"max_length={max_length}")


def full_weyl_group(
    datum: RootDatum, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BruhatIdeal:
    """The whole Weyl group as an ideal (finite kind only)."""
    if datum.kind != FINITE:
        raise UnsupportedKind("full enumeration requires finite kind")
    ideal = enumerate_ideal(datum, len(datum.positive_roots()), size_limit)
    return BruhatIdeal(datum, ideal.elements, "full")


def ideal_from_generators(
    datum: RootDatum, generators, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BruhatIdeal:
    """Downward closure of explicit generators, by a downward search along
    lower_reflections."""
    found = set()
    stack = list(generators)
    while stack:
        w = stack.pop()
        if w in found:
            continue
        found.add(w)
        if len(found) > size_limit:
            raise SizeLimitExceeded(f"ideal exceeds size limit {size_limit}")
        stack.extend(y for _, y in lower_reflections(w))
    desc = "generators=" + ";".join(format_word(g) for g in generators)
    return BruhatIdeal(datum, _canonical_sort(found), desc)


# -- inversion sets and stratum dimensions --------------------------------


def inversion_set(u: WeylElement) -> set[RootVector]:
    """{alpha > 0 : u^{-1}(alpha) < 0}, read off the reduced word."""
    word = u.reduced_word()
    datum = u.datum
    prefix = identity(datum)
    out = set()
    for i in word:
        out.add(prefix.apply(datum.simple_root(i)))
        prefix = multiply(prefix, simple_reflection(datum, i))
    if len(out) != len(word):
        raise AssertionError("inversion set size must equal the length")
    return out


def sj_complement(ideal: BruhatIdeal) -> set[RootVector]:
    """R^+ minus the cofinite stable set of the ideal: the finite union of
    the inversion sets of its elements."""
    out = set()
    for x in ideal:
        out |= inversion_set(x)
    return out


def stratum_dimension(x: WeylElement, ideal: BruhatIdeal) -> int:
    """Dimension of the stratum quotient for x inside the ideal.

    Both descriptions are computed and must agree:
    |{alpha in complement : x^{-1}(alpha) > 0}|  ==  |complement| - l(x).
    """
    ideal.require(x)
    comp = sj_complement(ideal)
    direct = sum(1 for alpha in comp if is_positive_vector(x.apply_inverse(alpha)))
    counted = len(comp) - x.length()
    if direct != counted:
        raise AssertionError("stratum dimension formulas disagree")
    return direct


# -- weights and the dot action -------------------------------------------


@dataclass(frozen=True)
class WeightCoords:
    """Integral weight recorded by its simple-coroot pairings plus the
    root-lattice offset from a block base point."""

    pairings: tuple[int, ...]
    offset: tuple[int, ...]

    @staticmethod
    def base(pairings) -> "WeightCoords":
        p = tuple(int(x) for x in pairings)
        return WeightCoords(p, tuple(0 for _ in p))


def dot_action(w: WeylElement, lam: WeightCoords) -> WeightCoords:
    """w.lambda = w(lambda + rho) - rho, iterated along a reduced word via
    s_i . mu = mu - (<mu, alpha_i^vee> + 1) alpha_i."""
    a = w.datum.cartan
    n = w.datum.rank
    pairings = list(lam.pairings)
    offset = list(lam.offset)
    for i in reversed(w.reduced_word()):
        c = pairings[i] + 1
        for j in range(n):
            pairings[j] -= c * a[j][i]
        offset[i] -= c
    return WeightCoords(tuple(pairings), tuple(offset))
