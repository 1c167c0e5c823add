"""Weyl group elements, Bruhat order, finite open ideals and the dot action.

An element w is stored as the integer matrix of w^{-1} on simple-root
coordinates, whose columns give the left descents.  Its canonical reduced
word, got by greedily peeling the smallest-index left descent, gives the
rest.  The lower reflections (beta, s_beta w) of w = s_i v are those of v
moved by s_i, and t = s_beta exactly when (beta, e) is one of them.  The
ideal path multiplies no two general matrices and hashes no element: a left
step s_i w is a rank-one update of w^{-1}, enumerate_ideal hands every
element its canonical word, and a BruhatIdeal builds its one table of lower
reflections by position, which gives its Bruhat order as bitsets and its
simple neighbours s_i w, read by KLTable in place of matrix products.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from ._value import Value
from .errors import (
    CrossCheckFailed,
    IntervalNotContained,
    NotInIdeal,
    NotRealRoot,
    SizeLimitExceeded,
    UnsupportedKind,
)
from .root_datum import (
    DEFAULT_SIZE_LIMIT,
    FINITE,
    RootDatum,
    RootVector,
    is_negative_vector,
    is_positive_vector,
)


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _same_datum(a: RootDatum, b: RootDatum) -> bool:
    """Equal root data, by identity first: validate_cartan's cache is
    bounded, so one matrix can be validated into two equal objects."""
    return a is b or a == b


class WeylElement:
    """Group element w, stored as the matrix of w^{-1} on simple-root
    coordinates; length and the canonical reduced word are computed lazily.
    """

    __slots__ = ("datum", "inv_matrix", "_length", "_word")

    def __init__(self, datum: RootDatum, inv_matrix):
        self.datum = datum
        self.inv_matrix = inv_matrix
        self._length = None
        self._word = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and _same_datum(self.datum, other.datum)
            and self.inv_matrix == other.inv_matrix
        )

    def __hash__(self):
        return hash(self.inv_matrix)

    def __repr__(self):
        return f"WeylElement({format_word(self)})"

    def is_identity(self) -> bool:
        return self.inv_matrix == _identity_matrix(self.datum.rank)

    def apply(self, beta) -> tuple:
        """w(beta), one simple reflection per letter of the canonical word."""
        beta = tuple(beta)
        for i in reversed(self.reduced_word()):
            beta = self.datum.reflect_simple(i, beta)
        return beta

    def apply_inverse(self, beta) -> tuple:
        return tuple([sum(map(mul, row, beta)) for row in self.inv_matrix])

    def _column(self, i: int) -> RootVector:
        """w^{-1}(alpha_i)."""
        return tuple([row[i] for row in self.inv_matrix])

    def left_descents(self) -> list[int]:
        """Indices i with l(s_i w) < l(w), i.e. w^{-1}(alpha_i) negative."""
        n = self.datum.rank
        return [i for i in range(n) if is_negative_vector(self._column(i))]

    def _compute_word(self):
        word = []
        w = self
        while True:
            ds = w.left_descents()
            if not ds:
                break
            word.append(ds[0])
            w = _left_step(w, ds[0])
        if not w.is_identity():
            raise CrossCheckFailed("descent peeling did not reach the identity")
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


# identity, simple_reflection and reflection: each matrix is its own inverse
def identity(datum: RootDatum) -> WeylElement:
    return WeylElement(datum, _identity_matrix(datum.rank))


def simple_reflection(datum: RootDatum, i: int) -> WeylElement:
    n = datum.rank
    a = datum.cartan
    m = tuple(
        tuple((1 if r == c else 0) - (a[i][c] if r == i else 0) for c in range(n))
        for r in range(n)
    )
    return WeylElement(datum, m)


def _left_step(w: WeylElement, i: int) -> WeylElement:
    """s_i w in O(n^2): its inverse w^{-1} s_i is w^{-1} minus its column i
    times row i of the Cartan matrix."""
    a = w.datum.cartan[i]
    inv = tuple([
        tuple([x - k * c for x, c in zip(r, a)]) if (k := r[i]) else r
        for r in w.inv_matrix
    ])
    return WeylElement(w.datum, inv)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """uv, as the product (uv)^{-1} = v^{-1} u^{-1}."""
    if not _same_datum(u.datum, v.datum):
        raise ValueError("elements belong to different root data")
    return WeylElement(u.datum, _matmul(v.inv_matrix, u.inv_matrix))


def inverse(u: WeylElement) -> WeylElement:
    return from_word(u.datum, u.reduced_word()[::-1])


def from_word(datum: RootDatum, word) -> WeylElement:
    """s_{i_1} ... s_{i_k} for the sequence word = (i_1, ..., i_k), built by
    left steps from the right end."""
    w = identity(datum)
    for i in reversed(word):
        w = _left_step(w, i)
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
        try:
            i = int(part) - 1
        except ValueError:
            raise ValueError(
                f"bad letter {part!r} in word {text!r}: expected indices 1..{datum.rank}"
            ) from None
        if not 0 <= i < datum.rank:
            raise ValueError(
                f"reflection index {part} in word {text!r} out of range 1..{datum.rank}"
            )
        word.append(i)
    return from_word(datum, word)


def bruhat_leq(y: WeylElement, w: WeylElement) -> bool:
    """Bruhat order test by the left-to-right scan over w's canonical word.

    Peeling the leftmost letter s of w, a left descent of w, the lifting
    property gives y <= w  iff  min(y, sy) <= sw; iterating down to the
    identity leaves exactly the identity when y <= w.
    """
    if not _same_datum(y.datum, w.datum):
        raise ValueError("elements belong to different root data")
    if y.length() > w.length():
        return False
    v = y
    for i in w.reduced_word():
        if is_negative_vector(v._column(i)):
            v = _left_step(v, i)
    return v.is_identity()


def reflection(datum: RootDatum, beta) -> WeylElement:
    """The reflection s_beta for a positive real root beta."""
    if not is_positive_vector(beta):
        raise NotRealRoot(f"{beta} is not a positive vector")
    if not datum.is_real_root(beta):
        raise NotRealRoot(f"{beta} is not a real root")
    # <alpha_j, beta^vee> = sum_i c_i a_ij for beta^vee = sum_i c_i alpha_i^vee
    coroot = datum.coroot_coords(beta)
    pairings = [
        sum(c * row[j] for c, row in zip(coroot, datum.cartan))
        for j in range(datum.rank)
    ]
    m = tuple(
        tuple((1 if r == j else 0) - p * b for j, p in enumerate(pairings))
        for r, b in enumerate(beta)
    )
    return WeylElement(datum, m)


def is_reflection(t: WeylElement) -> RootVector | None:
    """The positive real root beta with t = s_beta, or None: t = s_beta
    exactly when (beta, e) is a lower pair of t (Bjorner-Brenti, GTM 231,
    ch. 1-2)."""
    return next((beta for beta, y in _lower_pairs(t) if y.is_identity()), None)


# -- finite open ideals ---------------------------------------------------


def _lower_pairs(w: WeylElement) -> tuple:
    """The pairs (beta, s_beta w), beta in the inversion set of w, sorted by
    beta.  Along w's word from the right, N(s_i v) = {alpha_i} u s_i N(v)
    and s_{s_i gamma} s_i v = s_i (s_gamma v): one left step per pair."""
    datum, v, pairs = w.datum, identity(w.datum), []
    for i in reversed(w.reduced_word()):
        pairs = [(datum.simple_root(i), v)] + [
            (datum.reflect_simple(i, g), _left_step(y, i)) for g, y in pairs
        ]
        pairs.sort(key=lambda p: p[0])
        v = _left_step(v, i)
    return tuple(pairs)


def lower_reflections(w: WeylElement) -> list[tuple[RootVector, WeylElement]]:
    """The pairs (beta, s_beta w), beta in the inversion set of w in sorted
    order: exactly the reflections t with t w < w.  These relations generate
    the Bruhat order (Bjorner-Brenti, GTM 231, ch. 2)."""
    return list(_lower_pairs(w))


class BruhatIdeal(Value):
    """A finite downward-closed subset of the Weyl group, with `elements`
    sorted canonically so that positions follow Bruhat order, and found by
    canonical word, never by hashing.  Its reflection table holds, per
    position, the pairs (beta, position of s_beta w) of lower_reflections(w):
    one pass over the positions, which fills `left` too and raises
    IntervalNotContained on a set that is not downward closed."""

    _fields = ("datum", "elements", "description")

    def __init__(self, datum: RootDatum, elements, description: str):
        self.datum = datum
        self.elements = tuple(sorted(elements, key=WeylElement.sort_key))
        self.description = description

    def __contains__(self, w) -> bool:
        return (
            isinstance(w, WeylElement)
            and _same_datum(w.datum, self.datum)
            and w.reduced_word() in self._at
        )

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_length(self) -> int:
        return max(w.length() for w in self.elements)

    def position(self, w) -> int:
        """The index of w in `elements`."""
        if w not in self:
            raise NotInIdeal(f"element {format_word(w)} not in the ideal")
        return self._at[w.reduced_word()]

    @cached_property
    def _at(self) -> dict:
        """The position of each element, keyed by its canonical word."""
        return {w.reduced_word(): k for k, w in enumerate(self.elements)}

    @cached_property
    def _table(self) -> tuple:
        """The reflection table and `left`, in one pass in position order.
        With i the first letter of w's canonical word, w's pairs are
        (alpha_i, v) for its parent v = s_i w, found by word, and
        (s_i gamma, s_i y) for each pair (gamma, y) of v.  Each s_i y < w has
        its position in `left` already, from y's row (s_i y < y) or its own.
        A set that lacks v or some s_i y is not downward closed: the pass
        raises IntervalNotContained.  The last row is checked against
        s_beta w = reflection(beta) w."""
        datum, elements, reflect = self.datum, self.elements, self.datum.reflect_simple
        left = tuple([None] * datum.rank for _ in elements)
        rows = []
        for k, w in enumerate(elements):
            word, row = w.reduced_word(), []
            if word:
                i, p = word[0], self._at.get(word[1:])
                if p is not None:
                    row = [(datum.simple_root(i), p)]
                    row += [(reflect(i, g), left[j][i]) for g, j in rows[p]]
                if len(row) < len(word) or any(j is None for _, j in row):
                    raise IntervalNotContained(f"{self.description} is not downward closed")
            row.sort()
            for beta, j in row:
                if sum(beta) == 1:
                    t = beta.index(1)
                    left[k][t], left[j][t] = j, k
            rows.append(tuple(row))
        for beta, j in rows[-1] if rows else ():
            if multiply(reflection(datum, beta), elements[-1]) != elements[j]:
                raise CrossCheckFailed(f"lower pair {beta} of the last element is wrong")
        return tuple(rows), left

    @property
    def _lower(self) -> tuple[tuple, ...]:
        """Per position, the table's pairs, sorted by beta."""
        return self._table[0]

    def lower_reflections(self, w) -> list[tuple[RootVector, WeylElement]]:
        """lower_reflections(w) for w in the set, each lower element given
        as the set's own element."""
        return [(beta, self.elements[j]) for beta, j in self._lower[self.position(w)]]

    @property
    def left(self) -> tuple[list, ...]:
        """left[k][i] is the position of s_i w_k, or None outside the set."""
        return self._table[1]

    @cached_property
    def below(self) -> list[int]:
        """Each element's Bruhat lower set as a bitset over positions."""
        below = []
        for k, lower in enumerate(self._lower):
            bits = 1 << k
            for _, j in lower:
                bits |= below[j]
            below.append(bits)
        return below

    @cached_property
    def sj_complement(self) -> frozenset:
        """R^+ minus the cofinite stable set of the ideal: the finite union
        of the inversion sets of its elements, the roots of its table."""
        return frozenset(beta for row in self._lower for beta, _ in row)

    def leq(self, y: WeylElement, w: WeylElement) -> bool:
        """Bruhat order between two elements of the set, as a bit test."""
        return bool(self.below[self.position(w)] >> self.position(y) & 1)


def enumerate_ideal(
    datum: RootDatum, max_length: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BruhatIdeal:
    """All elements of length <= max_length, by BFS on left multiplication.

    From w, the step s_i with w^{-1}(alpha_i) > 0 is taken only when i is
    the least left descent of u = s_i w, that is when no j < i has
    u^{-1}(alpha_j) = w^{-1}(alpha_j) - a_ij w^{-1}(alpha_i) negative.  So
    every element is found once, from its canonical parent, and its
    canonical word is (i,) + word(w).  These images are roots, so the sign
    of each is that of its height, and the heights h_j of the w^{-1}(alpha_j)
    (the column sums of w^{-1}) decide every test: h_i > 0 > h_j - a_ij h_i."""
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    a = datum.cartan
    e = identity(datum)
    e._length, e._word = 0, ()
    found = [e]
    frontier = [e]
    length = 0
    while frontier and length < max_length:
        nxt = []
        for w in frontier:
            h = [sum(col) for col in zip(*w.inv_matrix)]
            for i, hi in enumerate(h):
                if hi < 0 or any(h[j] - a[i][j] * hi < 0 for j in range(i)):
                    continue
                u = _left_step(w, i)
                u._length, u._word = length + 1, (i,) + w._word
                nxt.append(u)
            if len(found) + len(nxt) > size_limit:
                raise SizeLimitExceeded(f"ideal exceeds size limit {size_limit}")
        found += nxt
        frontier = nxt
        length += 1
    return BruhatIdeal(datum, tuple(found), f"max_length={max_length}")


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
    """Downward closure of explicit generators.  For s a left descent of w,
    [e, w] = [e, sw] u s[e, sw], so [e, w] grows from {e} along w's reduced
    word, read from the right."""
    found = set()
    for g in generators:
        lower = {identity(datum)}
        for i in reversed(g.reduced_word()):
            lower |= {_left_step(y, i) for y in lower}
            if len(lower) > size_limit:
                break
        found |= lower
        if len(found) > size_limit:
            raise SizeLimitExceeded(f"ideal exceeds size limit {size_limit}")
    desc = "generators=" + ";".join(format_word(g) for g in generators)
    return BruhatIdeal(datum, tuple(found), desc)


# -- inversion sets and stratum dimensions --------------------------------


def inversion_set(u: WeylElement) -> set[RootVector]:
    """{alpha > 0 : u^{-1}(alpha) < 0}: the roots of the lower pairs of u."""
    out = {beta for beta, _ in _lower_pairs(u)}
    if len(out) != u.length():
        raise CrossCheckFailed("inversion set size must equal the length")
    return out


def sj_complement(ideal: BruhatIdeal) -> frozenset:
    """R^+ minus the cofinite stable set of the ideal, computed once per
    ideal; IntervalNotContained on a set that is not downward closed."""
    return ideal.sj_complement


def stratum_dimension(x: WeylElement, ideal: BruhatIdeal) -> int:
    """Dimension of the stratum quotient for x inside the ideal.

    Both descriptions are computed and must agree:
    |{alpha in complement : x^{-1}(alpha) > 0}|  ==  |complement| - l(x).
    The root x^{-1}(alpha) is positive exactly when its height is, the sum
    over k of alpha_k times the height h_k of x^{-1}(alpha_k).
    """
    ideal.position(x)  # raises NotInIdeal for an element outside the ideal
    comp = sj_complement(ideal)
    h = [sum(col) for col in zip(*x.inv_matrix)]
    direct = sum(1 for alpha in comp if sum(map(mul, alpha, h)) > 0)
    counted = len(comp) - x.length()
    if direct != counted:
        raise CrossCheckFailed("stratum dimension formulas disagree")
    return direct


# -- weights and the dot action -------------------------------------------


class WeightCoords(Value):
    """Integral weight recorded by its simple-coroot pairings plus the
    root-lattice offset from a block base point."""

    __slots__ = _fields = ("pairings", "offset")

    def __init__(self, pairings: tuple[int, ...], offset: tuple[int, ...]):
        self.pairings = pairings
        self.offset = offset

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
