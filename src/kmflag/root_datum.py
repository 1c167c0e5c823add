"""Generalized Cartan matrices and the root-lattice layer.

A root datum is a validated generalized Cartan matrix together with its
minimal positive integer symmetrizer, its definiteness class (finite /
affine / indefinite; affine data are connected, so a decomposable matrix
with a component that is not finite is indefinite) and, in the affine
case, the dual Kac labels.  Roots live in simple-root coordinates as
integer tuples, and the symmetric bilinear form is normalized so that
(alpha_i, alpha_i) = 2 d_i.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf
from operator import mul

from ._linalg import kernel_basis
from ._value import Value
from .errors import (
    HeightBoundExceeded, NotGCM, NotSymmetrizable, SizeLimitExceeded, UnsupportedKind,
)

RootVector = tuple[int, ...]

DEFAULT_HEIGHT_BOUND = 10_000
DEFAULT_SIZE_LIMIT = 100_000

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


def height(beta) -> int:
    return sum(beta)


def is_positive_vector(beta) -> bool:
    return max(beta, default=0) > 0 and min(beta) >= 0


def is_negative_vector(beta) -> bool:
    return min(beta, default=0) < 0 and max(beta) <= 0


def _check_gcm(entries) -> tuple[tuple[int, ...], ...]:
    if not entries or any(len(row) != len(entries) for row in entries):
        raise NotGCM("Cartan matrix must be a nonempty square table")
    n = len(entries)
    rows = []
    for row in entries:
        for a in row:
            if not isinstance(a, int) or isinstance(a, bool):
                raise NotGCM(f"non-integer entry {a!r}")
        rows.append(tuple(row))
    a = tuple(rows)
    for i in range(n):
        if a[i][i] != 2:
            raise NotGCM(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if a[i][j] > 0:
                raise NotGCM(f"positive off-diagonal entry a[{i}][{j}] = {a[i][j]}")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise NotGCM(f"zero pattern asymmetric at ({i},{j})")
    return a


def _symmetrizer(a) -> tuple[tuple[int, ...], int]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji, and the number
    of Dynkin components.

    The kernel of these equations has one primitive vector per Dynkin
    component on which they are consistent, supported on that component
    and positive there; a component with no kernel vector makes the matrix
    non-symmetrizable.
    """
    n = len(a)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j]:
                row = [0] * n
                row[i], row[j] = a[i][j], -a[j][i]
                rows.append(row)
    kernel = kernel_basis(rows, n)
    d = tuple(sum(v[i] for v in kernel) for i in range(n))
    if not all(d):
        raise NotSymmetrizable("inconsistent symmetrizer ratios on a cycle")
    return d, len(kernel)


def _leading_minors(b) -> list[int]:
    """Leading principal minors of the integer matrix b, by fraction-free
    (Bareiss) elimination, up to the first one that is not positive: a zero
    pivot cannot be divided by, and no kind reads the minors after it."""
    m = [list(row) for row in b]
    n = len(m)
    minors = []
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        minors.append(pivot)
        if pivot <= 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


def _null_vector(rows) -> tuple[int, ...]:
    """Primitive integer solution of R x = 0, assuming a 1-dimensional
    kernel with a positive vector."""
    kernel = kernel_basis(rows, len(rows))
    if len(kernel) != 1:
        raise NotGCM("expected a one-dimensional null space")
    return tuple(kernel[0])


class RootDatum(Value):
    """Validated GCM with symmetrizer, kind and (affine) dual Kac labels."""

    __slots__ = _fields = ("cartan", "symmetrizer", "kind", "dual_labels")

    def __init__(
        self, cartan: tuple[tuple[int, ...], ...], symmetrizer: tuple[int, ...],
        kind: str, dual_labels: tuple[int, ...] | None,
    ):
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.kind = kind
        self.dual_labels = dual_labels

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def simple_root(self, i: int) -> RootVector:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def bilinear(self, beta, gamma):
        """(beta, gamma) = sum_ij beta_i gamma_j d_i a_ij."""
        a, d = self.cartan, self.symmetrizer
        n = self.rank
        return sum(
            beta[i] * gamma[j] * d[i] * a[i][j]
            for i in range(n)
            for j in range(n)
            if beta[i] and gamma[j]
        )

    def coroot_pairings(self, beta) -> tuple:
        """All pairings <beta, alpha_i^vee> = (A beta)_i at once."""
        return tuple([sum(map(mul, row, beta)) for row in self.cartan])

    def reflect_simple(self, i: int, beta) -> tuple:
        out = list(beta)
        out[i] -= sum(map(mul, self.cartan[i], beta))
        return tuple(out)

    def is_real_root(self, beta, height_bound: int = DEFAULT_HEIGHT_BOUND) -> bool:
        """Whether beta lies in the Weyl orbit of a simple root.

        Height descent: repeatedly apply a simple reflection with positive
        pairing; beta is real iff the descent lands on a simple root.
        """
        if all(c == 0 for c in beta):
            raise ValueError("zero vector is not a root")
        if is_negative_vector(beta):
            beta = tuple(-c for c in beta)
        elif not is_positive_vector(beta):
            return False
        if height(beta) > height_bound:
            raise HeightBoundExceeded(
                f"root height {height(beta)} exceeds bound {height_bound}"
            )
        while True:
            if height(beta) == 1:
                return True
            pairings = self.coroot_pairings(beta)
            i = next((k for k, p in enumerate(pairings) if p > 0), None)
            if i is None:
                return False
            beta = self.reflect_simple(i, beta)
            if not is_positive_vector(beta):
                return False

    # -- finite / affine auxiliaries -------------------------------------

    def _real_closure(self, max_height=inf, size_limit=inf) -> list[RootVector]:
        """Positive real roots of height <= max_height, by orbit closure from
        the simple roots.  A real positive root of height > 1 has a simple
        reflection lowering it to a real positive root, so the bound cuts no
        root below it off.  Raises SizeLimitExceeded once the closure holds
        more than size_limit roots."""
        seen = {self.simple_root(i) for i in range(self.rank) if max_height >= 1}
        frontier = list(seen)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    gamma = self.reflect_simple(i, beta)
                    if (
                        is_positive_vector(gamma)
                        and gamma not in seen
                        and height(gamma) <= max_height
                    ):
                        seen.add(gamma)
                        nxt.append(gamma)
            if len(seen) > size_limit:
                raise SizeLimitExceeded(f"real roots exceed size limit {size_limit}")
            frontier = nxt
        return sorted(seen, key=lambda b: (height(b), b))

    def positive_roots(self) -> list[RootVector]:
        """All positive roots (finite kind only)."""
        if self.kind != FINITE:
            raise UnsupportedKind("positive root enumeration needs finite kind")
        return self._real_closure()

    def delta(self) -> RootVector:
        """The primitive positive imaginary root of an affine datum."""
        if self.kind != AFFINE:
            raise UnsupportedKind("delta exists only in affine kind")
        return _null_vector(self.cartan)

    def _check_untwisted(self) -> None:
        """Raise unless the datum is untwisted affine: some node i with
        delta_i = 1 leaves a finite datum whose highest root is delta - alpha_i.
        The test reads no node numbering."""
        if self.kind != AFFINE:
            raise UnsupportedKind("not an affine datum")
        delta = self.delta()
        for i in range(self.rank):
            if delta[i] != 1:
                continue
            rest = [j for j in range(self.rank) if j != i]
            sub = validate_cartan([[self.cartan[r][c] for c in rest] for r in rest])
            # an affine datum's proper principal submatrices are finite
            if sub.positive_roots()[-1] == tuple(delta[j] for j in rest):
                return
        raise UnsupportedKind("twisted affine datum")

    def real_positive_roots(
        self, max_height: int, size_limit: int = DEFAULT_SIZE_LIMIT
    ) -> list[RootVector]:
        """Positive real roots of height <= max_height (finite or untwisted
        affine), at most size_limit of them."""
        if self.kind == AFFINE:
            self._check_untwisted()
        elif self.kind != FINITE:
            raise UnsupportedKind("real roots need finite or untwisted affine kind")
        return self._real_closure(max_height, size_limit)

    def imaginary_root_multiplicity(self) -> int:
        """Multiplicity of k*delta in an untwisted affine algebra."""
        self._check_untwisted()
        return self.rank - 1

    def langlands_dual(self) -> RootDatum:
        transposed = [
            [self.cartan[j][i] for j in range(self.rank)] for i in range(self.rank)
        ]
        return validate_cartan(transposed)

    def coroot_coords(self, beta) -> RootVector:
        """Coordinates of beta^vee on the simple coroots (= simple roots of the
        Langlands dual datum); beta must be a real root."""
        norm = self.bilinear(beta, beta)
        if norm <= 0:
            raise ValueError("coroot defined only for real roots")
        coords = [divmod(2 * c * d, norm) for c, d in zip(beta, self.symmetrizer)]
        if any(r for _, r in coords):
            raise ValueError(f"non-integral coroot coordinates for {beta}")
        return tuple(q for q, _ in coords)


# bounded: a datum rebuilt after eviction equals the old one, and Weyl
# elements compare root data by value (weyl._same_datum)
@lru_cache(maxsize=64)
def _validate_cached(entries) -> RootDatum:
    a = _check_gcm(entries)
    d, components = _symmetrizer(a)
    n = len(a)
    # B = DA is symmetric: positive definite (Sylvester) exactly for finite
    # kind, and positive semidefinite of corank 1 with its first n - 1
    # leading minors positive for an indecomposable affine matrix
    minors = _leading_minors([[d[i] * a[i][j] for j in range(n)] for i in range(n)])
    if len(minors) == n and all(m > 0 for m in minors):
        kind = FINITE
    elif len(minors) == n and minors[-1] == 0 and components == 1:
        kind = AFFINE
    else:
        kind = INDEFINITE
    dual_labels = _null_vector(list(zip(*a))) if kind == AFFINE else None
    return RootDatum(cartan=a, symmetrizer=d, kind=kind, dual_labels=dual_labels)


def validate_cartan(entries) -> RootDatum:
    """Validate an integer table as a symmetrizable GCM and classify it.

    Raises NotGCM or NotSymmetrizable on bad input.
    """
    try:
        key = tuple(tuple(row) for row in entries)
    except TypeError as exc:
        raise NotGCM("Cartan matrix must be a table of integers") from exc
    return _validate_cached(key)
