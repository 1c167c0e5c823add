"""Generalized Cartan matrices and the root-lattice layer.

A root datum is a validated generalized Cartan matrix together with its
minimal positive integer symmetrizer, its definiteness class (finite /
affine / indefinite) and, in the affine case, the dual Kac labels.  Roots
live in simple-root coordinates as integer tuples, and the symmetric
bilinear form is normalized so that (alpha_i, alpha_i) = 2 d_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._linalg import kernel_basis, primitive
from .errors import HeightBoundExceeded, NotGCM, NotSymmetrizable, UnsupportedKind

RootVector = tuple[int, ...]

DEFAULT_HEIGHT_BOUND = 10_000

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


def height(beta) -> int:
    return sum(beta)


def is_positive_vector(beta) -> bool:
    return any(c > 0 for c in beta) and all(c >= 0 for c in beta)


def is_negative_vector(beta) -> bool:
    return any(c < 0 for c in beta) and all(c <= 0 for c in beta)


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


def _symmetrizer(a) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji.

    Ratios are propagated along a spanning forest of the Dynkin graph;
    any non-tree edge whose ratio disagrees makes the matrix
    non-symmetrizable.  Each connected component is scaled independently
    to the least positive integer solution.
    """
    n = len(a)
    ratio: list[Fraction | None] = [None] * n
    component = [-1] * n
    for start in range(n):
        if component[start] >= 0:
            continue
        ratio[start] = Fraction(1)
        component[start] = start
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 or i == j:
                    continue
                # d_j = d_i * a_ij / a_ji
                r = ratio[i] * Fraction(a[i][j], a[j][i])
                if component[j] == -1:
                    component[j] = start
                    ratio[j] = r
                    stack.append(j)
                elif ratio[j] != r:
                    raise NotSymmetrizable("inconsistent symmetrizer ratios on a cycle")
    d = [0] * n
    for start in set(component):
        idx = [i for i in range(n) if component[i] == start]
        for i, v in zip(idx, primitive([ratio[i] for i in idx])):
            d[i] = v
    return tuple(d)


def _charpoly_esyms(b) -> list[Fraction]:
    """Elementary symmetric functions e_1..e_n of the eigenvalues of the
    symmetric integer matrix b (sums of principal minors), exactly.

    Faddeev-LeVerrier: B_1 = B, c_k = tr(B_k)/k, B_{k+1} = B(B_k - c_k I);
    then e_k = (-1)^(k+1) c_k.
    """
    n = len(b)
    bmat = [[Fraction(x) for x in row] for row in b]
    bk = [row[:] for row in bmat]
    es = []
    for k in range(1, n + 1):
        ck = sum(bk[i][i] for i in range(n)) / k
        es.append(Fraction((-1) ** (k + 1)) * ck)
        if k < n:
            for i in range(n):
                bk[i][i] -= ck
            bk = [
                [sum(bmat[i][t] * bk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return es


def _left_null_vector(a) -> tuple[int, ...]:
    """Primitive integer solution of x·A = 0, assuming a 1-dimensional kernel."""
    n = len(a)
    # x.A = 0 is A^T x = 0, whose rows are the columns of A
    kernel = kernel_basis([[a[i][j] for i in range(n)] for j in range(n)], n)
    if len(kernel) != 1:
        raise NotGCM("expected a one-dimensional null space")
    ints = kernel[0]
    if sum(ints) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


@dataclass(frozen=True)
class RootDatum:
    """Validated GCM with symmetrizer, kind and (affine) dual Kac labels."""

    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    kind: str
    dual_labels: tuple[int, ...] | None

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
        a = self.cartan
        n = self.rank
        return tuple(sum(a[i][j] * beta[j] for j in range(n)) for i in range(n))

    def reflect_simple(self, i: int, beta) -> tuple:
        p = sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
        return tuple(c - p if j == i else c for j, c in enumerate(beta))

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
            beta = tuple(
                c - pairings[i] if j == i else c for j, c in enumerate(beta)
            )
            if not is_positive_vector(beta):
                return False

    # -- finite / affine auxiliaries -------------------------------------

    def positive_roots(self) -> list[RootVector]:
        """All positive roots, by orbit closure (finite kind only)."""
        if self.kind != FINITE:
            raise UnsupportedKind("positive root enumeration needs finite kind")
        seen = {self.simple_root(i) for i in range(self.rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    gamma = self.reflect_simple(i, beta)
                    if is_positive_vector(gamma) and gamma not in seen:
                        seen.add(gamma)
                        nxt.append(gamma)
            frontier = nxt
        return sorted(seen, key=lambda b: (height(b), b))

    def delta(self) -> RootVector:
        """The primitive positive imaginary root of an affine datum."""
        if self.kind != AFFINE:
            raise UnsupportedKind("delta exists only in affine kind")
        a_t = tuple(
            tuple(self.cartan[j][i] for j in range(self.rank)) for i in range(self.rank)
        )
        return _left_null_vector(a_t)

    def _affine_node(self) -> int:
        for i in range(self.rank):
            sub = [
                [self.cartan[r][c] for c in range(self.rank) if c != i]
                for r in range(self.rank)
                if r != i
            ]
            if sub and validate_cartan(sub).kind == FINITE:
                return i
        raise UnsupportedKind("no node whose removal leaves a finite datum")

    def untwisted_affine_data(self):
        """(affine node, finite subdatum, delta) for an untwisted affine datum."""
        if self.kind != AFFINE:
            raise UnsupportedKind("not an affine datum")
        i0 = self._affine_node()
        delta = self.delta()
        if delta[i0] != 1:
            raise UnsupportedKind("twisted affine datum")
        rest = [j for j in range(self.rank) if j != i0]
        sub = validate_cartan([[self.cartan[r][c] for c in rest] for r in rest])
        theta = tuple(delta[j] for j in rest)
        finite_roots = sub.positive_roots()
        top = max(finite_roots, key=height)
        if theta != top:
            raise UnsupportedKind("twisted affine datum")
        return i0, sub, delta

    def real_positive_roots(self, max_height: int) -> list[RootVector]:
        """Positive real roots of height <= max_height (finite or untwisted affine)."""
        if self.kind == FINITE:
            return [b for b in self.positive_roots() if height(b) <= max_height]
        if self.kind != AFFINE:
            raise UnsupportedKind("real roots need finite or untwisted affine kind")
        i0, sub, delta = self.untwisted_affine_data()
        rest = [j for j in range(self.rank) if j != i0]

        def embed(gamma, k):
            out = [k * c for c in delta]
            for pos, j in enumerate(rest):
                out[j] += gamma[pos]
            return tuple(out)

        roots = []
        finite_pos = sub.positive_roots()
        for gamma in finite_pos:
            k = 0
            while height(embed(gamma, k)) <= max_height:
                roots.append(embed(gamma, k))
                k += 1
            neg = tuple(-c for c in gamma)
            k = 1
            while height(embed(neg, k)) <= max_height:
                roots.append(embed(neg, k))
                k += 1
        return sorted(roots, key=lambda b: (height(b), b))

    def imaginary_root_multiplicity(self) -> int:
        """Multiplicity of k*delta in an untwisted affine algebra."""
        self.untwisted_affine_data()
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
        coords = [Fraction(2 * c * d, norm) for c, d in zip(beta, self.symmetrizer)]
        if any(c.denominator != 1 for c in coords):
            raise ValueError(f"non-integral coroot coordinates for {beta}")
        return tuple(int(c) for c in coords)


# bounded: a datum rebuilt after eviction equals the old one, and Weyl
# elements compare root data by value (weyl._same_datum)
@lru_cache(maxsize=64)
def _validate_cached(entries) -> RootDatum:
    a = _check_gcm(entries)
    d = _symmetrizer(a)
    n = len(a)
    b = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
    es = _charpoly_esyms(b)
    if all(e > 0 for e in es):
        kind = FINITE
    elif all(e >= 0 for e in es) and es[-1] == 0 and (n == 1 or es[-2] > 0):
        kind = AFFINE
    else:
        kind = INDEFINITE
    dual_labels = _left_null_vector(a) if kind == AFFINE else None
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
