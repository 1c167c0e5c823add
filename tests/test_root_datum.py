from itertools import permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kmflag.errors import HeightBoundExceeded, NotGCM, NotSymmetrizable, UnsupportedKind
from kmflag.root_datum import height, validate_cartan

from conftest import GCM_PAIRS, rank3_datum
from oracles import kernel_over_q, kind_oracle, symmetrizer_oracle

# affine types in Kac's numbering (alpha_0 first)
UNTWISTED_AFFINE = {
    "C2^(1)": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "G2^(1)": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    "B3^(1)": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -2, 2]],
    "C3^(1)": [[2, -1, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "A3^(1)": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
}
TWISTED_AFFINE = {
    "A4^(2)": [[2, -2, 0], [-1, 2, -2], [0, -1, 2]],
    "D3^(2)": [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],
    "D4^(3)": [[2, -1, 0], [-1, 2, -3], [0, -1, 2]],
}


def relabelled(cartan, perm):
    """The matrix whose node r is node perm[r] of cartan."""
    return [[cartan[r][c] for c in perm] for r in perm]


def test_rank_one_is_finite():
    d = validate_cartan([[2]])
    assert d.kind == "finite"
    assert d.symmetrizer == (1,)
    assert d.dual_labels is None


def test_a2_is_finite_symmetric():
    d = validate_cartan([[2, -1], [-1, 2]])
    assert d.kind == "finite"
    assert d.symmetrizer == (1, 1)


def test_affine_a1_classification_and_labels():
    d = validate_cartan([[2, -2], [-2, 2]])
    assert d.kind == "affine"
    assert d.symmetrizer == (1, 1)
    assert d.dual_labels == (1, 1)


def test_zero_pattern_asymmetry_rejected():
    with pytest.raises(NotGCM):
        validate_cartan([[2, -1], [0, 2]])


@pytest.mark.parametrize(
    "bad",
    [
        [[2, -1]],
        [[1]],
        [[2, 1], [1, 2]],
        [[2, -1], [-1, 3]],
    ],
)
def test_malformed_matrices_rejected(bad):
    with pytest.raises(NotGCM):
        validate_cartan(bad)


def test_non_symmetrizable_cycle_rejected():
    # a 3-cycle whose ratio product differs in the two directions
    m = [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]]
    with pytest.raises(NotSymmetrizable):
        validate_cartan(m)


def test_b2_symmetrizer_minimal():
    d = validate_cartan([[2, -1], [-2, 2]])
    assert d.symmetrizer == (2, 1)
    assert d.kind == "finite"


def test_indefinite_kind():
    assert validate_cartan([[2, -3], [-3, 2]]).kind == "indefinite"


def test_symmetrizer_permutation_proportional():
    base = [[2, -1], [-2, 2]]
    permuted = [[2, -2], [-1, 2]]
    d1 = validate_cartan(base).symmetrizer
    d2 = validate_cartan(permuted).symmetrizer
    # permuting the rows permutes and rescales the symmetrizer
    assert sorted(d1) == sorted(d2)
    assert d1 == tuple(reversed(d2))


def test_bilinear_normalization(a2):
    a1v, a2v = a2.simple_root(0), a2.simple_root(1)
    assert a2.bilinear(a1v, a1v) == 2
    assert a2.bilinear(a1v, a2v) == -1


def test_bilinear_kernel_on_delta(affine_a1):
    delta = (1, 1)
    assert affine_a1.bilinear(delta, delta) == 0
    assert affine_a1.delta() == delta


def test_real_root_detection(a2, affine_a1):
    assert a2.is_real_root((1, 1))
    assert a2.is_real_root((1, 0))
    assert not affine_a1.is_real_root((1, 1))
    assert affine_a1.is_real_root((2, 1))
    assert not a2.is_real_root((2, 0))
    assert not a2.is_real_root((1, -1))
    with pytest.raises(ValueError):
        a2.is_real_root((0, 0))


def test_real_root_norms(a2, b2, affine_a1):
    for datum, bound in ((a2, 6), (b2, 6), (affine_a1, 6)):
        for beta in datum.real_positive_roots(bound):
            assert datum.bilinear(beta, beta) > 0
            assert datum.is_real_root(beta)
    for k in (1, 2, 3):
        kdelta = (k, k)
        assert affine_a1.bilinear(kdelta, kdelta) == 0


def test_coroot_pairings_integral(b2, affine_a1):
    for datum in (b2, affine_a1):
        for beta in datum.real_positive_roots(8):
            for p in datum.coroot_pairings(beta):
                assert isinstance(p, int)
            assert all(type(c) is int for c in datum.coroot_coords(beta))
    # integrality is a guard: (2, 1) is no root of B2
    with pytest.raises(ValueError, match="non-integral coroot coordinates for"):
        b2.coroot_coords((2, 1))
    with pytest.raises(ValueError, match="only for real roots"):
        affine_a1.coroot_coords((1, 1))


def test_height_bound_guard(affine_a1):
    tall = (600, 601)
    with pytest.raises(HeightBoundExceeded):
        affine_a1.is_real_root(tall, height_bound=100)
    assert affine_a1.is_real_root(tall, height_bound=2000)


def test_positive_roots_counts(a2, b2, a3):
    assert len(a2.positive_roots()) == 3
    assert len(b2.positive_roots()) == 4
    assert len(a3.positive_roots()) == 6


def test_positive_roots_needs_finite(affine_a1):
    with pytest.raises(UnsupportedKind):
        affine_a1.positive_roots()


def test_affine_real_roots_forms(affine_a1):
    roots = affine_a1.real_positive_roots(5)
    expected = {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
    assert set(roots) == expected
    assert all(height(r) <= 5 for r in roots)


def test_twisted_affine_rejected_for_roots():
    twisted = validate_cartan([[2, -4], [-1, 2]])
    assert twisted.kind == "affine"
    with pytest.raises(UnsupportedKind):
        twisted.real_positive_roots(5)


@pytest.mark.parametrize(
    "cartan",
    [[[2, 0, 0], [0, 2, -2], [0, -2, 2]], [[2, 0, 0], [0, 2, -1], [0, -4, 2]]],
    ids=["A1+A1^(1)", "A1+A2^(2)"],
)
def test_decomposable_with_affine_component_is_indefinite(cartan):
    # "affine" names indecomposable matrices (Kac, Thm 4.3): A1 plus an
    # affine component has no delta and no untwisted real-root list
    datum = validate_cartan(cartan)
    assert datum.kind == "indefinite"
    assert datum.dual_labels is None
    with pytest.raises(UnsupportedKind, match="finite or untwisted affine"):
        datum.real_positive_roots(4)
    with pytest.raises(UnsupportedKind, match="not an affine datum"):
        datum.imaginary_root_multiplicity()


@pytest.mark.parametrize("name", sorted(UNTWISTED_AFFINE))
def test_untwisted_affine_in_every_node_order(name):
    kac = validate_cartan(UNTWISTED_AFFINE[name])
    n = kac.rank
    kac_roots = kac.real_positive_roots(6)
    for perm in permutations(range(n)):
        datum = validate_cartan(relabelled(kac.cartan, perm))
        assert datum.imaginary_root_multiplicity() == n - 1
        expected = sorted(
            (tuple(beta[p] for p in perm) for beta in kac_roots),
            key=lambda b: (height(b), b),
        )
        assert datum.real_positive_roots(6) == expected


@pytest.mark.parametrize("name", sorted(TWISTED_AFFINE))
def test_twisted_affine_in_every_node_order(name):
    cartan = TWISTED_AFFINE[name]
    for perm in permutations(range(len(cartan))):
        datum = validate_cartan(relabelled(cartan, perm))
        assert datum.kind == "affine"
        with pytest.raises(UnsupportedKind, match="twisted affine datum"):
            datum.real_positive_roots(6)
        with pytest.raises(UnsupportedKind, match="twisted affine datum"):
            datum.imaginary_root_multiplicity()


@given(st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS))
@example(((0, 0), (0, 0), (-2, -2)))
@example(((-3, -1), (0, 0), (-1, -1)))
def test_rank3_root_datum_matches_oracles(pairs):
    (a01, a10), (a02, a20), (a12, a21) = pairs
    cartan = [[2, a01, a02], [a10, 2, a12], [a20, a21, 2]]
    reference = symmetrizer_oracle(cartan)
    if reference is None:
        with pytest.raises(NotSymmetrizable):
            validate_cartan(cartan)
        return
    datum = rank3_datum(pairs)
    assert datum.symmetrizer == reference[0]
    assert datum.kind == kind_oracle(cartan)
    if datum.kind == "affine":
        (labels,) = kernel_over_q([list(col) for col in zip(*cartan)], 3)
        assert datum.dual_labels == tuple(labels)
    else:
        assert datum.dual_labels is None


def _finite_or_untwisted_rank3():
    """The root data of every matrix GCM_PAIRS can draw (each off-diagonal
    pair (0, 0) or both entries in -3..-1) that is finite or untwisted
    affine."""
    values = [(0, 0), *product(range(-3, 0), repeat=2)]
    out = []
    for (a01, a10), (a02, a20), (a12, a21) in product(values, repeat=3):
        try:
            datum = validate_cartan([[2, a01, a02], [a10, 2, a12], [a20, a21, 2]])
        except NotSymmetrizable:
            continue
        if datum.kind == "affine":
            try:
                datum.imaginary_root_multiplicity()
            except UnsupportedKind:
                continue  # twisted
        if datum.kind != "indefinite":
            out.append(datum)
    return out


def test_rank3_real_roots_are_the_real_lattice_vectors():
    data = _finite_or_untwisted_rank3()
    assert len(data) == 41
    vectors = sorted(
        (v for v in product(range(7), repeat=3) if 0 < height(v) <= 6),
        key=lambda b: (height(b), b),
    )
    for datum in data:
        real = [v for v in vectors if datum.is_real_root(v)]
        for h in range(7):
            assert datum.real_positive_roots(h) == [v for v in real if height(v) <= h]


def test_langlands_dual_roundtrip(b2):
    dual = b2.langlands_dual()
    assert dual.cartan == ((2, -2), (-1, 2))
    assert dual.langlands_dual().cartan == b2.cartan


@given(st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS))
def test_rank3_langlands_dual_is_involution(pairs):
    datum = rank3_datum(pairs)
    dual = datum.langlands_dual()
    assert dual.cartan == tuple(zip(*datum.cartan))
    assert dual.kind == datum.kind
    assert dual.langlands_dual() == datum


def test_coroot_coords(b2):
    # long root alpha1 + 2 alpha2 has coroot alpha1^vee + alpha2^vee
    assert b2.coroot_coords((1, 2)) == (1, 1)
    # short root alpha2 has coroot 2(alpha2)/(alpha2,alpha2); d2 = 1
    assert b2.coroot_coords((0, 1)) == (0, 1)


def test_module_caches_are_bounded():
    from kmflag.category_o import _kostant_table
    from kmflag.graded_algebra import linear_quotient
    from kmflag.root_datum import _validate_cached

    for cache in (_kostant_table, linear_quotient, _validate_cached):
        assert cache.cache_info().maxsize is not None, cache.__name__
