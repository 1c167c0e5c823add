import hashlib

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kmflag.errors import IntervalNotContained, NotInIdeal, NotSymmetrizable
from kmflag.kl import KLTable, QPoly
from kmflag.root_datum import validate_cartan
from kmflag.weyl import (
    BruhatIdeal,
    bruhat_leq,
    enumerate_ideal,
    format_word,
    from_word,
    identity,
    multiply,
    parse_word,
    simple_reflection,
)

from conftest import GCM_PAIRS as PAIRS
from oracles import KLOracle, back_substitution_q

HYPERBOLIC3 = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
# rank-3 hyperbolic whose P has pairs with mu = 2 from l = 5 on
HYPERBOLIC_MU2 = [[2, -1, -1], [-1, 2, -2], [-1, -2, 2]]
# its Q columns at l <= 10 where a mu = 2 term of the Hecke product changes
# an entry (setting every mu to 1 there changes one entry in each)
HYPERBOLIC_MU2_COLUMNS = (
    "2,1,3,2,3,1,2,1,3,1", "2,3,1,2,3,1,2,1,3,1",
    "3,1,2,3,2,1,3,1,2,1", "3,2,1,3,2,1,3,1,2,1",
)
AFFINE_C2 = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
# sha256 of every "y w P Q" line of affine C2 (l <= 9), y <= w by position;
# KLOracle agreed with the table on all 14,641 pairs when it was pinned
AFFINE_C2_DIGEST = "b778c271d76fa3dbf298b63e6ba825f9aa3fe1b46e47bbf77f6ef328caee6ab3"


@pytest.fixture(scope="module")
def hyperbolic3_ideal4():
    return enumerate_ideal(validate_cartan(HYPERBOLIC3), 4)


def test_qpoly_arithmetic():
    p = QPoly((1, 1))
    q = QPoly((0, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p - p) == QPoly()
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert p(1) == 2 and p(2) == 3
    assert p.text() == "1+q"
    assert QPoly((1, 0, 3)).text() == "1+3q^2"
    assert QPoly().text() == "0"
    assert QPoly((0, -1, 1)).text() == "-q+q^2"
    # a constant hashes as the int it equals
    assert 1 in {QPoly((1,))} and QPoly((1,)) in {1}
    assert 0 in {QPoly()} and hash(QPoly((-3,))) == hash(-3)


def test_diagonal_and_triangularity(a2_group, a2_table):
    for y in a2_group:
        for w in a2_group:
            p = a2_table.kl_polynomial(y, w)
            if y == w:
                assert p == QPoly((1,))
            elif not bruhat_leq(y, w):
                assert p == QPoly()


def test_a2_all_polynomials_trivial(a2_group, a2_table):
    for y in a2_group:
        for w in a2_group:
            if bruhat_leq(y, w):
                assert a2_table.kl_polynomial(y, w) == QPoly((1,))
                assert a2_table.inverse_kl(y, w) == QPoly((1,))


def test_s4_known_nontrivial_entry(a3, a3_table, a3_group):
    y = from_word(a3, [1])
    w = from_word(a3, [1, 0, 2, 1])
    oracle = KLOracle(a3_group)
    expected = oracle.kl_poly(y, w)
    assert a3_table.kl_polynomial(y, w) == expected
    assert expected == QPoly((1, 1))
    assert a3_table.mu_coefficient(y, w) == 1


def test_mu_trivial_cases(a2, a2_table):
    e = identity(a2)
    s1 = simple_reflection(a2, 0)
    assert a2_table.mu_coefficient(s1, s1) == 0
    assert a2_table.mu_coefficient(e, s1) == 1


# the truncated ideals hold elements y whose s*y leaves the set
@pytest.mark.parametrize(
    "group_fixture",
    ["a2_group", "b2_group", "a3_group", "affine_a1_ideal6", "hyperbolic3_ideal4"],
)
def test_kl_matches_r_polynomial_oracle(group_fixture, request):
    group = request.getfixturevalue(group_fixture)
    table = KLTable(group)
    oracle = KLOracle(group)
    for y in group:
        for w in group:
            assert table.kl_polynomial(y, w) == oracle.kl_poly(y, w), (
                format_word(y),
                format_word(w),
            )


@given(st.tuples(PAIRS, PAIRS, PAIRS))
def test_rank3_kl_matches_oracle(pairs):
    (a01, a10), (a02, a20), (a12, a21) = pairs
    try:
        datum = validate_cartan([[2, a01, a02], [a10, 2, a12], [a20, a21, 2]])
    except NotSymmetrizable:
        assume(False)
    ideal = enumerate_ideal(datum, 3)
    table = KLTable(ideal)
    oracle = KLOracle(ideal)
    for x in ideal:
        for w in ideal:
            p = table.kl_polynomial(x, w)
            assert p == oracle.kl_poly(x, w), (format_word(x), format_word(w))
            if x != w and ideal.leq(x, w):
                bound = (w.length() - x.length() - 1) // 2
                for poly in (p, table.inverse_kl(x, w)):
                    assert poly.degree <= bound
                    assert all(c >= 0 for c in poly.coeffs)
            acc = QPoly()
            for y in ideal:
                if ideal.leq(x, y) and ideal.leq(y, w):
                    term = table.kl_polynomial(x, y) * table.inverse_kl(y, w)
                    odd = (y.length() - x.length()) % 2
                    acc = acc - term if odd else acc + term
            assert acc == (QPoly((1,)) if x == w else QPoly())


def test_inverse_kl_matches_oracle_inversion(request):
    for name in ("b2_group", "a3_group", "affine_a1_ideal6", "hyperbolic3_ideal4"):
        group = request.getfixturevalue(name)
        table = KLTable(group)
        qmat = KLOracle(group).inverse_kl_matrix()
        for x in group:
            for w in group:
                assert table.inverse_kl(x, w) == qmat[(x, w)], (
                    name, format_word(x), format_word(w)
                )


@pytest.mark.parametrize(
    "cartan, max_length",
    [
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 9),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 5),
        (HYPERBOLIC3, 6),
        (HYPERBOLIC_MU2, 10),
    ],
    ids=["b3", "affine_a2", "hyperbolic3", "hyperbolic_mu2"],
)
def test_inverse_kl_columns_match_back_substitution(cartan, max_length):
    # Q by columns against the sum over whole intervals, on the same P; the
    # 748 elements of the mu = 2 case are too many for every column
    datum = validate_cartan(cartan)
    ideal = enumerate_ideal(datum, max_length)
    columns = None
    if cartan is HYPERBOLIC_MU2:
        columns = [ideal.position(parse_word(datum, w)) for w in HYPERBOLIC_MU2_COLUMNS]
    table = KLTable(ideal)
    expected = back_substitution_q(KLTable(ideal), columns)
    for (x, w), q in expected.items():
        assert table._inv(x, w) == q, (x, w)


def test_affine_c2_reads_mu_above_one():
    # the smallest input found where mu >= 2 changes P and Q: with every mu
    # set to 1, P breaks the degree bound and Q gets a negative coefficient
    ideal = enumerate_ideal(validate_cartan(AFFINE_C2), 9)
    table = KLTable(ideal)
    els, below = ideal.elements, ideal.below
    assert len(els) == 121
    mus = [m for v in range(len(els)) for _, m, _ in table._mu_list(v)]
    assert sum(m >= 2 for m in mus) == 17 and max(mus) == 3
    h = hashlib.sha256()
    for w in range(len(els)):
        for y in range(len(els)):
            if below[w] >> y & 1:
                h.update(
                    f"{format_word(els[y])} {format_word(els[w])} "
                    f"{table._kl(y, w).coeffs} {table._inv(y, w).coeffs}\n".encode()
                )
    assert h.hexdigest() == AFFINE_C2_DIGEST


def test_inverse_kl_longest_element_duality(a3_group, a3_table):
    # classical inversion: Q_{x,w} = P_{w0 w, w0 x} in a finite Weyl group
    w0 = max(a3_group.elements, key=lambda u: u.length())
    for x in a3_group:
        for w in a3_group:
            assert a3_table.inverse_kl(x, w) == a3_table.kl_polynomial(
                multiply(w0, w), multiply(w0, x)
            )


def test_inversion_identity_exact(b2_group, b2_table):
    for x in b2_group:
        for w in b2_group:
            acc = QPoly()
            for y in b2_group:
                if bruhat_leq(x, y) and bruhat_leq(y, w):
                    term = b2_table.kl_polynomial(x, y) * b2_table.inverse_kl(y, w)
                    acc = acc + term if (y.length() - x.length()) % 2 == 0 else acc - term
            assert acc == (QPoly((1,)) if x == w else QPoly())


def test_degree_bounds_and_positivity(a3_group, a3_table, affine_a1_ideal6, affine_a1_table):
    for group, table in ((a3_group, a3_table), (affine_a1_ideal6, affine_a1_table)):
        for x in group:
            for w in group:
                if not bruhat_leq(x, w) or x == w:
                    continue
                bound = (w.length() - x.length() - 1) // 2
                for poly in (table.kl_polynomial(x, w), table.inverse_kl(x, w)):
                    assert poly.degree <= bound
                    assert all(c >= 0 for c in poly.coeffs)


def test_affine_a1_all_trivial(affine_a1_ideal6, affine_a1_table):
    for x in affine_a1_ideal6:
        for w in affine_a1_ideal6:
            if bruhat_leq(x, w):
                assert affine_a1_table.kl_polynomial(x, w) == QPoly((1,))
                assert affine_a1_table.inverse_kl(x, w) == QPoly((1,))


def test_not_in_ideal(a2, a2_table):
    from kmflag.weyl import enumerate_ideal

    small = KLTable(enumerate_ideal(a2, 1))
    w0 = from_word(a2, [0, 1, 0])
    with pytest.raises(NotInIdeal, match="element 1,2,1 not in the ideal"):
        small.kl_polynomial(identity(a2), w0)


def test_table_requires_downward_closed(a2):
    w0 = from_word(a2, [0, 1, 0])
    broken = BruhatIdeal(a2, (identity(a2), w0), "manual")
    with pytest.raises(IntervalNotContained):
        KLTable(broken)
    with pytest.raises(IntervalNotContained):
        broken.leq(identity(a2), w0)
