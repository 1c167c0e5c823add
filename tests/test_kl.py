import random

import pytest

from kmflag.errors import IntervalNotContained, NotInIdeal
from kmflag.kl import KLTable, QPoly
from kmflag.weyl import (
    BruhatIdeal,
    bruhat_leq,
    format_word,
    from_word,
    identity,
    multiply,
    simple_reflection,
)

from oracles import KLOracle


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


@pytest.mark.parametrize("group_fixture", ["a2_group", "b2_group", "a3_group"])
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


def test_inverse_kl_matches_oracle_inversion(a3_group, a3_table):
    oracle = KLOracle(a3_group)
    qmat = oracle.inverse_kl_matrix()
    for x in a3_group:
        for w in a3_group:
            assert a3_table.inverse_kl(x, w) == qmat[(x, w)]


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


def test_descent_choice_independence(a3_group, a3_table):
    rng = random.Random(20240812)
    randomized = KLTable(a3_group, descent_choice=lambda w, ds: rng.choice(ds))
    for y in a3_group:
        for w in a3_group:
            assert randomized.kl_polynomial(y, w) == a3_table.kl_polynomial(y, w)


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
