import random

import pytest

from kmflag.errors import NotInIdeal, NotRealRoot, SizeLimitExceeded
from kmflag.weyl import (
    BruhatIdeal,
    WeightCoords,
    bruhat_leq,
    dot_action,
    enumerate_ideal,
    format_word,
    from_word,
    full_weyl_group,
    ideal_from_generators,
    identity,
    inverse,
    inversion_set,
    is_reflection,
    multiply,
    parse_word,
    reflection,
    simple_reflection,
    sj_complement,
    stratum_dimension,
)

from oracles import bruhat_closure_oracle


def test_simple_reflection_involution(a2):
    s1 = simple_reflection(a2, 0)
    assert multiply(s1, s1) == identity(a2)


def test_braid_relation(a2):
    assert from_word(a2, [0, 1, 0]) == from_word(a2, [1, 0, 1])


def test_apply_reflection_formula(a2):
    s1 = simple_reflection(a2, 0)
    assert s1.apply((0, 1)) == (1, 1)


def test_lengths(a2, affine_a1):
    assert identity(a2).length() == 0
    assert from_word(a2, [0, 1, 0]).length() == 3
    assert from_word(affine_a1, [0, 1, 0, 1]).length() == 4
    assert from_word(affine_a1, [0, 1, 1, 0]).length() == 0


def test_canonical_word_is_greedy_least(a2):
    w = from_word(a2, [1, 0, 1])
    assert w.reduced_word() == (0, 1, 0)


def test_inverse(a2_group):
    for w in a2_group:
        assert multiply(w, inverse(w)).is_identity()


def test_word_serialization(a2):
    assert format_word(identity(a2)) == "e"
    assert format_word(from_word(a2, [0, 1])) == "1,2"
    assert parse_word(a2, "1,2,1") == from_word(a2, [0, 1, 0])
    assert parse_word(a2, "e").is_identity()
    with pytest.raises(ValueError):
        parse_word(a2, "3")


def test_bruhat_basics(a2):
    e = identity(a2)
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    w = from_word(a2, [0, 1])
    assert bruhat_leq(e, w)
    assert bruhat_leq(s1, w)
    assert not bruhat_leq(s1, s2)


@pytest.mark.parametrize(
    "cartan,max_length",
    [
        ([[2, -1], [-1, 2]], None),  # S3
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], None),  # S4
        ([[2, -1], [-2, 2]], None),  # B2
        ([[2, -2], [-2, 2]], 6),  # affine A1
    ],
)
def test_bruhat_order_matches_covering_closure(cartan, max_length):
    from kmflag.root_datum import validate_cartan

    datum = validate_cartan(cartan)
    ideal = (
        full_weyl_group(datum) if max_length is None else enumerate_ideal(datum, max_length)
    )
    oracle = bruhat_closure_oracle(ideal)
    for y in ideal:
        for x in ideal:
            expected = (y, x) in oracle
            assert bruhat_leq(y, x) == expected, (format_word(y), format_word(x))
            assert ideal.leq(y, x) == expected, (format_word(y), format_word(x))


def test_enumerate_ideal_counts(a2, affine_a1):
    assert len(enumerate_ideal(a2, 0)) == 1
    assert len(enumerate_ideal(a2, 2)) == 5
    assert len(enumerate_ideal(affine_a1, 3)) == 7
    assert len(enumerate_ideal(affine_a1, 6)) == 13


def test_enumerate_ideal_downward_closed(a2, affine_a1):
    for ideal in (enumerate_ideal(a2, 2), enumerate_ideal(affine_a1, 4)):
        assert ideal.is_downward_closed()
        for x in ideal:
            for y in ideal:
                if bruhat_leq(y, x):
                    assert y in ideal


def test_size_limit(affine_a1):
    with pytest.raises(SizeLimitExceeded):
        enumerate_ideal(affine_a1, 100, size_limit=20)


def test_ideal_from_generators(a2):
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    j = ideal_from_generators(a2, [s1, s2])
    assert len(j) == 3 and j.is_downward_closed()
    w0 = from_word(a2, [0, 1, 0])
    assert len(ideal_from_generators(a2, [w0])) == 6


def test_ideal_from_long_generators(affine_a1):
    tops = [from_word(affine_a1, [i, 1 - i] * 12) for i in (0, 1)]
    assert all(g.length() == 24 for g in tops)
    ideal = ideal_from_generators(affine_a1, tops)
    assert len(ideal) == 49
    assert ideal.elements == enumerate_ideal(affine_a1, 24).elements


def test_downward_closed_matches_oracle_on_all_subsets(a2_group):
    elems = a2_group.elements
    oracle = bruhat_closure_oracle(a2_group)
    for mask in range(1 << len(elems)):
        subset = tuple(w for k, w in enumerate(elems) if mask >> k & 1)
        expected = all(y in subset for y, x in oracle if x in subset)
        assert BruhatIdeal(a2_group.datum, subset, "subset").is_downward_closed() == expected


def test_reflection_matches_word(a2):
    r = reflection(a2, (1, 1))
    assert r == from_word(a2, [0, 1, 0])
    assert multiply(r, r).is_identity()
    assert reflection(a2, (1, 0)) == simple_reflection(a2, 0)
    with pytest.raises(NotRealRoot):
        reflection(a2, (2, 0))


def test_is_reflection_recovery(b2, b2_group):
    count = 0
    for t in b2_group:
        beta = is_reflection(t)
        if beta is not None:
            count += 1
            assert reflection(b2, beta) == t
    assert count == len(b2.positive_roots())


def test_inversion_sets(a2, a3):
    assert inversion_set(identity(a2)) == set()
    assert inversion_set(from_word(a2, [0, 1])) == {(1, 0), (1, 1)}
    for w in full_weyl_group(a3):
        assert len(inversion_set(w)) == w.length()


def test_sj_complement(a2, a2_group):
    e = identity(a2)
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    assert sj_complement(ideal_from_generators(a2, [e])) == set()
    assert sj_complement(ideal_from_generators(a2, [s1, s2])) == {(1, 0), (0, 1)}
    assert sj_complement(a2_group) == set(a2.positive_roots())


def test_sj_complement_against_definition(a2, a2_group):
    # finite type: compare with a direct scan of S_J over all positive roots
    positives = set(a2.positive_roots())
    for gens in ([identity(a2)], [simple_reflection(a2, 0)], list(a2_group)[:4]):
        ideal = ideal_from_generators(a2, gens)
        s_j = {
            alpha
            for alpha in positives
            if all(
                all(c >= 0 for c in x.apply_inverse(alpha)) for x in ideal
            )
        }
        assert sj_complement(ideal) == positives - s_j


def test_stratum_dimension_examples(a2, a2_group):
    e = identity(a2)
    s1, s2 = simple_reflection(a2, 0), simple_reflection(a2, 1)
    assert stratum_dimension(e, ideal_from_generators(a2, [e])) == 0
    assert stratum_dimension(s1, ideal_from_generators(a2, [s1, s2])) == 1
    w0 = from_word(a2, [0, 1, 0])
    assert stratum_dimension(w0, a2_group) == 0
    with pytest.raises(NotInIdeal):
        stratum_dimension(w0, ideal_from_generators(a2, [s1]))


def test_stratum_dimension_randomized(a2, affine_a1):
    rng = random.Random(20240811)
    for datum, pool_bound in ((a2, 3), (affine_a1, 5)):
        pool = list(enumerate_ideal(datum, pool_bound))
        for _ in range(10):
            gens = rng.sample(pool, rng.randint(1, 3))
            ideal = ideal_from_generators(datum, gens)
            comp = sj_complement(ideal)
            for x in ideal:
                # the direct count and the complement-minus-length formula
                # are asserted equal inside stratum_dimension
                assert stratum_dimension(x, ideal) == len(comp) - x.length()


def test_dot_action_examples(a1, a2, a2_group):
    lam = WeightCoords.base((-2,))
    s = simple_reflection(a1, 0)
    out = dot_action(s, lam)
    assert out.pairings == (0,)
    assert out.offset == (1,)
    assert dot_action(identity(a2), WeightCoords.base((-2, -3))) == WeightCoords.base(
        (-2, -3)
    )


def test_dot_action_is_group_action(a2_group):
    rng = random.Random(7)
    lam = WeightCoords.base((-2, -3))
    elems = list(a2_group)
    for _ in range(25):
        u, v = rng.choice(elems), rng.choice(elems)
        assert dot_action(u, dot_action(v, lam)) == dot_action(multiply(u, v), lam)


def test_length_subadditive_with_inversion_criterion(a2_group):
    for u in a2_group:
        for v in a2_group:
            uv = multiply(u, v)
            assert uv.length() <= u.length() + v.length()
            # equality iff the inversion sets stack without cancellation
            disjoint = not (inversion_set(inverse(u)) & inversion_set(v))
            assert (uv.length() == u.length() + v.length()) == disjoint
