from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmflag.category_o import (
    BlockSpec,
    SheafTable,
    antidominant_block,
    classify_weight,
    irreducible_character,
    jh_multiplicity,
    kostant_partition,
    projective_verma_multiplicity,
    verma_character,
)
from kmflag.errors import PredicateViolation, UnsupportedKind
from kmflag.kl import KLTable
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import height, validate_cartan
from kmflag.weyl import (
    bruhat_leq,
    enumerate_ideal,
    from_word,
    full_weyl_group,
    identity,
    simple_reflection,
)

from conftest import A2, AFFINE_A1, B2
from oracles import brute_kostant


def test_classify_a1():
    a1 = validate_cartan([[2]])
    spec = classify_weight(a1, (-2,))
    assert (spec.integral, spec.regular, spec.antidominant, spec.noncritical) == (
        True,
        True,
        True,
        True,
    )
    assert not classify_weight(a1, (-1,)).regular
    assert not classify_weight(a1, (0,)).antidominant
    assert classify_weight(a1, (Fraction(-1, 2),)).antidominant
    assert not classify_weight(a1, (Fraction(-1, 2),)).integral


def test_classify_affine(affine_a1):
    spec = classify_weight(affine_a1, (-2, -2))
    assert spec.noncritical and spec.antidominant and spec.integral
    critical = classify_weight(affine_a1, (-1, -1))
    assert critical.noncritical is False


def test_classify_regular_needs_full_root_test(a2):
    # p + 1 = (1, -1) pairs to zero on alpha1 + alpha2
    spec = classify_weight(a2, (0, -2))
    assert not spec.regular


def test_classify_affine_stabilizer_scan(affine_a1, affine_a1_ideal6):
    # p + 1 = (-4, 2): the real root with coroot alpha1^vee + delta^vee
    # fixes lambda + rho even though no simple pairing vanishes
    spec = classify_weight(affine_a1, (-5, 1), affine_a1_ideal6)
    assert not spec.regular
    assert classify_weight(affine_a1, (-5, 1)).regular  # pairing test alone misses it


def test_classify_indefinite_noncritical_undecided():
    indef = validate_cartan([[2, -3], [-3, 2]])
    assert classify_weight(indef, (-2, -2)).noncritical is None


#: A1, A2, B2, affine A1 and a rank-3 hyperbolic datum
CLASSIFY_CARTANS = ([[2]], A2, B2, AFFINE_A1, [[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
#: ints, the same values as Fractions, and the halves
PAIRING = st.one_of(
    st.integers(-3, 2),
    st.integers(-3, 2).map(Fraction),
    st.sampled_from((Fraction(-1, 2), Fraction(1, 2))),
)


@lru_cache(maxsize=None)
def _classify_case(k):
    """The k-th datum of CLASSIFY_CARTANS with an ideal for the stabilizer
    scan: the whole group in finite type, length <= 3 otherwise."""
    datum = validate_cartan(CLASSIFY_CARTANS[k])
    ideal = full_weyl_group(datum) if datum.kind == "finite" else enumerate_ideal(datum, 3)
    return datum, ideal


@given(st.data())
def test_classify_reads_pairings_as_given(data):
    # the reference converts every pairing with Fraction first
    datum, ideal = _classify_case(data.draw(st.integers(0, len(CLASSIFY_CARTANS) - 1)))
    pairings = tuple(data.draw(st.lists(PAIRING, min_size=datum.rank, max_size=datum.rank)))
    exact = tuple(Fraction(x) for x in pairings)
    for scan in (None, ideal):
        spec = classify_weight(datum, pairings, scan)
        assert spec == classify_weight(datum, exact, scan), pairings
        assert spec.integral == all(x.denominator == 1 for x in exact)
        assert spec.antidominant == all(x.denominator != 1 or x < 0 for x in exact)


@pytest.mark.parametrize("bad", [-2.0, "-2", Decimal(-2)], ids=["float", "str", "decimal"])
def test_classify_rejects_inexact_pairings(a2, bad):
    with pytest.raises(ValueError, match="exact rationals"):
        classify_weight(a2, (bad, -2))


def test_kostant_examples(a1, a2, affine_a1):
    assert kostant_partition(a2, (0, 0), 5) == 1
    assert kostant_partition(a2, (1, 1), 5) == 2
    for k in range(6):
        assert kostant_partition(a1, (k,), 8) == 1
    with pytest.raises(ValueError):
        kostant_partition(a2, (5, 5), 4)
    indef = validate_cartan([[2, -3], [-3, 2]])
    with pytest.raises(UnsupportedKind):
        kostant_partition(indef, (1, 1), 4)


def test_kostant_brute_force_a2(a2):
    roots = [(r, 1) for r in a2.positive_roots()]
    for h in range(9):
        for first in range(h + 1):
            beta = (first, h - first)
            assert kostant_partition(a2, beta, 8) == brute_kostant(a2, beta, roots)


def test_kostant_affine_with_imaginary_multiplicity(affine_a1):
    reals = [(r, 1) for r in affine_a1.real_positive_roots(6)]
    mult = affine_a1.imaginary_root_multiplicity()
    delta = affine_a1.delta()
    weighted = reals + [
        (tuple(k * c for c in delta), mult) for k in (1, 2, 3)
    ]
    for h in range(7):
        for first in range(h + 1):
            beta = (first, h - first)
            assert kostant_partition(affine_a1, beta, 6) == brute_kostant(
                affine_a1, beta, weighted
            )


def test_verma_character(a1, a2, a1_group):
    blk = antidominant_block(a1, a1_group)
    s = simple_reflection(a1, 0)
    ch = verma_character(blk, s, 6)
    assert ch.coefficient((0,)) == 1
    for k in range(7):
        assert ch.coefficient((-k,)) == 1
    blk2 = antidominant_block(a2)
    ch2 = verma_character(blk2, identity(a2), 6)
    assert ch2.coefficient((-1, -1)) == 2


def test_irreducible_character_sl2_block(a1, a1_group):
    blk = antidominant_block(a1, a1_group)
    table = KLTable(a1_group)
    s = simple_reflection(a1, 0)
    ch = irreducible_character(blk, s, 20, table)
    assert ch.coeffs == {(0,): 1}
    che = irreducible_character(blk, identity(a1), 20, table)
    verma = verma_character(blk, identity(a1), 20)
    assert che.coeffs == verma.coeffs


def test_irreducible_characters_nonnegative(a2, a2_group, b2, b2_group):
    for datum, group in ((a2, a2_group), (b2, b2_group)):
        blk = antidominant_block(datum, group)
        table = KLTable(group)
        for w in group:
            ch = irreducible_character(blk, w, 10, table)
            assert all(v >= 0 for v in ch.coeffs.values())
            assert ch.coefficient((0,) * datum.rank) == 1
            for off in ch.coeffs:
                assert height(tuple(-c for c in off)) <= 10


def test_irreducible_character_predicates(a2, a2_group):
    table = KLTable(a2_group)
    singular = classify_weight(a2, (-1, -2))
    with pytest.raises(PredicateViolation):
        irreducible_character(singular, identity(a2), 4, table)


def test_jh_multiplicity_conventions(a2, a2_group, a2_table):
    blk = antidominant_block(a2, a2_group)
    e = identity(a2)
    w0 = from_word(a2, [0, 1, 0])
    s1 = simple_reflection(a2, 0)
    s2 = simple_reflection(a2, 1)
    assert jh_multiplicity(blk, e, e, a2_table) == 1
    # the antidominant Verma is irreducible: only L(e) occurs in it
    assert jh_multiplicity(blk, e, w0, a2_table) == 0
    # every simple occurs once in the big Verma of this block
    assert jh_multiplicity(blk, w0, e, a2_table) == 1
    assert jh_multiplicity(blk, s1, s2, a2_table) == 0


def test_jh_multiplicity_predicates(a2, a2_group, a2_table):
    # [Delta(w0.lam) : L(lam)] is an inverse KL value at 1 only on a
    # regular antidominant block; the singular block (-1, -2) and the
    # dominant block (1, 2) are refused
    e = identity(a2)
    w0 = from_word(a2, [0, 1, 0])
    for pairings in ((-1, -2), (1, 2)):
        block = classify_weight(a2, pairings, a2_group)
        with pytest.raises(PredicateViolation):
            jh_multiplicity(block, w0, e, a2_table)


def test_jh_matches_character_count(a1, a1_group):
    # in the sl2 block: ch Delta(s.lam) = ch L(s.lam) + ch L(e.lam) exactly
    blk = antidominant_block(a1, a1_group)
    table = KLTable(a1_group)
    s = simple_reflection(a1, 0)
    e = identity(a1)
    depth = 12
    verma = verma_character(blk, s, depth)
    total = {}
    for y in (e, s):
        mult = jh_multiplicity(blk, s, y, table)
        ch = irreducible_character(blk, y, depth, table)
        gap = tuple(a - b for a, b in zip(ch.base.offset, verma.base.offset))
        for off, v in ch.coeffs.items():
            key = tuple(o + g for o, g in zip(off, gap))
            if height(tuple(-c for c in key)) > depth:
                continue
            total[key] = total.get(key, 0) + mult * v
    assert total == verma.coeffs


def test_affine_block_characters(affine_a1, affine_a1_ideal6, affine_a1_table):
    blk = antidominant_block(affine_a1, affine_a1_ideal6)
    assert blk.noncritical
    depth = 8
    x = from_word(affine_a1, [0, 1])
    verma = verma_character(blk, x, depth)
    # Jordan-Holder decomposition recomposes the Verma character exactly
    total = {}
    for y in affine_a1_ideal6:
        if not bruhat_leq(y, x):
            continue
        mult = jh_multiplicity(blk, x, y, affine_a1_table)
        ch = irreducible_character(blk, y, depth, affine_a1_table)
        gap = tuple(a - b for a, b in zip(ch.base.offset, verma.base.offset))
        for off, v in ch.coeffs.items():
            key = tuple(o + g for o, g in zip(off, gap))
            if height(tuple(-c for c in key)) > depth:
                continue
            total[key] = total.get(key, 0) + mult * v
    assert total == verma.coeffs


@pytest.mark.parametrize("cartan", [[[2, -1], [-1, 2]], [[2, -1], [-2, 2]]])
def test_bgg_reciprocity_exact(cartan):
    datum = validate_cartan(cartan)
    group = full_weyl_group(datum)
    table = KLTable(group)
    blk = antidominant_block(datum, group)
    sheaves = SheafTable(build_moment_graph(datum, group, dual=True))
    for w in group:
        for x in group:
            value = projective_verma_multiplicity(blk, w, x, sheaves, table)
            assert value == jh_multiplicity(blk, x, w, table)
            assert value == table.inverse_kl(w, x)(1)
            if not bruhat_leq(w, x):
                assert value == 0


def test_bgg_reciprocity_affine_c2():
    # affine C2, where mu >= 2 first changes P and Q at l = 9; at l <= 6 the
    # table of all projective multiplicities takes about a second
    datum = validate_cartan([[2, -1, 0], [-2, 2, -2], [0, -1, 2]])
    ideal = enumerate_ideal(datum, 6)
    table = KLTable(ideal)
    blk = antidominant_block(datum, ideal)
    sheaves = SheafTable(build_moment_graph(datum, ideal, dual=True))
    for w in ideal:
        for x in ideal:
            value = projective_verma_multiplicity(blk, w, x, sheaves, table)
            assert value == table.inverse_kl(w, x)(1)


def test_projective_multiplicity_predicates(a2, a2_group, a2_table):
    sheaves = SheafTable(build_moment_graph(a2, a2_group, dual=True))
    e = identity(a2)
    s1 = simple_reflection(a2, 0)
    good = antidominant_block(a2, a2_group)
    for block in (
        classify_weight(a2, (0, 0), a2_group),
        classify_weight(a2, (-1, -2), a2_group),
        classify_weight(a2, (Fraction(-1, 2), -2), a2_group),
        BlockSpec(good.datum, good.pairings, good.integral, good.regular,
                  good.antidominant, False),
    ):
        with pytest.raises(PredicateViolation):
            projective_verma_multiplicity(block, e, s1, sheaves, a2_table)
    # indefinite data leaves noncritical undecided, which is accepted
    indef = validate_cartan([[2, -3], [-3, 2]])
    ideal = enumerate_ideal(indef, 2)
    block = classify_weight(indef, (-2, -2), ideal)
    assert block.noncritical is None
    indef_sheaves = SheafTable(build_moment_graph(indef, ideal, dual=True))
    base = identity(indef)
    value = projective_verma_multiplicity(block, base, base, indef_sheaves, KLTable(ideal))
    assert value == 1


def test_projective_diagonal_is_one(a2, a2_group, a2_table):
    blk = antidominant_block(a2, a2_group)
    sheaves = SheafTable(build_moment_graph(a2, a2_group, dual=True))
    for w in a2_group:
        assert projective_verma_multiplicity(blk, w, w, sheaves, a2_table) == 1
