import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmflag.errors import IntervalNotContained, NotInIdeal, NotRealRoot, SizeLimitExceeded
from kmflag.kl import KLTable
from kmflag.moment_graph import build_moment_graph, covering_relations
from kmflag.root_datum import (
    RootDatum, is_negative_vector, is_positive_vector, validate_cartan,
)
from kmflag.weyl import (
    BruhatIdeal,
    WeightCoords,
    WeylElement,
    _left_step,
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

from conftest import GCM_PAIRS, rank3_datum
from oracles import (
    apply_inverse_ref,
    bruhat_closure_oracle,
    column_ref,
    coroot_pairings_ref,
    ideal_oracle,
    is_negative_vector_ref,
    is_positive_vector_ref,
    left_step_ref,
    lower_reflections_oracle,
    reflect_simple_ref,
    word_oracle,
)


def test_simple_reflection_involution(a2):
    s1 = simple_reflection(a2, 0)
    assert multiply(s1, s1) == identity(a2)


def test_braid_relation(a2):
    assert from_word(a2, [0, 1, 0]) == from_word(a2, [1, 0, 1])


@given(
    st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS),
    st.lists(st.integers(0, 2), max_size=8),
)
def test_from_word_matches_matrix_products(pairs, word):
    datum = rank3_datum(pairs)
    product = identity(datum)
    forward = [[int(r == c) for c in range(3)] for r in range(3)]
    for i in word:
        product = multiply(product, simple_reflection(datum, i))
        # right multiplication by s_i on the forward matrix of w
        s = simple_reflection(datum, i).inv_matrix
        forward = [
            [sum(row[k] * s[k][c] for k in range(3)) for c in range(3)] for row in forward
        ]
    w = from_word(datum, word)
    assert w.inv_matrix == product.inv_matrix
    for j in range(3):
        assert w.apply(datum.simple_root(j)) == tuple(row[j] for row in forward)
    assert multiply(w, inverse(w)).is_identity()


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
        assert len(ideal.below) == len(ideal)  # raises unless closed
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
    assert len(j) == 3 and j.below == [0b1, 0b11, 0b101]
    w0 = from_word(a2, [0, 1, 0])
    assert len(ideal_from_generators(a2, [w0])) == 6


def test_ideal_from_long_generators(affine_a1):
    tops = [from_word(affine_a1, [i, 1 - i] * 12) for i in (0, 1)]
    assert all(g.length() == 24 for g in tops)
    ideal = ideal_from_generators(affine_a1, tops)
    assert len(ideal) == 49
    assert ideal.elements == enumerate_ideal(affine_a1, 24).elements


def test_downward_closed_matches_oracle_on_all_subsets(a2_group):
    # the oracle splits the 64 subsets of A2: a closed subset's table is the
    # oracle's, and every reader of any other subset's table raises
    datum, elems = a2_group.datum, a2_group.elements
    oracle = bruhat_closure_oracle(a2_group)
    closed = 0
    for mask in range(1 << len(elems)):
        subset = tuple(w for k, w in enumerate(elems) if mask >> k & 1)
        ideal = BruhatIdeal(datum, subset, "subset")
        if all(y in subset for y, x in oracle if x in subset):
            closed += 1
            for w in subset:
                assert ideal.lower_reflections(w) == lower_reflections_oracle(w)
            roots = {b for w in subset for b, _ in lower_reflections_oracle(w)}
            assert ideal.sj_complement == roots
            continue
        w = subset[-1]
        readers = [
            lambda: ideal.below,
            lambda: ideal.leq(subset[0], w),
            lambda: ideal.left,
            lambda: ideal.lower_reflections(w),
            lambda: ideal.sj_complement,
            lambda: sj_complement(ideal),
            lambda: build_moment_graph(datum, ideal),
            lambda: covering_relations(ideal),
            lambda: stratum_dimension(w, ideal),
            lambda: KLTable(ideal),
        ]
        for read in readers:
            with pytest.raises(IntervalNotContained, match="subset is not downward closed"):
                read()
    assert closed == 9  # the order ideals of the Bruhat order of S3


def _check_tables(ideal):
    """The reflection table, `left`, `below` and sj_complement of a
    downward-closed ideal against the matrix-product oracles."""
    datum = ideal.datum
    below = {}  # Bruhat lower sets, closed under the oracle's lower pairs
    comp = set()
    for k, w in enumerate(ideal):
        pairs = lower_reflections_oracle(w)
        comp |= {beta for beta, _ in pairs}
        expected = [(beta, ideal.position(y)) for beta, y in pairs]
        assert list(ideal._lower[k]) == expected, format_word(w)
        for i in range(datum.rank):
            sw = multiply(simple_reflection(datum, i), w)
            assert ideal.left[k][i] == (ideal.position(sw) if sw in ideal else None)
        below[w] = {w}.union(*(below[y] for _, y in pairs))
        bits = sum(1 << j for j, y in enumerate(ideal) if y in below[w])
        assert ideal.below[k] == bits, format_word(w)
    assert ideal.sj_complement == comp


@given(
    st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS),
    st.lists(st.integers(0, 2), max_size=6),
)
def test_rank3_ideal_tables_match_oracle(pairs, word):
    # words, reflection table, neighbours, bitsets and inversion sets of the
    # left-step path against the matrix-product oracles, on the ideal of
    # length <= 4 and on the downward closure of one drawn element
    datum = rank3_datum(pairs)
    ideal = enumerate_ideal(datum, 4)
    assert set(ideal) == ideal_oracle(datum, 4)
    for w in ideal:
        assert w.reduced_word() == word_oracle(w)
        assert inversion_set(w) == {beta for beta, _ in lower_reflections_oracle(w)}
    _check_tables(ideal)
    _check_tables(ideal_from_generators(datum, [from_word(datum, word)]))


@pytest.mark.parametrize(
    "cartan, bound",
    [
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 6),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], 9),
        ([[2, -2], [-2, 2]], 8),
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 5),
    ],
    ids=["a3", "b3", "affine_a1", "hyperbolic"],
)
def test_ideal_tables_match_oracle(cartan, bound):
    # deeper enumerate_ideal ideals (all of A3 and B3), and the downward
    # closures of sampled elements, the path that `characters` takes
    datum = validate_cartan(cartan)
    ideal = enumerate_ideal(datum, bound)
    _check_tables(ideal)
    rng = random.Random(bound)
    for size in (1, 1, 2, 3):
        gens = rng.sample(ideal.elements, size)
        _check_tables(ideal_from_generators(datum, gens))


def test_tables_hash_no_element(monkeypatch):
    # the ideal, its reflection table, left and below are built by position
    # and by word, and elements are looked up by word: no Weyl element is
    # hashed
    calls = []
    true_hash = WeylElement.__hash__
    monkeypatch.setattr(WeylElement, "__hash__", lambda w: calls.append(w) or true_hash(w))
    datum = validate_cartan(
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    )
    ideal = enumerate_ideal(datum, 10)
    assert len(ideal._lower) == len(ideal.left) == len(ideal.below) == 120
    # also for an element parsed afresh and one over an equal, distinct datum
    twin = RootDatum(datum.cartan, datum.symmetrizer, datum.kind, datum.dual_labels)
    lookups = list(ideal.elements)
    lookups += [parse_word(datum, "4,3,2,1,4"), from_word(twin, (0, 1, 2, 3, 0))]
    for w in lookups:
        assert w in ideal and ideal.elements[ideal.position(w)] == w
    small = enumerate_ideal(datum, 3)
    assert ideal.elements[-1] not in small
    with pytest.raises(NotInIdeal):
        small.position(ideal.elements[-1])
    for other in ("1,2", None, ideal.elements[-1].inv_matrix, small):
        assert other not in ideal
    assert calls == []


@pytest.mark.parametrize(
    "group_fixture, table_fixture",
    [("a3_group", "a3_table"), ("affine_a1_ideal6", "affine_a1_table")],
)
def test_ideal_tables_from_shuffled_elements(group_fixture, table_fixture, request):
    group = request.getfixturevalue(group_fixture)
    table = request.getfixturevalue(table_fixture)
    datum = group.datum
    shuffled = random.Random(11).sample(group.elements, len(group))
    for order in (group.elements[::-1], tuple(shuffled)):
        ideal = BruhatIdeal(datum, order, "shuffled")
        keys = [(w.length(), w.reduced_word()) for w in ideal.elements]
        assert keys == sorted(keys) and ideal.elements == group.elements
        for k, w in enumerate(ideal.elements):
            for i in range(datum.rank):
                sw = multiply(simple_reflection(datum, i), w)
                expected = ideal.position(sw) if sw in ideal else None
                assert ideal.left[k][i] == expected, (format_word(w), i)
        fresh = KLTable(ideal)
        for y in ideal:
            for w in ideal:
                assert ideal.leq(y, w) == bruhat_leq(y, w)
                assert fresh.kl_polynomial(y, w) == table.kl_polynomial(y, w)
                assert fresh.inverse_kl(y, w) == table.inverse_kl(y, w)


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


def test_equal_root_data_give_equal_elements(a2):
    # the validation cache is bounded, so one matrix may be validated into
    # two distinct but equal data; their elements must still agree
    twin = RootDatum(a2.cartan, a2.symmetrizer, a2.kind, a2.dual_labels)
    assert twin is not a2
    u, v = from_word(a2, [0, 1]), from_word(twin, [0, 1])
    assert u == v and hash(u) == hash(v)
    assert multiply(u, from_word(twin, [0])) == from_word(a2, [0, 1, 0])
    assert bruhat_leq(from_word(twin, [0]), u)


def _check_vector_kernels(datum, beta):
    assert is_positive_vector(beta) == is_positive_vector_ref(beta)
    assert is_negative_vector(beta) == is_negative_vector_ref(beta)
    assert datum.coroot_pairings(beta) == coroot_pairings_ref(datum, beta)
    for i in range(datum.rank):
        assert datum.reflect_simple(i, beta) == reflect_simple_ref(datum, i, beta)


@given(
    st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    st.lists(st.integers(0, 2), max_size=8),
)
def test_vector_kernels_match_generator_references(pairs, beta, word):
    # the builtin kernels (min/max, map(mul), comprehensions) against their
    # first definitions, on random integer vectors and random elements
    datum = rank3_datum(pairs)
    _check_vector_kernels(datum, tuple(beta))
    _check_vector_kernels(datum, beta)
    w = from_word(datum, word)
    assert w.apply_inverse(beta) == apply_inverse_ref(w, beta)
    for i in range(3):
        assert _left_step(w, i).inv_matrix == left_step_ref(w, i).inv_matrix


@pytest.mark.parametrize(
    "cartan, bound",
    [
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], None),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], None),
        ([[2, -2], [-2, 2]], 6),
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 4),
    ],
    ids=["a3", "b3", "affine_a1", "hyperbolic"],
)
def test_vector_kernels_on_every_element(cartan, bound):
    datum = validate_cartan(cartan)
    ideal = full_weyl_group(datum) if bound is None else enumerate_ideal(datum, bound)
    rank = datum.rank
    probes = [datum.simple_root(i) for i in range(rank)] + [(1,) * rank, (0,) * rank]
    for w in ideal:
        for i in range(rank):
            assert w._column(i) == column_ref(w, i)
            _check_vector_kernels(datum, w._column(i))
            assert _left_step(w, i).inv_matrix == left_step_ref(w, i).inv_matrix
        for beta in probes:
            assert w.apply_inverse(beta) == apply_inverse_ref(w, beta)
