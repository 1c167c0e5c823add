import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmflag.errors import CapBoundaryGenerator, DegreeCapExceeded, DegreeMismatch
from kmflag.graded_algebra import (
    CyclicPiece,
    GradedModuleRep,
    ModuleAmbient,
    linear_quotient,
    minimal_generators,
    monomial_multiples,
)
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import validate_cartan
from kmflag.weyl import enumerate_ideal, full_weyl_group

from conftest import GCM_PAIRS, rank3_datum
from oracles import (
    SPoly,
    degree_basis,
    divide_by_linear,
    reduce_mod_linear,
    spoly_vector,
    t_basis,
)


def x(i, n=2):
    return SPoly.variable(n, i)


def test_spoly_basics():
    p = x(0) * x(0) + 2 * x(1)
    assert not p.is_homogeneous()
    assert (x(0) * x(1)).s_degree() == 4
    assert (p - p).is_zero()
    assert SPoly.linear((1, -1)) == x(0) - x(1)


def test_reduce_mod_linear_contract():
    alpha = x(0) - x(1)
    assert reduce_mod_linear(alpha, alpha).is_zero()
    assert reduce_mod_linear(x(0) * x(0) + x(0) * x(1), x(0)).is_zero()
    assert reduce_mod_linear(x(0) * x(1), alpha) == x(1) * x(1)
    with pytest.raises(ValueError):
        reduce_mod_linear(x(0), SPoly.zero(2))
    with pytest.raises(ValueError):
        divide_by_linear(x(0), SPoly.zero(2))
    with pytest.raises(ValueError):
        reduce_mod_linear(x(0), x(0) * x(1))


def test_reduction_is_congruent_mod_alpha():
    rng = random.Random(3)
    for _ in range(20):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
            for _ in range(4)
        }
        p = SPoly(2, terms)
        alpha = SPoly.linear((rng.randint(1, 3), rng.randint(-3, 3)))
        red = reduce_mod_linear(p, alpha)
        quot, rem = divide_by_linear(p - red, alpha)
        assert rem.is_zero()
        assert quot * alpha + red == p


def _module(amb, gens, cap):
    """The submodule generated by (degree, SPoly tuple) pairs."""
    return GradedModuleRep(
        amb, tuple((d, spoly_vector(amb, g, d)) for d, g in gens), cap
    )


def test_degree_basis_dimensions():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    unit = (SPoly.constant(2, 1),)
    m = _module(free, [(0, unit)], 10)
    assert degree_basis(m, 0) == [[1]]
    assert len(degree_basis(m, 2)) == 2
    quot = ModuleAmbient(2, [CyclicPiece(0, (1, 0))])
    mq = _module(quot, [(0, unit)], 10)
    assert len(degree_basis(mq, 2)) == 1
    with pytest.raises(DegreeCapExceeded):
        degree_basis(m, 12)


def test_minimal_generators_contract_examples():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    unit = (SPoly.constant(2, 1),)
    assert minimal_generators(_module(free, [(0, unit)], 10)) == ((0,), [(0, [1])])

    mixed = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(0, (1, 0))])
    g1 = (x(0), SPoly.zero(2))
    g2 = (SPoly.zero(2), SPoly.constant(2, 1))
    degs, reps = minimal_generators(_module(mixed, [(2, g1), (0, g2)], 10))
    assert degs == (0, 2)
    assert reps == [(0, [0, 1]), (2, [0, 1, 0])]

    inside = _module(free, [(2, (x(0),)), (2, (x(1),))], 10)
    assert minimal_generators(inside)[0] == (2, 2)

    # generators of both parities: one of the other parity contributes no
    # column, degrees come out ascending, and x1 times the odd generator is
    # not minimal
    parities = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(1)])
    assert minimal_generators(
        GradedModuleRep(parities, ((0, [1]), (1, [1])), 10)
    ) == ((0, 1), [(0, [1]), (1, [1])])
    odd_first = _module(
        parities,
        [(3, (SPoly.zero(2), x(0))), (1, (SPoly.zero(2), SPoly.constant(2, 1))),
         (2, (x(1), SPoly.zero(2))), (0, (SPoly.constant(2, 1), SPoly.zero(2)))],
        10,
    )
    assert minimal_generators(odd_first) == ((0, 1), [(0, [1]), (1, [1])])

    # a zero generator spans nothing
    free2 = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(0)])
    assert minimal_generators(GradedModuleRep(free2, ((0, [0, 0]),), 8)) == ((), [])
    # a generator above the cap is ignored, though the others miss it:
    # x2^6 in the second piece, degree 12 over cap 10
    above = GradedModuleRep(free2, ((0, [1, 0]), (12, [0] * 7 + [1] + [0] * 6)), 10)
    assert minimal_generators(above) == ((0,), [(0, [1, 0])])
    # a generator's vector must have ambient.dim(degree) coordinates;
    # [0, 1, 0, 0] is x1 in the first piece, which lies in degree 2
    with pytest.raises(DegreeMismatch):
        GradedModuleRep(free2, ((0, [0, 1, 0, 0]),), 8)
    # and int entries: the elimination below runs on integers only
    with pytest.raises(TypeError, match="degree-2 generator .* Fraction"):
        GradedModuleRep(free2, ((0, [1, 0]), (2, [0, Fraction(1, 2), 0, 0])), 8)


def test_minimal_generators_cap_guard():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    with pytest.raises(CapBoundaryGenerator):
        minimal_generators(_module(free, [(2, (x(0),))], 2))


def test_rank_nullity_cross_check():
    # dim (M/S+M)_d == dim M_d - dim (S+ M)_d, both sides recomputed
    mixed = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(2, (1, -1))])
    gens = [(2, (x(0), SPoly.constant(2, 1))), (4, (x(0) * x(1), SPoly.zero(2)))]
    module = _module(mixed, gens, 12)
    degs, _ = minimal_generators(module)
    for d in range(0, 12, 2):
        m_d = len(degree_basis(module, d))
        lower = _module(
            mixed,
            [
                (e + 2, tuple(SPoly.variable(2, var) * c for c in g))
                for e, g in gens
                for var in range(2)
            ],
            12,
        )
        # (S+ M)_d equals the degree-d slice of the module generated by x_k g
        splus_d = len(degree_basis(lower, d))
        assert degs.count(d) == m_d - splus_d


def _random_module(rng):
    """A random ambient and (degree, SPoly tuple) generators in it."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        shift = 2 * rng.randint(0, 2)
        if rng.random() < 0.5:
            pieces.append(CyclicPiece(shift))
        else:
            coords = (rng.randint(1, 2), rng.randint(-2, 2))
            pieces.append(CyclicPiece(shift, coords))
    amb = ModuleAmbient(2, pieces)
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = 2 * rng.randint(0, 2)
        comp = []
        for piece in pieces:
            k2 = d - piece.shift
            if k2 < 0 or k2 % 2:
                comp.append(SPoly.zero(2))
                continue
            terms = {}
            for mono in amb.ring.monomials(k2 // 2):
                if rng.random() < 0.6:
                    terms[mono] = Fraction(rng.randint(-2, 2))
            comp.append(SPoly(2, terms))
        gens.append((d, tuple(comp)))
    return amb, tuple(gens)


def _respan(amb, gens, rng):
    """A different generating set of the same submodule: unimodular integer
    combinations plus redundant multiples.  A zero generator has no degree
    here, so it is combined only with other zero generators."""

    def degree(gen):
        d, g = gen
        return d if any(g) else None

    k = len(gens)
    new = []
    for i in range(k):
        comp = [SPoly.zero(2) for _ in amb.pieces]
        di = degree(gens[i])
        for j in range(k):
            if degree(gens[j]) != di or (i != j and rng.random() < 0.5):
                continue
            c = 1 if i == j else rng.randint(-2, 2)
            comp = [a + c * b for a, b in zip(comp, gens[j][1])]
        new.append((gens[i][0], tuple(comp)))
    for d, g in gens:
        if rng.random() < 0.5:
            var = rng.randint(0, 1)
            new.append((d + 2, tuple(SPoly.variable(2, var) * c for c in g)))
    return tuple(new)


def test_minimal_generators_presentation_independence():
    rng = random.Random(20240813)
    done = 0
    while done < 50:
        amb, gens = _random_module(rng)
        module = _module(amb, gens, 12)
        try:
            degs, _ = minimal_generators(module)
        except CapBoundaryGenerator:
            continue
        other = _module(amb, _respan(amb, gens, rng), 12)
        degs2, _ = minimal_generators(other)
        assert degs == degs2
        done += 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_is_the_free_quotient(n):
    ring = linear_quotient(n, (0,) * n)
    assert ModuleAmbient(n, [CyclicPiece(0), CyclicPiece(2, (1,) * n)]).ring is ring
    labels = [label for label in product(range(-2, 3), repeat=n) if any(label)]
    for k in range(6):
        monos = ring.monomials(k)
        assert list(monos) == sorted(m for m in product(range(k + 1), repeat=n)
                                     if sum(m) == k)
        for label in labels:
            quot = linear_quotient(n, label)
            elim = next(i for i, c in enumerate(label) if c)
            assert quot.ring is ring
            assert quot.monomials(k) == tuple(m for m in monos if not m[elim])


def _normal_form_over_q(quot, label, exp):
    """{reduced index: coefficient} of a monomial's remainder under
    divide_by_linear, which works in Fraction arithmetic, rescaled by the
    oracle's t_basis to monomials in t_i = x_i/|c|."""
    _, rem = divide_by_linear(SPoly(len(exp), {exp: 1}), SPoly.linear(label))
    idx = quot.index(sum(exp))
    return {idx[m]: c for m, c in t_basis(rem, label).terms.items()}


def _check_quotient_maps(label, n, degrees, ints):
    """reduce_map_indexed and mul_var_map rows of S/(label) below the
    given degree equal the rescaled divide_by_linear remainders, and with
    ints every coefficient is an int.  A mul_var_map row starts from the
    basis monomial t^m = x^m / |c|^k, so its expected image is the
    remainder of x^m * x_var divided by t_basis's scale of x^m."""
    quot = linear_quotient(n, label)
    for k in range(degrees):
        for row, m in zip(quot.reduce_map_indexed(k), quot.ring.monomials(k)):
            assert not ints or all(type(f) is int for _, f in row), (label, m)
            assert dict(row) == _normal_form_over_q(quot, label, m), (label, m)
        for var in range(n):
            rows = quot.mul_var_map(k, var)
            for m, row in zip(quot.monomials(k), rows):
                assert not ints or all(type(f) is int for _, f in row), (label, m)
                up = tuple(e + (t == var) for t, e in enumerate(m))
                scale = t_basis(SPoly(n, {m: 1}), label).terms[m]
                want = _normal_form_over_q(quot, label, up)
                assert dict(row) == {i: c / scale for i, c in want.items()}, (label, up)


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        [[2, -1], [-3, 2]],
    ],
    ids=["a3", "b3", "g2"],
)
def test_edge_label_quotient_maps_are_int(cartan):
    # every plain and dual edge label; B3's dual and G2's labels (G2's
    # 2a1 + 3a2 among them) have a first coefficient other than +-1
    datum = validate_cartan(cartan)
    group = full_weyl_group(datum)
    labels = {
        tuple(e.label)
        for dual in (False, True)
        for e in build_moment_graph(datum, group, dual=dual).edges
    }
    for label in sorted(labels):
        _check_quotient_maps(label, datum.rank, 4, ints=True)


@given(st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS))
def test_reduce_maps_match_division_on_rank3_labels(pairs):
    # every plain and dual edge label of a drawn rank-3 ideal; an entry of
    # -2 or -3 gives labels such as 3a1 + a2, whose eliminated coefficient
    # is not +-1, so the maps are in the rescaled basis
    datum = rank3_datum(pairs)
    ideal = enumerate_ideal(datum, 3)
    labels = {
        tuple(e.label)
        for dual in (False, True)
        for e in build_moment_graph(datum, ideal, dual=dual).edges
    }
    for label in sorted(labels):
        _check_quotient_maps(label, 3, 5, ints=False)

# unit label (1, -1), non-unit label (2, 3), a free piece, and shifts of
# both parities, so every degree has dead pieces
MIXED_PIECES = (
    CyclicPiece(0, (1, -1)),
    CyclicPiece(2, (2, 3)),
    CyclicPiece(1, (1, -1)),
    CyclicPiece(2),
    CyclicPiece(5, (2, 3)),
)


def _random_element(amb, d, rng):
    """One SPoly per piece of the ambient, random on the pieces live in
    degree d, drawing one coefficient per free monomial in order."""
    out = []
    for piece in amb.pieces:
        rel = d - piece.shift
        monos = amb.ring.monomials(rel // 2) if rel >= 0 and rel % 2 == 0 else ()
        out.append(SPoly(2, {m: rng.randint(-3, 3) for m in monos}))
    return tuple(out)


def test_reduce_free_matches_piecewise_reduction():
    # spoly_vector reduces each piece by divide_by_linear, which shares no
    # code with reduce_free's LinearQuotient maps
    amb = ModuleAmbient(2, MIXED_PIECES)
    free = ModuleAmbient(2, [CyclicPiece(p.shift) for p in MIXED_PIECES])
    rng = random.Random(11)
    for d in range(9):
        element = _random_element(free, d, rng)
        vec = spoly_vector(free, element, d)
        assert amb.reduce_free(vec, d) == spoly_vector(amb, element, d), d


def test_monomial_multiples_match_spoly_products():
    # compute_bmp and the oracles restriction_matrix and degree_basis all
    # multiply through mul_var_vec, so it is checked against SPoly products, reduced by
    # spoly_vector, which share no code with it
    amb = ModuleAmbient(2, MIXED_PIECES + (CyclicPiece(0),))
    rng = random.Random(12)
    for e in range(7):
        g = _random_element(amb, e, rng)
        for d in range(e, e + 7, 2):
            expected = [
                spoly_vector(amb, tuple(SPoly(2, {m: 1}) * c for c in g), d)
                for m in amb.ring.monomials((d - e) // 2)
            ]
            got = monomial_multiples(amb, [(e, spoly_vector(amb, g, e))], d)
            assert got == expected, (e, d)


def _chain_multiples(amb, gens, d):
    """monomial_multiples by whole monomial chains: each column multiplies
    its generator by the variables in order, from the generator's degree."""
    out = []
    for e, vec in gens:
        if d < e or (d - e) % 2:
            continue
        for mono in amb.ring.monomials((d - e) // 2):
            col, deg = vec, e
            for var, count in enumerate(mono):
                for _ in range(count):
                    col = amb.mul_var_vec(col, deg, var)
                    deg += 2
            out.append(col)
    return out


def test_memoized_multiples_non_unit_label():
    # G2's label 2a1 + 3a2 is read in t2 = x2/2, where x1 = -3 t2 and
    # x2 = 2 t2, so every column is integral; a store kept over an
    # ascending sweep, a fresh store and no store all give the plain chains
    amb = ModuleAmbient(2, [CyclicPiece(0, (2, 3)), CyclicPiece(2, (2, 3)), CyclicPiece(2)])
    rng = random.Random(13)
    gens = [(e, [rng.randint(-3, 3) for _ in range(amb.dim(e))]) for e in (0, 2, 2, 4)]
    store = {}
    for d in range(0, 13, 2):
        expected = _chain_multiples(amb, gens, d)
        assert monomial_multiples(amb, gens, d, store) == expected, d
        assert monomial_multiples(amb, gens, d) == expected, d
        assert not any(type(c) is Fraction for col in expected for c in col), d
    # asking again below the stored degree rebuilds from the generator
    assert monomial_multiples(amb, gens, 4, store) == _chain_multiples(amb, gens, 4)


def test_memoized_multiples_growing_free_ambient():
    # a free stalk gains one or two pieces in each degree, and the
    # generator list grows, between calls on one store, as compute_bmp's
    # kernel step does
    rng = random.Random(14)
    shifts = []
    gens = []
    store = {}
    for d in range(0, 11, 2):
        shifts.extend([d] * (d % 4 // 2 + 1))
        amb = ModuleAmbient(3, [CyclicPiece(s) for s in shifts])
        got = monomial_multiples(amb, gens, d, store)
        assert got == _chain_multiples(amb, gens, d), d
        if d < 8:
            gens.append((d, [rng.randint(-2, 2) for _ in range(amb.dim(d))]))
