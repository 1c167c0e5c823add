import random
from fractions import Fraction

import pytest

from kmflag.errors import CapBoundaryGenerator, DegreeCapExceeded, DegreeMismatch, ZeroForm
from kmflag.graded_algebra import (
    CyclicPiece,
    GradedModuleRep,
    ModuleAmbient,
    SPoly,
    degree_basis,
    divide_by_linear,
    image_module,
    linear_quotient,
    minimal_generators,
    monomial_multiples,
    reduce_mod_linear,
)
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import validate_cartan
from kmflag.weyl import full_weyl_group


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
    with pytest.raises(ZeroForm):
        reduce_mod_linear(x(0), SPoly.zero(2))
    with pytest.raises(ZeroForm):
        divide_by_linear(x(0), SPoly.zero(2))
    with pytest.raises(ZeroForm):
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


def test_degree_basis_dimensions():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    unit = (SPoly.constant(2, 1),)
    m = GradedModuleRep(free, (unit,), 10)
    assert len(degree_basis(m, 0)) == 1
    assert len(degree_basis(m, 2)) == 2
    quot = ModuleAmbient(2, [CyclicPiece(0, (1, 0))])
    mq = GradedModuleRep(quot, ((SPoly.constant(2, 1),),), 10)
    assert len(degree_basis(mq, 2)) == 1
    with pytest.raises(DegreeCapExceeded):
        degree_basis(m, 12)


def test_minimal_generators_contract_examples():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    unit = (SPoly.constant(2, 1),)
    assert minimal_generators(GradedModuleRep(free, (unit,), 10))[0] == (0,)

    mixed = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(0, (1, 0))])
    g1 = (x(0), SPoly.zero(2))
    g2 = (SPoly.zero(2), SPoly.constant(2, 1))
    degs, reps = minimal_generators(GradedModuleRep(mixed, (g1, g2), 10))
    assert sorted(degs) == [0, 2]
    assert len(reps) == 2

    inside = GradedModuleRep(free, ((x(0),), (x(1),)), 10)
    assert minimal_generators(inside)[0] == (2, 2)


def test_minimal_generators_cap_guard():
    free = ModuleAmbient(2, [CyclicPiece(0)])
    with pytest.raises(CapBoundaryGenerator):
        minimal_generators(GradedModuleRep(free, ((x(0),),), 2))


def test_rank_nullity_cross_check():
    # dim (M/S+M)_d == dim M_d - dim (S+ M)_d, both sides recomputed
    mixed = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(2, (1, -1))])
    gens = ((x(0), SPoly.constant(2, 1)), (x(0) * x(1), SPoly.zero(2)))
    module = GradedModuleRep(mixed, gens, 12)
    degs, _ = minimal_generators(module)
    for d in range(0, 12, 2):
        m_d = len(degree_basis(module, d))
        lower = GradedModuleRep(
            mixed,
            tuple(
                tuple(SPoly.variable(2, var) * c for c in g)
                for g in gens
                for var in range(2)
            ),
            12,
        )
        # (S+ M)_d equals the degree-d slice of the module generated by x_k g
        splus_d = len(degree_basis(lower, d))
        assert degs.count(d) == m_d - splus_d


def _random_module(rng):
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
        gens.append(tuple(comp))
    return amb, tuple(gens)


def _respan(amb, gens, rng):
    """A different generating set of the same submodule: unimodular integer
    combinations plus redundant multiples."""
    k = len(gens)
    new = []
    for i in range(k):
        comp = [SPoly.zero(2) for _ in amb.pieces]
        di = amb.element_degree(gens[i])
        for j in range(k):
            if amb.element_degree(gens[j]) != di or (i != j and rng.random() < 0.5):
                continue
            c = 1 if i == j else rng.randint(-2, 2)
            comp = [a + c * b for a, b in zip(comp, gens[j])]
        new.append(tuple(comp))
    for g in gens:
        if rng.random() < 0.5:
            var = rng.randint(0, 1)
            new.append(tuple(SPoly.variable(2, var) * c for c in g))
    return tuple(new)


def test_minimal_generators_presentation_independence():
    rng = random.Random(20240813)
    done = 0
    while done < 50:
        amb, gens = _random_module(rng)
        module = GradedModuleRep(amb, gens, 12)
        try:
            degs, _ = minimal_generators(module)
        except CapBoundaryGenerator:
            continue
        other = GradedModuleRep(amb, _respan(amb, gens, rng), 12)
        degs2, _ = minimal_generators(other)
        assert degs == degs2
        done += 1


def test_image_module_contract():
    free2 = ModuleAmbient(2, [CyclicPiece(0), CyclicPiece(0)])
    g = ((SPoly.constant(2, 1), SPoly.zero(2)),)
    m = GradedModuleRep(free2, g, 8)
    same = image_module(m, g, free2)
    for d in (0, 2, 4):
        assert len(degree_basis(same, d)) == len(degree_basis(m, d))
    zero = image_module(m, ((SPoly.zero(2), SPoly.zero(2)),), free2)
    assert minimal_generators(zero) == ((), [])
    with pytest.raises(DegreeMismatch):
        image_module(m, ((x(0), SPoly.zero(2)),), free2)


def _normal_form_over_q(quot, exp):
    """{reduced index: coefficient} of a monomial's remainder under
    divide_by_linear, which works in Fraction arithmetic."""
    _, rem = divide_by_linear(SPoly(len(exp), {exp: 1}), SPoly.linear(quot.coords))
    idx = quot.reduced_index(sum(exp))
    return {idx[m]: c for m, c in rem.terms.items()}


@pytest.mark.parametrize(
    "cartan",
    [[[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]],
    ids=["a3", "b3"],
)
def test_unit_label_quotient_maps_are_int(cartan):
    datum = validate_cartan(cartan)
    graph = build_moment_graph(datum, full_weyl_group(datum))
    labels = sorted({tuple(e.label) for e in graph.edges})
    unit = [a for a in labels if abs(next(c for c in a if c)) == 1]
    assert unit
    n = datum.rank
    for label in unit:
        quot = linear_quotient(n, label)
        for k in range(4):
            for i, m in enumerate(quot.ring.monomials(k)):
                row = quot.reduce_map_indexed(k)[i]
                assert all(type(f) is int for _, f in row)
                assert dict(row) == _normal_form_over_q(quot, m)
            for var in range(n):
                rows = quot.mul_var_map(k, var)
                for m, row in zip(quot.reduced_monomials(k), rows):
                    assert all(type(f) is int for _, f in row)
                    up = tuple(e + (t == var) for t, e in enumerate(m))
                    assert dict(row) == _normal_form_over_q(quot, up)


# unit label (1, -1), non-unit label (2, 3), a free piece, and shifts of
# both parities, so every degree has dead pieces
MIXED_PIECES = (
    CyclicPiece(0, (1, -1)),
    CyclicPiece(2, (2, 3)),
    CyclicPiece(1, (1, -1)),
    CyclicPiece(2),
    CyclicPiece(5, (2, 3)),
)


def test_reduce_free_matches_piecewise_reduction():
    amb = ModuleAmbient(2, MIXED_PIECES)
    free = ModuleAmbient(2, [CyclicPiece(p.shift) for p in MIXED_PIECES])
    rng = random.Random(11)
    for d in range(9):
        vec = [rng.randint(-3, 3) for _ in range(free.dim(d))]
        element = tuple(
            p if piece.annihilator is None
            else reduce_mod_linear(p, SPoly.linear(piece.annihilator))
            for p, piece in zip(free.unflatten(vec, d), MIXED_PIECES)
        )
        assert amb.reduce_free(vec, d) == amb.flatten(element, d), d


def test_monomial_multiples_match_spoly_products():
    # restriction_matrix and compute_bmp both multiply through mul_var_vec,
    # so it is checked against SPoly products, which share no code with it
    amb = ModuleAmbient(2, MIXED_PIECES + (CyclicPiece(0),))
    rng = random.Random(12)
    for e in range(7):
        g = []
        for p in amb.pieces:
            live = e >= p.shift and (e - p.shift) % 2 == 0
            monos = amb.ring.monomials((e - p.shift) // 2) if live else ()
            g.append(SPoly(2, {m: rng.randint(-3, 3) for m in monos}))
        for d in range(e, e + 7, 2):
            expected = [
                amb.flatten(tuple(SPoly(2, {m: 1}) * c for c in g), d)
                for m in amb.ring.monomials((d - e) // 2)
            ]
            assert monomial_multiples(amb, amb.flatten(g, e), e, d) == expected, (e, d)
