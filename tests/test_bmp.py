import hashlib
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kmflag.bmp import (
    compute_bmp,
    default_degree_cap,
    stalk_poincare,
    verify_against_inverse_kl,
)
from kmflag.errors import (
    BaseNotVertex,
    CapBoundaryGenerator,
    IntervalNotContained,
    NotSymmetrizable,
)
from kmflag.graded_algebra import module_ambient
from kmflag.kl import KLTable, QPoly
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import validate_cartan
from kmflag.weyl import (
    bruhat_leq,
    enumerate_ideal,
    format_word,
    from_word,
    full_weyl_group,
    identity,
)

from conftest import A2, A3, B2, GCM_PAIRS
from oracles import bmp_cover_degrees, images, sections

G2 = [[2, -1], [-3, 2]]
B3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
HYPERBOLIC3 = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
AFFINE_C2 = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
INDEFINITE3 = [[2, -1, -1], [-1, 2, -2], [-1, -2, 2]]

# _sheaf_digest() of the current construction; test_sheaf_digest_pinned says
# when a change may re-pin it
SHEAF_DIGEST = "f2d7bff0eb1caca32b6b442acb935882fb181c46f202a41335fb977bd0aca459"


def test_a1_stalks(a1):
    ideal = enumerate_ideal(a1, 1)
    graph = build_moment_graph(a1, ideal)
    sheaf = compute_bmp(graph, identity(a1))
    assert all(degs == (0,) for degs in sheaf.stalks.values())
    assert stalk_poincare(sheaf, ideal.elements[1]) == QPoly((1,))


def test_base_stalk_and_support(a2, a2_graph):
    s1 = from_word(a2, [0])
    sheaf = compute_bmp(a2_graph, s1)
    for v in a2_graph.vertices:
        if not bruhat_leq(s1, v):
            assert sheaf.stalks[v] == ()
        else:
            assert sheaf.stalks[v] != ()
    assert sheaf.stalks[s1] == (0,)


def test_a2_base_identity_all_rank_one(a2, a2_graph):
    sheaf = compute_bmp(a2_graph, identity(a2))
    assert all(degs == (0,) for degs in sheaf.stalks.values())


def test_base_not_vertex(a2, a2_graph):
    other = validate_cartan([[2]])
    with pytest.raises(BaseNotVertex):
        compute_bmp(a2_graph, identity(other))


def test_poincare_reads_degrees():
    class Dummy:
        stalks = {"w": (0, 2, 2)}

    assert stalk_poincare(Dummy(), "w") == QPoly((1, 2))


def test_a3_nontrivial_stalk(a3, a3_graph, a3_table):
    base = from_word(a3, [1])
    target = from_word(a3, [1, 0, 2, 1])
    sheaf = compute_bmp(a3_graph, base)
    assert stalk_poincare(sheaf, target) == QPoly((1, 1))
    assert stalk_poincare(sheaf, target) == a3_table.inverse_kl(base, target)


@pytest.fixture(scope="module")
def b3_group():
    return full_weyl_group(validate_cartan(B3))


@pytest.fixture(scope="module")
def b3_graph(b3_group):
    return build_moment_graph(b3_group.datum, b3_group)


@pytest.fixture(scope="module")
def b3_dual_graph(b3_group):
    return build_moment_graph(b3_group.datum, b3_group, dual=True)


@pytest.fixture(scope="module")
def hyperbolic_graph():
    datum = validate_cartan(HYPERBOLIC3)
    return build_moment_graph(datum, enumerate_ideal(datum, 4))


# every base; B3's 48 bases on each graph reach stalks of rank 3.  Every
# restriction is an int: the hyperbolic ideal from s2 and some B3 bases,
# plain and dual, need a lift that solves only for a multiple of its
# generator's image
@pytest.mark.parametrize(
    "fixture",
    ["a2_graph", "b2_graph", "affine_a1_graph", "b3_graph", "b3_dual_graph",
     "hyperbolic_graph"],
)
def test_verify_against_inverse_kl_small(fixture, request):
    graph = request.getfixturevalue(fixture)
    table = KLTable(graph.ideal)
    for base in graph.vertices:
        sheaf = compute_bmp(graph, base)
        report = verify_against_inverse_kl(sheaf, table)
        assert report.all_match, format_word(base)
        assert report.entries[0].stalk == QPoly((1,))
        assert all(
            type(c) is int
            for e in graph.edges
            for v in (e.lower, e.upper)
            for vec in images(sheaf, v, e)
            for c in vec
        ), format_word(base)


@given(st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS))
def test_rank3_stalks_match_inverse_kl(pairs):
    # the random rank-3 GCMs of test_kl's test_rank3_kl_matches_oracle
    (a01, a10), (a02, a20), (a12, a21) = pairs
    try:
        datum = validate_cartan([[2, a01, a02], [a10, 2, a12], [a20, a21, 2]])
    except NotSymmetrizable:
        assume(False)
    ideal = enumerate_ideal(datum, 3)
    table = KLTable(ideal)
    plain = build_moment_graph(datum, ideal)
    dual = build_moment_graph(datum, ideal, dual=True)
    for base in ideal:
        sheaf = compute_bmp(plain, base)
        assert verify_against_inverse_kl(sheaf, table).all_match, format_word(base)
        assert compute_bmp(dual, base).stalks == sheaf.stalks, format_word(base)


def test_verify_interval_not_contained(a2, a2_graph):
    small_table = KLTable(enumerate_ideal(a2, 1))
    with pytest.raises(IntervalNotContained):
        verify_against_inverse_kl(compute_bmp(a2_graph, identity(a2)), small_table)


def test_linear_extension_independence(b2_graph, affine_a1_graph):
    rng = random.Random(20240814)
    for graph in (b2_graph, affine_a1_graph):
        for base in graph.vertices[:4]:
            reference = compute_bmp(graph, base)
            support = [v for v in graph.vertices if bruhat_leq(base, v)]
            for _ in range(3):
                by_length = {}
                for v in support:
                    by_length.setdefault(v.length(), []).append(v)
                shuffled = []
                for length in sorted(by_length):
                    block = by_length[length]
                    rng.shuffle(block)
                    shuffled.extend(block)
                again = compute_bmp(graph, base, order=shuffled)
                assert again.stalks == reference.stalks


def test_order_validation(a2, a2_graph):
    e = identity(a2)
    support = [v for v in a2_graph.vertices]
    with pytest.raises(ValueError):
        compute_bmp(a2_graph, e, order=list(reversed(support)))
    with pytest.raises(ValueError):
        compute_bmp(a2_graph, e, order=support[:-1])


def test_stalks_equal_cover_oracle(a2_graph, b2_graph, b2, b2_group, affine_a1, a3,
                                   a3_graph, b3_graph, hyperbolic_graph):
    small_affine = enumerate_ideal(affine_a1, 4)
    affine_graph = build_moment_graph(affine_a1, small_affine)
    b2_dual = build_moment_graph(b2, b2_group, dual=True)
    cases = [
        (graph, base)
        for graph in (a2_graph, b2_graph, b2_dual, affine_graph)
        for base in graph.vertices
    ]
    cases.extend((hyperbolic_graph, base) for base in hyperbolic_graph.vertices)
    # two stalks of rank 2 on A3; eight of rank 2 or more on B3
    cases.append((a3_graph, from_word(a3, [0, 2])))
    cases.append((b3_graph, from_word(b3_graph.datum, [1, 0, 2])))
    # labels whose first coefficient is not +-1, met in degree 2 and up, so
    # the normal-form basis changes the restriction vectors: affine A2
    # (labels such as 2a1 + a2 + a3) and B3's dual graph (2a2 + a3 and
    # 2a1 + 2a2 + a3); B3 dual from s2 would take minutes in the oracle
    affine_a2 = validate_cartan(AFFINE_A2)
    affine_a2_graph = build_moment_graph(affine_a2, enumerate_ideal(affine_a2, 4))
    cases.append((affine_a2_graph, from_word(affine_a2, [0])))
    b3_dual = build_moment_graph(b3_graph.datum, b3_graph.ideal, dual=True)
    cases.append((b3_dual, from_word(b3_graph.datum, [0, 2, 1, 0, 2])))
    for graph, base in cases:
        fast = compute_bmp(graph, base)
        support = {w: s for w, s in fast.stalks.items() if bruhat_leq(base, w)}
        assert bmp_cover_degrees(fast) == support, format_word(base)


def test_dual_graph_same_ranks(a2, a2_graph, b2, b2_group, b2_graph):
    duals = [
        (a2_graph, build_moment_graph(a2, a2_graph.ideal, dual=True)),
        (b2_graph, build_moment_graph(b2, b2_group, dual=True)),
    ]
    for primal, dual in duals:
        for base in primal.vertices:
            assert compute_bmp(primal, base).stalks == compute_bmp(dual, base).stalks


@pytest.mark.parametrize("cartan", [B2, G2], ids=["b2", "g2"])
def test_shared_layouts_give_the_same_sheaves(cartan):
    # every sheaf, plain and dual graph, built with the layout cache warm
    # and with it emptied before the base: the same shifts and restrictions
    datum = validate_cartan(cartan)
    group = full_weyl_group(datum)
    for dual in (False, True):
        graph = build_moment_graph(datum, group, dual=dual)
        warm = [compute_bmp(graph, base) for base in graph.vertices]
        assert module_ambient.cache_info().hits
        for sheaf in warm:
            module_ambient.cache_clear()
            cold = compute_bmp(graph, sheaf.base)
            assert cold.vertex_shifts == sheaf.vertex_shifts, format_word(sheaf.base)
            assert cold.restrictions == sheaf.restrictions, format_word(sheaf.base)


def test_counting_rules_change_no_sheaf(b3_graph, b3_dual_graph, monkeypatch):
    # compute_bmp decides the sections born at a vertex by counting where it
    # can.  With the decision forced to "eliminate" at every step it runs
    # the kernel read-off and the second cover_step everywhere, as it did
    # before the rules; each rule's claim is checked against that
    # elimination, and both runs give the same shifts and restriction
    # vectors from every base
    from kmflag import bmp
    from kmflag.graded_algebra import cover_step

    decide = bmp._born_by_count
    claims = []
    seen = set()

    def eliminate(rank, found, free=None):
        claims.append((found, decide(rank, found, free)))
        return None

    def checked_cover_step(amb, gens, candidates, d, cap=None, store=None):
        system = cover_step(amb, gens, candidates, d, cap, store)
        if cap is None:  # the kernel step
            found, claim = claims[-1]
            if claim is None:
                seen.add(("fallback", found))
            else:
                # False: no kernel vector is new; True: every one is
                assert system.fresh == (list(range(len(candidates))) if claim else [])
                seen.add("rule 2" if claim else "rule 1" if not candidates else "rule 3")
        return system

    graphs = [b3_graph, b3_dual_graph]
    for cartan, bound in ((HYPERBOLIC3, 6), (AFFINE_C2, 6), (INDEFINITE3, 5)):
        datum = validate_cartan(cartan)
        graphs.append(build_moment_graph(datum, enumerate_ideal(datum, bound)))
    for graph in graphs:
        for base in graph.vertices:
            counted = compute_bmp(graph, base)
            with monkeypatch.context() as patch:
                patch.setattr(bmp, "_born_by_count", eliminate)
                patch.setattr(bmp, "cover_step", checked_cover_step)
                eliminated = compute_bmp(graph, base)
            assert counted.vertex_shifts == eliminated.vertex_shifts, format_word(base)
            assert counted.restrictions == eliminated.restrictions, format_word(base)
    # every rule decides, and the fallback runs after one and two kernel
    # generators
    assert seen >= {"rule 1", "rule 2", "rule 3", ("fallback", 1), ("fallback", 2)}


def test_cap_boundary_guard(a3, a3_graph):
    base = from_word(a3, [1])
    # the nontrivial degree-2 generator appears at cap-2 when cap = 4
    with pytest.raises(CapBoundaryGenerator):
        compute_bmp(a3_graph, base, degree_cap=4)


def test_larger_cap_same_stalks(a3, a3_graph):
    base = from_word(a3, [1])
    default = compute_bmp(a3_graph, base)
    bigger = compute_bmp(a3_graph, base, degree_cap=default.degree_cap + 4)
    assert bigger.stalks == default.stalks
    # the default cap rests on the inverse-KL degree bound; the earlier
    # default 2L + 4 (L = max length - l(base)) sees nothing more
    for cartan in (A2, B2, G2, A3):
        datum = validate_cartan(cartan)
        group = full_weyl_group(datum)
        for dual in (False, True):
            graph = build_moment_graph(datum, group, dual=dual)
            for base in graph.vertices:
                default = compute_bmp(graph, base)
                old_cap = 2 * (group.max_length - base.length()) + 4
                wide = compute_bmp(graph, base, degree_cap=old_cap)
                assert wide.stalks == default.stalks, (cartan, dual, format_word(base))


def test_default_cap_formula(a2, a2_graph, a3, a3_graph):
    # L + 4 rounded up to even, with L = max length - l(base)
    assert default_degree_cap(a3_graph, identity(a3)) == 10  # L = 6
    assert default_degree_cap(a3_graph, from_word(a3, [1])) == 10  # L = 5
    assert default_degree_cap(a2_graph, identity(a2)) == 8  # L = 3
    w0 = max(a2_graph.vertices, key=lambda v: v.length())
    assert default_degree_cap(a2_graph, w0) == 4  # L = 0


# A2 from e has stalks of rank 1 only; A3 from s2 has four of rank 2
SHEAF_CASES = pytest.mark.parametrize(
    "graph_fixture, base_word", [("a2_graph", []), ("a3_graph", [1])], ids=["a2-e", "a3-2"]
)


@SHEAF_CASES
def test_sheaf_restrictions_are_surjective(graph_fixture, base_word, request):
    # property (3) of the canonical sheaf: sections over the whole ideal
    # surject onto sections over any smaller downward-closed subset
    from kmflag._linalg import RowSpan

    graph = request.getfixturevalue(graph_fixture)
    base = from_word(graph.datum, base_word)
    sheaf = compute_bmp(graph, base)
    opens = [
        [v for v in graph.vertices if v.length() <= bound]
        for bound in range(graph.ideal.max_length)
    ]
    full = sections(sheaf, max_degree=4)
    for subset in opens:
        sub = sections(sheaf, subset=subset, max_degree=4)
        for d in (0, 2, 4):
            width = sum(sheaf.vertex_ambient(v).dim(d) for v in subset)
            restricted = RowSpan(width)
            for sec in full[d]:
                restricted.add([c for v in subset for c in sec[v]])
            assert restricted.dim == len(sub[d])


@SHEAF_CASES
def test_sheaf_sections_surject_onto_stalks(graph_fixture, base_word, request):
    # property (4) of the canonical sheaf: global sections surject onto
    # every stalk in each degree
    from kmflag._linalg import RowSpan

    graph = request.getfixturevalue(graph_fixture)
    sheaf = compute_bmp(graph, from_word(graph.datum, base_word))
    secs = sections(sheaf, max_degree=4)
    for w in graph.vertices:
        amb = sheaf.vertex_ambient(w)
        for d in (0, 2, 4):
            dim = amb.dim(d)
            if dim == 0:
                continue
            span = RowSpan(dim)
            for sec in secs[d]:
                span.add(sec[w])
            assert span.dim == dim, (format_word(w), d)


def _sheaf_digest():
    """SHA-256 over every stalk shift, edge shift and restriction of the
    sheaf from every base of A2, B2, G2 and A3, plain and dual graph."""
    h = hashlib.sha256()
    for cartan in (A2, B2, G2, A3):
        datum = validate_cartan(cartan)
        group = full_weyl_group(datum)
        for dual in (False, True):
            graph = build_moment_graph(datum, group, dual=dual)
            for base in graph.vertices:
                sheaf = compute_bmp(graph, base)
                h.update(f"{cartan} {dual} {format_word(base)}\n".encode())
                for v in graph.vertices:
                    h.update(f"{format_word(v)} {sheaf.vertex_shifts[v]}\n".encode())
                for e in graph.edges:
                    h.update(
                        f"{format_word(e.lower)} {format_word(e.upper)} {e.label} "
                        f"{sheaf.vertex_shifts[e.lower]} {images(sheaf, e.lower, e)} "
                        f"{images(sheaf, e.upper, e)}\n".encode()
                    )
    return h.hexdigest()


def test_sheaf_digest_pinned():
    """The whole sheaf, not only its stalk degrees, is pinned: shifts and
    restriction vectors on 100 bases.  A refactor of the construction must
    keep this digest.  A deliberate change of basis changes restriction
    vectors without changing the sheaf; such a change must re-pin the digest
    and say so in CHANGES.md.  The integral normal forms of ROADMAP open
    item 2 (edge modules on monomials in t_i = x_i/|c|) left it as it was:
    these groups meet labels with |c| != 1 (B2's dual 2a1 + a2 and G2's)
    only in degree-0 restrictions, where the basis does not change;
    test_stalks_equal_cover_oracle covers sheaves where it does."""
    assert _sheaf_digest() == SHEAF_DIGEST
