import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmflag.errors import DegreeCapExceeded
from kmflag.graded_algebra import SPoly
from kmflag.moment_graph import (
    build_moment_graph,
    constant_sheaf,
    covering_relations,
    sections,
    structure_algebra_check,
)
from kmflag.root_datum import validate_cartan
from kmflag.weyl import (
    bruhat_leq,
    enumerate_ideal,
    format_word,
    full_weyl_group,
    identity,
    simple_reflection,
)

from oracles import reflection_pair_edges


@pytest.fixture(scope="module")
def a1_graph():
    datum = validate_cartan([[2]])
    return build_moment_graph(datum, enumerate_ideal(datum, 1))


def test_a1_single_edge(a1_graph):
    assert len(a1_graph.edges) == 1
    assert a1_graph.edges[0].label == (1,)


def test_a2_edge_count(a2_graph):
    # |R+| * |W| / 2
    assert len(a2_graph.vertices) == 6
    assert len(a2_graph.edges) == 9


def test_b2_edge_count(b2_graph):
    assert len(b2_graph.edges) == 4 * 8 // 2


def test_edges_are_comparable_reflection_pairs(b2, b2_graph):
    from kmflag.weyl import inverse, multiply, reflection

    for e in b2_graph.edges:
        assert bruhat_leq(e.lower, e.upper)
        assert e.lower.length() < e.upper.length()
        t = multiply(e.upper, inverse(e.lower))
        assert reflection(b2, e.label) == t


def test_incident_labels_non_proportional(a3_graph):
    def proportional(a, b):
        return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))

    for v in a3_graph.vertices:
        labels = [e.label for e in a3_graph.edges_at(v)]
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                assert not proportional(labels[i], labels[j])


def test_dual_graph_is_label_bijection(b2, b2_group, b2_graph):
    dual = build_moment_graph(b2, b2_group, dual=True)
    assert [(e.lower, e.upper) for e in dual.edges] == [
        (e.lower, e.upper) for e in b2_graph.edges
    ]
    for e, ed in zip(b2_graph.edges, dual.edges):
        assert ed.label == b2.coroot_coords(e.label)
    # B2 is not self-dual: the label multisets differ
    assert sorted(e.label for e in dual.edges) != sorted(
        e.label for e in b2_graph.edges
    )


def test_structure_algebra_check(a1_graph):
    datum = a1_graph.datum
    e = identity(datum)
    s = simple_reflection(datum, 0)
    const = {e: SPoly.constant(1, 5), s: SPoly.constant(1, 5)}
    assert structure_algebra_check(a1_graph, const)
    assert structure_algebra_check(
        a1_graph, {e: SPoly.linear((1,)), s: SPoly.zero(1)}
    )
    assert not structure_algebra_check(
        a1_graph, {e: SPoly.constant(1, 1), s: SPoly.zero(1)}
    )
    with pytest.raises(ValueError):
        structure_algebra_check(a1_graph, {e: SPoly.zero(1)})


def test_structure_algebra_weyl_tuple(a2, a2_graph):
    # z_w = w(alpha1) is a structure-algebra element: z_x - z_{s_a x} is a
    # multiple of a by the reflection formula
    tuples = {
        w: SPoly.linear(w.apply(a2.simple_root(0))) for w in a2_graph.vertices
    }
    assert structure_algebra_check(a2_graph, tuples)


def test_sections_of_constant_sheaf(a1_graph):
    sheaf = constant_sheaf(a1_graph, 6)
    secs = sections(sheaf)
    assert len(secs[0]) == 1
    assert len(secs[2]) == 2
    datum = a1_graph.datum
    e = identity(datum)
    # over a single vertex the sections are the whole stalk (one variable)
    alone = sections(sheaf, subset=[e])
    assert [len(alone[d]) for d in (0, 2, 4)] == [1, 1, 1]
    with pytest.raises(DegreeCapExceeded):
        sections(sheaf, max_degree=8)


def test_sections_restrict_into_smaller_opens(a2_graph):
    # forgetting components over a subset sends sections to sections
    from kmflag._linalg import RowSpan

    sheaf = constant_sheaf(a2_graph, 4)
    big = sections(sheaf)
    small_set = [v for v in a2_graph.vertices if v.length() <= 1]
    small = sections(sheaf, subset=small_set)
    for d in (0, 2, 4):
        ambients = {v: sheaf.vertex_ambient(v) for v in small_set}
        width = sum(ambients[v].dim(d) for v in small_set)
        span = RowSpan(width)
        for sec in small[d]:
            vec = []
            for v in small_set:
                vec.extend(ambients[v].flatten(sec[v], d))
            span.add(vec)
        for sec in big[d]:
            vec = []
            for v in small_set:
                vec.extend(ambients[v].flatten(sec[v], d))
            assert span.contains(vec)


def test_sections_disjoint_union(a2_graph):
    sheaf = constant_sheaf(a2_graph, 2)
    s1 = simple_reflection(a2_graph.datum, 0)
    s2 = simple_reflection(a2_graph.datum, 1)
    both = sections(sheaf, subset=[s1, s2])
    only1 = sections(sheaf, subset=[s1])
    only2 = sections(sheaf, subset=[s2])
    for d in (0, 2):
        assert len(both[d]) == len(only1[d]) + len(only2[d])


def test_structure_algebra_equals_constant_sheaf_sections(a2_graph):
    # degree-0 global sections of the constant sheaf are the constants
    sheaf = constant_sheaf(a2_graph, 2)
    secs = sections(sheaf)
    assert len(secs[0]) == 1


def test_covering_relations(a2_group):
    covers = covering_relations(a2_group)
    assert len(covers) == 8  # S3 Hasse diagram
    for y, xx in covers:
        assert xx.length() == y.length() + 1 and bruhat_leq(y, xx)


def test_affine_graph_edges(affine_a1, affine_a1_graph):
    for e in affine_a1_graph.edges:
        assert affine_a1.is_real_root(e.label)
        assert bruhat_leq(e.lower, e.upper)
    by_vertex = {
        format_word(v): len(affine_a1_graph.edges_at(v))
        for v in affine_a1_graph.vertices
    }
    # the identity is reachable by reflections of every available length gap
    assert by_vertex["e"] >= 4


def _check_edges_against_oracle(ideal):
    graph = build_moment_graph(ideal.datum, ideal)
    oracle = reflection_pair_edges(ideal)
    pairs = [(e.lower, e.upper) for e in graph.edges]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == oracle
    covers = covering_relations(ideal)
    assert len(covers) == len(set(covers))
    assert set(covers) == {(y, x) for y, x in oracle if x.length() == y.length() + 1}


@pytest.mark.parametrize(
    "cartan, bound",
    [
        ([[2, -1], [-2, 2]], None),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], None),
        ([[2, -2], [-2, 2]], 6),
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 4),
    ],
    ids=["b2", "a3", "affine_a1", "hyperbolic"],
)
def test_edges_match_reflection_pair_scan(cartan, bound):
    datum = validate_cartan(cartan)
    ideal = full_weyl_group(datum) if bound is None else enumerate_ideal(datum, bound)
    _check_edges_against_oracle(ideal)


# [[2, -a], [-b, 2]] with a = 0 exactly when b = 0: finite, affine and
# hyperbolic rank-2 matrices alike
RANK2 = st.one_of(
    st.just((0, 0)), st.tuples(st.integers(1, 4), st.integers(1, 4))
)


@settings(derandomize=True, deadline=None, database=None)
@given(RANK2)
def test_rank2_order_and_edges(ab):
    a, b = ab
    datum = validate_cartan([[2, -a], [-b, 2]])
    ideal = enumerate_ideal(datum, 5)
    for y in ideal:
        for w in ideal:
            assert ideal.leq(y, w) == bruhat_leq(y, w)
    _check_edges_against_oracle(ideal)
