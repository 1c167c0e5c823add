import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmflag.bmp import compute_bmp
from kmflag.errors import CrossCheckFailed, DegreeCapExceeded
from kmflag.moment_graph import build_moment_graph, covering_relations
from kmflag.root_datum import RootDatum, validate_cartan
from kmflag.weyl import (
    bruhat_leq,
    enumerate_ideal,
    format_word,
    from_word,
    full_weyl_group,
    identity,
    simple_reflection,
)

from oracles import (
    SPoly,
    constant_sheaf,
    covers_by_scan,
    edges_by_scan,
    reflection_pair_edges,
    restriction_matrix,
    sections,
    structure_algebra_check,
)


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

    for ins, outs in zip(a3_graph.in_edges, a3_graph.out_edges):
        labels = [e.label for e in ins + outs]
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
        width = sum(sheaf.vertex_ambient(v).dim(d) for v in small_set)
        span = RowSpan(width)
        for sec in small[d]:
            span.add([c for v in small_set for c in sec[v]])
        for sec in big[d]:
            assert span.contains([c for v in small_set for c in sec[v]])


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


@pytest.mark.parametrize(
    "graph_fixture, base_word",
    [("a2_graph", None), ("a3_graph", [1])],
    ids=["a2-constant", "a3-bmp-2"],
)
def test_sections_satisfy_edge_equations(graph_fixture, base_word, request):
    # the definition of a section: one degree-d stalk vector per vertex,
    # with equal images in the edge module at both ends of every edge
    graph = request.getfixturevalue(graph_fixture)
    if base_word is None:
        sheaf = constant_sheaf(graph, 4)
    else:
        sheaf = compute_bmp(graph, from_word(graph.datum, base_word))
    for d, basis in sections(sheaf, max_degree=4).items():
        assert basis
        for sec in basis:
            assert list(sec) == list(graph.vertices)
            assert any(any(vec) for vec in sec.values())
            for v, vec in sec.items():
                assert len(vec) == sheaf.vertex_ambient(v).dim(d)
            for e in graph.edges:
                images = [
                    [
                        sum(a * b for a, b in zip(row, sec[v]))
                        for row in restriction_matrix(sheaf, v, e, d)
                    ]
                    for v in (e.lower, e.upper)
                ]
                where = (format_word(e.lower), format_word(e.upper), d)
                assert images[0] == images[1], where


@pytest.fixture(scope="module")
def b2_dual_graph(b2, b2_group):
    return build_moment_graph(b2, b2_group, dual=True)


@pytest.mark.parametrize(
    "graph_fixture, base_words",
    [("a2_graph", None), ("b2_dual_graph", None), ("a3_graph", [[1]])],
    ids=["a2", "b2-dual", "a3-2"],
)
def test_lower_maps_are_the_edge_reductions(graph_fixture, base_words, request):
    # the derived lower-end map of the constant sheaf and of the canonical
    # sheaves (from every base, or from the bases given) is the reduction
    # compute_bmp pushes sections through: column c is free coordinate c
    # reduced into the edge module.  A2 and B2 have stalks of rank 1 only;
    # A3 from s2 has stalks of rank 2, where generator t is not piece 0.
    graph = request.getfixturevalue(graph_fixture)
    if base_words is None:
        bases = graph.vertices
    else:
        bases = [from_word(graph.datum, word) for word in base_words]
    sheaves = [constant_sheaf(graph, 6)]
    sheaves.extend(compute_bmp(graph, base) for base in bases)
    for sheaf in sheaves:
        for e in graph.edges:
            eamb = sheaf.edge_ambient(e)
            for d in range(0, sheaf.degree_cap + 1, 2):
                matrix = restriction_matrix(sheaf, e.lower, e, d)
                dim = sheaf.vertex_ambient(e.lower).dim(d)
                units = [[int(i == c) for i in range(dim)] for c in range(dim)]
                assert [[row[c] for row in matrix] for c in range(dim)] == [
                    eamb.reduce_free(unit, d) for unit in units
                ], (format_word(e.lower), format_word(e.upper), d)


def test_restriction_matrix_needs_an_endpoint(a2_graph):
    sheaf = constant_sheaf(a2_graph, 2)
    e = a2_graph.edges[0]
    other = next(v for v in a2_graph.vertices if v not in (e.lower, e.upper))
    with pytest.raises(ValueError, match="not an endpoint"):
        restriction_matrix(sheaf, other, e, 0)


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
        format_word(v): len(ins) + len(outs)
        for v, ins, outs in zip(
            affine_a1_graph.vertices, affine_a1_graph.in_edges, affine_a1_graph.out_edges
        )
    }
    # the identity is reachable by reflections of every available length gap
    assert by_vertex["e"] >= 4


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
@pytest.mark.parametrize(
    "cartan, bound",
    [
        ([[2, -1], [-1, 2]], None),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], None),
        ([[2, -2], [-2, 2]], 6),
        ([[2, -2, 0], [-2, 2, -1], [0, -1, 2]], 4),
    ],
    ids=["a2", "b3", "affine_a1", "hyperbolic"],
)
def test_incidence_table_is_the_edge_scan(cartan, bound, dual):
    # the build by positions gives the edges, labels and order of the full
    # scan sorted by sort keys, and the covers of the scan; in_edges and
    # out_edges at each vertex are the edges filtered by the upper and by
    # the lower end, in edges order, so every edge sits once in each list
    datum = validate_cartan(cartan)
    ideal = full_weyl_group(datum) if bound is None else enumerate_ideal(datum, bound)
    graph = build_moment_graph(datum, ideal, dual=dual)
    assert list(graph.edges) == edges_by_scan(datum, ideal, dual)
    assert covering_relations(ideal) == covers_by_scan(ideal)
    assert len(graph.in_edges) == len(graph.out_edges) == len(graph.vertices)
    for w, ins, outs in zip(graph.vertices, graph.in_edges, graph.out_edges):
        assert list(ins) == [e for e in graph.edges if e.upper == w]
        assert list(outs) == [e for e in graph.edges if e.lower == w]
    for table in (graph.in_edges, graph.out_edges):
        listed = [e for edges in table for e in edges]
        assert sorted(map(graph.edges.index, listed)) == list(range(len(graph.edges)))


def test_dual_build_checks_every_distinct_label(monkeypatch):
    # rejecting any one coroot label, and that one alone, fails the build
    datum = validate_cartan([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    ideal = full_weyl_group(datum)
    labels = {e.label for e in build_moment_graph(datum, ideal, dual=True).edges}
    assert len(labels) == 9
    is_real_root = RootDatum.is_real_root
    for rejected in sorted(labels):
        monkeypatch.setattr(
            RootDatum, "is_real_root",
            lambda self, beta, *args, rejected=rejected: (
                beta != rejected and is_real_root(self, beta, *args)
            ),
        )
        with pytest.raises(CrossCheckFailed):
            build_moment_graph(datum, ideal, dual=True)


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


@given(RANK2)
def test_rank2_order_and_edges(ab):
    a, b = ab
    datum = validate_cartan([[2, -a], [-b, 2]])
    ideal = enumerate_ideal(datum, 5)
    for y in ideal:
        for w in ideal:
            assert ideal.leq(y, w) == bruhat_leq(y, w)
    _check_edges_against_oracle(ideal)
