"""Cross-validation on root data outside the acceptance set: unequal
symmetrizers, an indefinite kind, and a rank-3 spot check with a
nontrivial stalk."""

from kmflag.bmp import compute_bmp, verify_against_inverse_kl
from kmflag.kl import KLTable, QPoly
from kmflag.moment_graph import build_moment_graph
from kmflag.root_datum import validate_cartan
from kmflag.weyl import enumerate_ideal, full_weyl_group, parse_word


def test_g2_full_cross_validation():
    g2 = validate_cartan([[2, -1], [-3, 2]])
    assert g2.symmetrizer == (3, 1)
    group = full_weyl_group(g2)
    assert len(group) == 12
    graph = build_moment_graph(g2, group)
    assert len(graph.edges) == 6 * 12 // 2
    table = KLTable(group)
    dual = build_moment_graph(g2, group, dual=True)
    for base in group:
        sheaf = compute_bmp(graph, base)
        assert verify_against_inverse_kl(sheaf, table).all_match
        assert compute_bmp(dual, base).stalks == sheaf.stalks


def test_indefinite_rank_two_cross_validation():
    hyp = validate_cartan([[2, -3], [-3, 2]])
    assert hyp.kind == "indefinite"
    ideal = enumerate_ideal(hyp, 4)
    graph = build_moment_graph(hyp, ideal)
    table = KLTable(ideal)
    for base in ideal:
        report = verify_against_inverse_kl(compute_bmp(graph, base), table)
        assert report.all_match


def test_affine_a2_nontrivial_stalks():
    aff2 = validate_cartan([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert aff2.kind == "affine"
    ideal = enumerate_ideal(aff2, 4)
    assert len(ideal) == 31
    graph = build_moment_graph(aff2, ideal)
    table = KLTable(ideal)
    base = parse_word(aff2, "1")
    report = verify_against_inverse_kl(compute_bmp(graph, base), table)
    assert report.all_match
    nontrivial = [e for e in report.entries if e.stalk.degree >= 1]
    assert sorted(e.stalk.coeffs for e in nontrivial) == [(1, 1), (1, 1)]
    sheaf_e = compute_bmp(graph, parse_word(aff2, "e"))
    report_e = verify_against_inverse_kl(sheaf_e, table)
    assert report_e.all_match


def test_b3_nontrivial_stalk_spot_check():
    b3 = validate_cartan([[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    assert b3.symmetrizer == (2, 2, 1)
    group = full_weyl_group(b3)
    assert len(group) == 48
    graph = build_moment_graph(b3, group)
    table = KLTable(group)
    base = parse_word(b3, "1,3,2,1,3")
    report = verify_against_inverse_kl(compute_bmp(graph, base), table)
    assert report.all_match
    nontrivial = [e for e in report.entries if e.stalk.degree >= 1]
    assert len(nontrivial) == 2
    assert all(e.stalk == QPoly((1, 1)) for e in nontrivial)
