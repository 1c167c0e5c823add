"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Everything is exact: comparisons are coefficientwise with zero
tolerance."""

import io
import json
import random

import pytest

from kmflag.bmp import compute_bmp, verify_against_inverse_kl
from kmflag.errors import CapBoundaryGenerator
from kmflag.category_o import (
    SheafTable,
    antidominant_block,
    irreducible_character,
    jh_multiplicity,
    projective_verma_multiplicity,
)
from kmflag.cli import main as cli_main
from kmflag.graded_algebra import minimal_generators
from kmflag.kl import KLTable, QPoly
from kmflag.moment_graph import build_moment_graph
from kmflag.weyl import (
    bruhat_leq,
    enumerate_ideal,
    ideal_from_generators,
    simple_reflection,
    sj_complement,
    stratum_dimension,
)

from oracles import KLOracle, bruhat_closure_oracle
from test_graded_algebra import _module, _random_module, _respan


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def ideals(a2_group, b2_group, a3_group, affine_a1_ideal6):
    return {
        "A2": a2_group,
        "B2": b2_group,
        "A3": a3_group,
        "affine A1 (l<=6)": affine_a1_ideal6,
    }


@pytest.fixture(scope="module")
def tables(ideals):
    return {name: KLTable(ideal) for name, ideal in ideals.items()}


def test_criterion_1_central_cross_validation(ideals, tables):
    checked = 0
    ok = True
    for name, ideal in ideals.items():
        graph = build_moment_graph(ideal.datum, ideal)
        table = tables[name]
        for base in ideal:
            report = verify_against_inverse_kl(compute_bmp(graph, base), table)
            ok = ok and report.all_match
            checked += len(report.entries)
    _report(1, f"BMP stalk polynomials equal inverse KL on {checked} pairs", ok)


def test_criterion_2_inversion_identity(ideals, tables):
    ok = True
    for name, ideal in ideals.items():
        table = tables[name]
        for x in ideal:
            for w in ideal:
                acc = QPoly()
                for y in ideal:
                    if bruhat_leq(x, y) and bruhat_leq(y, w):
                        term = table.kl_polynomial(x, y) * table.inverse_kl(y, w)
                        if (y.length() - x.length()) % 2:
                            acc = acc - term
                        else:
                            acc = acc + term
                expected = QPoly((1,)) if x == w else QPoly()
                ok = ok and acc == expected
    _report(2, "signed P*Q inversion identity is the identity matrix", ok)


def test_criterion_3_order_oracle(a2_group, a3_group, b2_group, affine_a1_ideal6):
    ok = True
    for ideal in (a2_group, a3_group, b2_group, affine_a1_ideal6):
        closure = bruhat_closure_oracle(ideal)
        for y in ideal:
            for x in ideal:
                ok = ok and bruhat_leq(y, x) == ((y, x) in closure)
    _report(3, "bruhat_leq equals the covering-closure oracle on S3, S4, B2, affine A1", ok)


def test_criterion_4_degree_bounds(ideals, tables, a3_group):
    ok = True
    for name, ideal in ideals.items():
        table = tables[name]
        for x in ideal:
            for w in ideal:
                if x == w or not bruhat_leq(x, w):
                    continue
                bound = (w.length() - x.length() - 1) // 2
                ok = ok and table.kl_polynomial(x, w).degree <= bound
                ok = ok and table.inverse_kl(x, w).degree <= bound
    oracle = KLOracle(a3_group)
    oracle_q = oracle.inverse_kl_matrix()
    nontrivial = [
        (x, w)
        for x in a3_group
        for w in a3_group
        if oracle_q[(x, w)].degree >= 1
    ]
    ok = ok and len(nontrivial) > 0
    for x, w in nontrivial:
        ok = ok and tables["A3"].inverse_kl(x, w) == oracle_q[(x, w)]
    _report(
        4,
        f"degree bounds hold; {len(nontrivial)} positive-degree Q found in A3 by the oracle",
        ok,
    )


def test_criterion_5_stratum_dimensions(a2, affine_a1):
    rng = random.Random(20240815)
    ok = True
    count = 0
    for datum, bound in ((a2, 3), (affine_a1, 5)):
        pool = list(enumerate_ideal(datum, bound))
        for _ in range(10):
            gens = rng.sample(pool, rng.randint(1, 3))
            ideal = ideal_from_generators(datum, gens)
            comp = sj_complement(ideal)
            for x in ideal:
                # stratum_dimension asserts the direct count equals the
                # complement-minus-length formula before returning
                ok = ok and stratum_dimension(x, ideal) == len(comp) - x.length()
            count += 1
    _report(5, f"stratum dimension formulas agree on {count} randomized ideals", ok)


def test_criterion_6_bgg_reciprocity(a2_group, b2_group):
    ok = True
    for group in (a2_group, b2_group):
        datum = group.datum
        table = KLTable(group)
        block = antidominant_block(datum, group)
        sheaves = SheafTable(build_moment_graph(datum, group, dual=True))
        for w in group:
            for x in group:
                value = projective_verma_multiplicity(block, w, x, sheaves, table)
                ok = ok and value == jh_multiplicity(block, x, w, table)
    _report(6, "BGG reciprocity holds on all A2 and B2 pairs", ok)


def test_criterion_7_characters(a1, a1_group, a2_group, b2_group):
    blk1 = antidominant_block(a1, a1_group)
    table1 = KLTable(a1_group)
    s = simple_reflection(a1, 0)
    ch = irreducible_character(blk1, s, 20, table1)
    ok = ch.coeffs == {(0,): 1}
    for group in (a2_group, b2_group):
        blk = antidominant_block(group.datum, group)
        table = KLTable(group)
        for w in group:
            chw = irreducible_character(blk, w, 10, table)
            ok = ok and all(v >= 0 for v in chw.coeffs.values())
    _report(7, "sl2 block collapses to the delta series; A2/B2 characters nonnegative", ok)


def test_criterion_8_robustness(b2, b2_group):
    rng = random.Random(20240816)
    graph = build_moment_graph(b2, b2_group)
    dual = build_moment_graph(b2, b2_group, dual=True)
    ok = True
    for base in graph.vertices:
        reference = compute_bmp(graph, base).stalks
        support = [v for v in graph.vertices if bruhat_leq(base, v)]
        for _ in range(2):
            by_length = {}
            for v in support:
                by_length.setdefault(v.length(), []).append(v)
            shuffled = []
            for length in sorted(by_length):
                block = by_length[length]
                rng.shuffle(block)
                shuffled.extend(block)
            ok = ok and compute_bmp(graph, base, order=shuffled).stalks == reference
        ok = ok and compute_bmp(dual, base).stalks == reference
    done = 0
    while done < 50:
        amb, gens = _random_module(rng)
        try:
            degs, _ = minimal_generators(_module(amb, gens, 12))
        except CapBoundaryGenerator:
            continue
        degs2, _ = minimal_generators(_module(amb, _respan(amb, gens, rng), 12))
        ok = ok and degs == degs2
        done += 1
    _report(
        8,
        "BMP order-independence and dual-rank equality on B2; 50 presentation-independent sweeps",
        ok,
    )


def test_criterion_9_cli_determinism(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))

    def run(*args):
        buf = io.StringIO()
        status = cli_main(list(args), out=buf)
        return status, buf.getvalue().encode()

    ok = True
    for args in (
        ("verify-kl", "--cartan", str(path), "--max-length", "3"),
        ("kl", "--cartan", str(path), "--max-length", "3", "--format", "csv"),
        ("bmp", "--cartan", str(path), "--max-length", "3", "--base", "1", "--verify"),
        ("multiplicities", "--cartan", str(path), "--max-length", "3", "--format", "csv"),
    ):
        first = run(*args)
        second = run(*args)
        ok = ok and first == second and first[0] == 0
    _report(9, "repeated CLI runs are byte-identical", ok)
