import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmflag.cli import main

from conftest import GCM_PAIRS, rank3_datum


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    return str(path)


@pytest.fixture()
def affine_file(tmp_path):
    path = tmp_path / "aff.json"
    path.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]]}))
    return str(path)


def run_cli(*args):
    buf = io.StringIO()
    status = main(list(args), out=buf)
    return status, buf.getvalue()


def test_verify_kl_all_pass(a2_file):
    status, doc = run_cli(
        "verify-kl", "--cartan", a2_file, "--max-length", "3", "--base", "e"
    )
    assert status == 0
    payload = json.loads(doc)
    assert payload["all_match"] is True
    assert len(payload["bases"]) == 1
    assert len(payload["bases"][0]["entries"]) == 6


def test_verify_kl_every_base(a2_file):
    status, doc = run_cli("verify-kl", "--cartan", a2_file, "--max-length", "3")
    payload = json.loads(doc)
    assert status == 0 and payload["all_match"]
    assert len(payload["bases"]) == 6


def test_weyl_ideal_rows(a2_file):
    status, doc = run_cli("weyl-ideal", "--cartan", a2_file, "--max-length", "2")
    assert status == 0
    assert len(json.loads(doc)) == 5
    status, doc = run_cli(
        "weyl-ideal", "--cartan", a2_file, "--max-length", "2", "--format", "csv"
    )
    lines = doc.strip().splitlines()
    assert lines[0] == "word,length"
    assert len(lines) == 6


def test_kl_tables(a2_file):
    status, doc = run_cli(
        "kl", "--cartan", a2_file, "--max-length", "3", "--format", "csv"
    )
    assert status == 0
    assert doc.splitlines()[0] == "y_word,w_word,polynomial"
    status, doc = run_cli("inverse-kl", "--cartan", a2_file, "--max-length", "3")
    rows = json.loads(doc)
    assert all(row["coeffs"] == [1] for row in rows)


def test_moment_graph_export(a2_file):
    status, doc = run_cli("moment-graph", "--cartan", a2_file, "--max-length", "3")
    payload = json.loads(doc)
    assert status == 0
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 9
    assert ["e", "1"] in payload["covers"]


def test_bmp_stalks_and_verify(a2_file):
    status, doc = run_cli(
        "bmp", "--cartan", a2_file, "--max-length", "3", "--base", "1", "--verify"
    )
    payload = json.loads(doc)
    assert status == 0
    assert payload["stalks"]["e"] == []
    assert payload["stalks"]["1"] == [0]
    assert payload["report"]["all_match"] is True


def test_roots_command(a2_file, affine_file):
    status, doc = run_cli("roots", "--cartan", a2_file)
    payload = json.loads(doc)
    assert status == 0
    assert payload["kind"] == "finite"
    assert [1, 1] in payload["positive_roots"]
    status, doc = run_cli("roots", "--cartan", affine_file, "--depth", "4")
    payload = json.loads(doc)
    assert payload["delta"] == [1, 1]
    assert payload["imaginary_multiplicity"] == 1


def test_characters_command(a2_file):
    status, doc = run_cli(
        "characters",
        "--cartan",
        a2_file,
        "--pairings",
        "-2,-2",
        "--element",
        "1,2,1",
        "--depth",
        "6",
    )
    payload = json.loads(doc)
    assert status == 0
    assert payload["coefficients"]["0,0"] == 1
    assert all(v >= 0 for v in payload["coefficients"].values())


def test_characters_indefinite_names_unsupported_kind(tmp_path):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"cartan": [[2, -3], [-3, 2]]}))
    status, doc = run_cli(
        "characters", "--cartan", str(path), "--pairings", "-2,-2",
        "--element", "1,2", "--depth", "4",
    )
    assert status == 1
    assert json.loads(doc)["error_code"] == "UnsupportedKind"


def test_multiplicities_table(a2_file):
    status, doc = run_cli(
        "multiplicities", "--cartan", a2_file, "--max-length", "3", "--format", "csv"
    )
    assert status == 0
    lines = doc.strip().splitlines()
    assert lines[0] == "w_word,x_word,multiplicity"
    assert len(lines) == 1 + 36


def test_multiplicities_needs_regular_antidominant_block(a2_file):
    # the dominant Verma Delta(0) is projective, so the pairing 0,0 must not
    # report (P(e.0) : Delta(s1.0)) = 1; -1,-2 is singular
    for pairings in ("0,0", "-1,-2"):
        status, doc = run_cli(
            "multiplicities", "--cartan", a2_file, "--max-length", "2",
            "--pairings", pairings,
        )
        assert status == 1
        assert json.loads(doc)["error_code"] == "PredicateViolation"


def test_negative_depth_rejected(a2_file, affine_file):
    for args in (
        ("characters", "--cartan", a2_file, "--pairings", "-2,-2", "--depth", "-1"),
        ("roots", "--cartan", affine_file, "--depth", "-3"),
    ):
        status, doc = run_cli(*args)
        assert status == 1
        assert json.loads(doc)["error_code"] == "UsageError"


@pytest.mark.parametrize(
    "args, option, letter",
    [
        (("bmp", "--max-length", "3", "--base", "1,x"), "--base", "'x'"),
        (("verify-kl", "--max-length", "3", "--base", "3"), "--base", "3"),
        (("characters", "--pairings", "-2,-2", "--element", "1,,2"), "--element", "''"),
    ],
    ids=["bmp-bad-letter", "verify-kl-out-of-range", "characters-empty-letter"],
)
def test_bad_word_names_option_and_letter(a2_file, args, option, letter):
    status, doc = run_cli(args[0], "--cartan", a2_file, *args[1:])
    payload = json.loads(doc)
    assert status == 1
    assert payload["error_code"] == "UsageError"
    assert option in payload["message"]
    assert letter in payload["message"]


def test_negative_max_length_rejected(a2_file):
    for command in ("weyl-ideal", "bmp"):
        status, doc = run_cli(command, "--cartan", a2_file, "--max-length", "-1")
        payload = json.loads(doc)
        assert status == 1
        assert payload["error_code"] == "UsageError"
        assert "--max-length" in payload["message"]

def test_strata_command(a2_file):
    status, doc = run_cli("strata", "--cartan", a2_file, "--max-length", "3")
    payload = json.loads(doc)
    assert status == 0
    by_word = {row["word"]: row["dimension"] for row in payload}
    assert by_word["e"] == 3
    assert by_word["1,2,1"] == 0


def test_verify_kl_dual_graph(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]]}))
    status, doc = run_cli(
        "verify-kl", "--cartan", str(path), "--max-length", "4", "--dual"
    )
    assert status == 0
    assert json.loads(doc)["all_match"] is True


def test_malformed_cartan_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cartan": [[2, -1], [0, 2]]}))
    status, doc = run_cli("kl", "--cartan", str(bad), "--max-length", "2")
    assert status == 1
    assert json.loads(doc)["error_code"] == "NotGCM"


def test_size_limit_exit_three(affine_file):
    status, doc = run_cli(
        "weyl-ideal",
        "--cartan",
        affine_file,
        "--max-length",
        "40",
        "--size-limit",
        "10",
    )
    assert status == 3
    assert json.loads(doc)["error_code"] == "SizeLimitExceeded"


def test_size_limit_below_one_rejected(affine_file, monkeypatch):
    args = ("weyl-ideal", "--cartan", affine_file, "--max-length", "2")
    for extra in (("--size-limit", "-1"), ("--size-limit", "0")):
        status, doc = run_cli(*args, *extra)
        assert status == 1
        assert json.loads(doc)["error_code"] == "UsageError"
    for env in ("-1", "abc"):
        monkeypatch.setenv("KMFLAG_SIZE_LIMIT", env)
        status, doc = run_cli(*args)
        assert status == 1
        assert json.loads(doc)["error_code"] == "UsageError"
    assert "KMFLAG_SIZE_LIMIT" in json.loads(doc)["message"]


@pytest.mark.parametrize(
    "cap, status, code",
    [("2", 3, "CapBoundaryGenerator"), ("3", 1, "UsageError"), ("-2", 1, "UsageError")],
)
def test_bmp_degree_cap_override_errors(a2_file, cap, status, code):
    # cap 2 leaves no margin above the base generator; an odd or negative
    # cap is a usage error that names the option
    got, doc = run_cli(
        "bmp", "--cartan", a2_file, "--max-length", "3", "--base", "e",
        "--degree-cap-override", cap,
    )
    assert got == status
    assert json.loads(doc)["error_code"] == code
    if code == "UsageError":
        assert "--degree-cap-override" in json.loads(doc)["message"]


def test_size_limit_env_var(affine_file, monkeypatch):
    monkeypatch.setenv("KMFLAG_SIZE_LIMIT", "10")
    status, doc = run_cli("weyl-ideal", "--cartan", affine_file, "--max-length", "40")
    assert status == 3


def test_unknown_flag_rejected(a2_file):
    status, doc = run_cli("kl", "--cartan", a2_file, "--max-length", "2", "--depth", "3")
    assert status == 1
    assert json.loads(doc)["error_code"] == "UsageError"


def test_threads_option_removed(a2_file):
    status, doc = run_cli("kl", "--cartan", a2_file, "--max-length", "2", "--threads", "2")
    assert status == 1
    assert json.loads(doc)["error_code"] == "UsageError"


def test_byte_determinism(a2_file):
    args = ("verify-kl", "--cartan", a2_file, "--max-length", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    args = ("bmp", "--cartan", a2_file, "--max-length", "3", "--base", "e")
    assert run_cli(*args) == run_cli(*args)


@given(st.tuples(GCM_PAIRS, GCM_PAIRS, GCM_PAIRS))
def test_rank3_cli_runs_are_byte_identical(tmp_path_factory, pairs):
    datum = rank3_datum(pairs)
    path = tmp_path_factory.mktemp("gcm") / "cartan.json"
    path.write_text(json.dumps({"cartan": [list(row) for row in datum.cartan]}))
    for command in ("weyl-ideal", "moment-graph", "kl", "strata"):
        args = (command, "--cartan", str(path), "--max-length", "4")
        first = run_cli(*args)
        assert first[0] == 0, first[1]
        assert run_cli(*args) == first, command
