import io
import json

import pytest

from kmflag.cli import main


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


def test_multiplicities_table(a2_file):
    status, doc = run_cli(
        "multiplicities", "--cartan", a2_file, "--max-length", "3", "--format", "csv"
    )
    assert status == 0
    lines = doc.strip().splitlines()
    assert lines[0] == "w_word,x_word,multiplicity"
    assert len(lines) == 1 + 36


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
