import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kmflag
from kmflag.cli import _COMMANDS, _OPTIONS, _CliError, _flags, _json_doc, _parse, main

from conftest import GCM_PAIRS, rank3_datum
from oracles import parse_by_argparse


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


def test_roots_depth_over_size_limit(tmp_path):
    # affine A2 has about two positive real roots per unit of height, so
    # depth 20 holds more than 10 of them
    path = tmp_path / "affine_a2.json"
    path.write_text(json.dumps({"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}))
    args = ("roots", "--cartan", str(path), "--depth", "20")
    status, doc = run_cli(*args, "--size-limit", "10")
    assert status == 3
    assert json.loads(doc)["error_code"] == "SizeLimitExceeded"
    assert run_cli(*args)[0] == 0


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


GOLDEN_CARTANS = {
    "a2": [[2, -1], [-1, 2]],
    "affine_a1": [[2, -2], [-2, 2]],
    "affine_c2": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
}

#: stdout SHA-256 of every command on A2 (l <= 3) and affine A1 (l <= 4), in
#: each format and with --dual / --verify where the command offers them;
#: and the paper's check on affine C2 (l <= 9), the smallest input found
#: where mu >= 2 changes inverse KL polynomials (status 0: all_match)
GOLDEN = (
    ("affine_c2", "verify-kl --max-length 9 --base e",
     "e06b2a35382b773ca9b82bccb1d8fbbdd5b20667a2860c37ddfc6b5200d077d0"),
    ("a2", "roots",
     "f79fc035a21e5d5ba9e4f92393981b05ceaf02c8a28ded757d3d8f1f2e819e63"),
    ("a2", "weyl-ideal --max-length 3",
     "3dce2145709472a1dbf39d643f5ba253b9d6650fd4e5bccf350e2852c8bec492"),
    ("a2", "weyl-ideal --max-length 3 --format csv",
     "39796a33c5a9076265c2c47947d0260a2c15fec0051506ecb26ef8636226317c"),
    ("a2", "kl --max-length 3",
     "452c70815195fa4f90248d447491ce5bf8d2c3c75e38e2f1f1233a88d9e407d4"),
    ("a2", "kl --max-length 3 --format csv",
     "12440ba38ecf2ad5031a1419c6ad6eeb7db46a26a7a38e8bd4cfb7f06304587a"),
    ("a2", "inverse-kl --max-length 3",
     "452c70815195fa4f90248d447491ce5bf8d2c3c75e38e2f1f1233a88d9e407d4"),
    ("a2", "inverse-kl --max-length 3 --format csv",
     "12440ba38ecf2ad5031a1419c6ad6eeb7db46a26a7a38e8bd4cfb7f06304587a"),
    ("a2", "multiplicities --max-length 3",
     "685e918e91f07208d823a3ee4d7243309ae37722ca90d03771100ba3e17ef1b1"),
    ("a2", "multiplicities --max-length 3 --format csv",
     "8c8a8b50ccea6310c056fab1747ca264aff60a006d593e9a1b6dc512d7b07464"),
    ("a2", "strata --max-length 3",
     "f3248343d0f9e3a4d418f42627cfd2b765a9669c73a5aad3eab5623bc876d58b"),
    ("a2", "strata --max-length 3 --format csv",
     "79e692c31d69f71127a8bf37cc3c4f3fa96e754d4b438a96e0de4d31280d3a1b"),
    ("a2", "moment-graph --max-length 3",
     "f64a73c064a536b3fc41f0267e8ba8724e9975cef4e5993bd0f8b6c2b309cc89"),
    ("a2", "verify-kl --max-length 3",
     "e744712eb535df9dbfb1c64aac590de6610d1a2321a8ba92eedeabf580b97c86"),
    ("a2", "moment-graph --max-length 3 --dual",
     "f62945887e38fcb72e59be0c1b63cd46b8a98d2a9b76274f248b0a48b6fac068"),
    ("a2", "verify-kl --max-length 3 --dual",
     "e744712eb535df9dbfb1c64aac590de6610d1a2321a8ba92eedeabf580b97c86"),
    ("a2", "bmp --max-length 3 --base 1",
     "6cc1fc973897c27dd1441ee7225945d768d76fd8fae588f0a635c70f7d654b2d"),
    ("a2", "bmp --max-length 3 --base 1 --dual",
     "9194817ab08a7686f6c61d8dea450b2469641ed0f8f018fc7731ac770c9baa44"),
    ("a2", "bmp --max-length 3 --base 1 --verify",
     "fc43f1456da0634738821852da40f35c8c12157d346704b56c1cf2a13496750f"),
    ("a2", "bmp --max-length 3 --base 1 --dual --verify",
     "4975b36c31bd952e75189b45caa638bfb78a3d4e124c8f42fb8ce25d71ad4bdd"),
    ("a2", "characters --pairings -2,-2 --element 1,2,1 --depth 6",
     "f137d3471aeb39df33e2286cb0a94b68e8fac51dc73fbd289f2816db5f8a10b6"),
    ("affine_a1", "roots --depth 4",
     "4dddb6e49a5f059facd468ee501dfb0943356b7ac8f00921753beb47ae36620f"),
    ("affine_a1", "weyl-ideal --max-length 4",
     "8719ab1ef86ccde2ab39af2b00940300d490a80c93471b0db4e34a536fce13b8"),
    ("affine_a1", "weyl-ideal --max-length 4 --format csv",
     "45730d4bc6836676aea1eb81abfb051965035bec6e5f7fc273a28f72b3b6f223"),
    ("affine_a1", "kl --max-length 4",
     "abe5a57be70ce7eb5ac7f54ddb2df69a49b1a7e313de2329fa2a04d25428d339"),
    ("affine_a1", "kl --max-length 4 --format csv",
     "a481a0b9ef2537fbe85088b1308e6e51e496fbea9c16cea20914ed22a811a614"),
    ("affine_a1", "inverse-kl --max-length 4",
     "abe5a57be70ce7eb5ac7f54ddb2df69a49b1a7e313de2329fa2a04d25428d339"),
    ("affine_a1", "inverse-kl --max-length 4 --format csv",
     "a481a0b9ef2537fbe85088b1308e6e51e496fbea9c16cea20914ed22a811a614"),
    ("affine_a1", "multiplicities --max-length 4",
     "fa9b48d81667cf5277766d4a014d0cb994af73a00396700750ed81bfe0cda7bf"),
    ("affine_a1", "multiplicities --max-length 4 --format csv",
     "bbe29238e920151378577c57b90e83622baf9a4a4354f1c41aaffd1d3448ecb1"),
    ("affine_a1", "strata --max-length 4",
     "bc756f67ebd4d7a8ad26986db9055b419270ba997823ec9306a2fa85751c4bf2"),
    ("affine_a1", "strata --max-length 4 --format csv",
     "c5f34e8927f3af96698d47aa26e606f5ef06aa09a108b97997e62e94e94bad38"),
    ("affine_a1", "moment-graph --max-length 4",
     "c6825415971e0972757e225cf15017c233bacc3c08d0560369ba8fb1cfac675f"),
    ("affine_a1", "verify-kl --max-length 4",
     "a21c0ae907efb296abbff5b1bda06880fafd54537d3c565ff4991cd75e64594c"),
    ("affine_a1", "moment-graph --max-length 4 --dual",
     "358f7a6a6f64a393fe79a2a02354d404cb7bdc73bb51205ab77664b4dc8853ca"),
    ("affine_a1", "verify-kl --max-length 4 --dual",
     "a21c0ae907efb296abbff5b1bda06880fafd54537d3c565ff4991cd75e64594c"),
    ("affine_a1", "bmp --max-length 4 --base 1",
     "0c298b46e90c835c38fb1cdcefc6481d8094f663c373d7b9845d626f9c13520a"),
    ("affine_a1", "bmp --max-length 4 --base 1 --dual",
     "4001e5689ca1e2968cbce0009e118a71b3bf5cf953c2cf9863b7d7021bfe4dc5"),
    ("affine_a1", "bmp --max-length 4 --base 1 --verify",
     "cbe905e39f7e5fc1bc67480873817687a11a17c1f171360999f10e0103f102c5"),
    ("affine_a1", "bmp --max-length 4 --base 1 --dual --verify",
     "ed926563f88a0d449d49cb5b6b83ac58590d56c6b300f6981b3f7c41281b3458"),
    ("affine_a1", "characters --pairings -2,-2 --element 1,2 --depth 4",
     "f8639a26d4850e53f6dfd8e6e8ae5b88f5cbd3c9b3c294fbc34c8cdc55b77973"),
)


@pytest.mark.parametrize(
    "cartan, args, sha", GOLDEN, ids=[f"{c} {a}" for c, a, _ in GOLDEN]
)
def test_golden_output(tmp_path, monkeypatch, cartan, args, sha):
    monkeypatch.delenv("KMFLAG_SIZE_LIMIT", raising=False)
    path = tmp_path / f"{cartan}.json"
    path.write_text(json.dumps({"cartan": GOLDEN_CARTANS[cartan]}))
    command, *rest = args.split()
    status, doc = run_cli(command, "--cartan", str(path), *rest)
    assert status == 0, doc
    assert hashlib.sha256(doc.encode()).hexdigest() == sha


#: the stage modules each command loads in a fresh process beyond those every
#: command loads (errors, _linalg, root_datum and weyl); json is the
#: default format, so a "--format json" run's pin is that of the plain run
FRESH = (
    ("roots", ()),
    ("weyl-ideal --max-length 3 --format csv", ()),
    ("kl --max-length 3 --format json", ("kl",)),
    ("inverse-kl --max-length 3 --format csv", ("kl",)),
    ("strata --max-length 3", ()),
    ("moment-graph --max-length 3", ("moment_graph",)),
    ("bmp --max-length 3 --base 1 --verify",
     ("bmp", "graded_algebra", "kl", "moment_graph")),
    ("verify-kl --max-length 3", ("bmp", "graded_algebra", "kl", "moment_graph")),
    ("characters --pairings -2,-2 --element 1,2,1 --depth 6",
     ("bmp", "category_o", "graded_algebra", "kl", "moment_graph")),
    ("multiplicities --max-length 3 --format csv",
     ("bmp", "category_o", "graded_algebra", "kl", "moment_graph")),
)


def _fresh_env():
    """The environment of a fresh `python` process that imports this kmflag."""
    env = {k: v for k, v in os.environ.items() if k != "KMFLAG_SIZE_LIMIT"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(kmflag.__file__))
    return env


def _loaded_modules(*args):
    """The status, stdout and loaded modules of `python -v *args`: -v logs
    every module loaded, including those imported through importlib."""
    done = subprocess.run([sys.executable, "-v", *args], env=_fresh_env(),
                          capture_output=True)
    loaded = set(re.findall(r"^import '([\w.]+)'", done.stderr.decode(), re.M))
    return done.returncode, done.stdout, loaded


@pytest.fixture(scope="module")
def startup_modules():
    """What `python -c pass` loads here: `site` differs between machines."""
    return _loaded_modules("-c", "pass")[2]


@pytest.mark.parametrize("args, stages", FRESH, ids=[a.split()[0] for a, _ in FRESH])
def test_fresh_process_loads_only_its_stages(tmp_path, startup_modules, args, stages):
    # in process, another test's imports could hide a handler's missing one
    sha = {a: h for c, a, h in GOLDEN if c == "a2"}[args.replace(" --format json", "")]
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": GOLDEN_CARTANS["a2"]}))
    command, *rest = args.split()
    status, stdout, loaded = _loaded_modules(
        "-m", "kmflag.cli", command, "--cartan", str(path), *rest
    )
    assert status == 0, stdout
    assert hashlib.sha256(stdout).hexdigest() == sha
    assert {m for m in loaded if m.startswith("kmflag.")} == {
        f"kmflag.{m}"
        for m in ("_linalg", "_value", "errors", "root_datum", "weyl", *stages)
    }
    assert ("csv" in loaded) == ("--format csv" in args)
    # the pipeline builds no rationals: every number is an int
    assert not {"fractions", "decimal"} & loaded
    # the command line is parsed without argparse and its gettext and locale
    assert not {"argparse", "gettext", "locale"} & (loaded - startup_modules)


#: how each entry point is started: `python -m kmflag.cli`, and the console
#: script's function (the script itself is not installed here)
ENTRY_POINTS = {
    "module": ["-m", "kmflag.cli"],
    "script": ["-c", "from kmflag.cli import run; run()"],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_process_exit_path(tmp_path, entry):
    # gc.freeze() runs after main() has written its document: the bytes and
    # the status are main()'s, on success and on a resource-guard error
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"cartan": GOLDEN_CARTANS["a2"]}))

    def cli(*args):
        return subprocess.run(
            [sys.executable, *ENTRY_POINTS[entry], args[0], "--cartan", str(path),
             *args[1:]],
            env=_fresh_env(), capture_output=True,
        )

    args = "bmp --max-length 3 --base 1 --verify"
    done = cli(*args.split())
    assert done.returncode == 0, done.stderr
    sha = {a: h for c, a, h in GOLDEN if c == "a2"}[args]
    assert hashlib.sha256(done.stdout).hexdigest() == sha
    done = cli("bmp", "--max-length", "3", "--base", "e", "--degree-cap-override", "2")
    assert done.returncode == 3, done.stderr
    assert done.stdout.decode() == json.dumps(
        {
            "error_code": "CapBoundaryGenerator",
            "message": "generator in degree 0 within one step of cap 2 at 1",
        },
        indent=2,
    ) + "\n"
    assert done.stderr == b""


def test_main_leaves_the_collector_alone(a2_file):
    frozen = gc.get_freeze_count()
    assert run_cli("verify-kl", "--cartan", a2_file, "--max-length", "3")[0] == 0
    assert run_cli("bmp", "--cartan", a2_file, "--max-length", "3",
                   "--degree-cap-override", "2")[0] == 3
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "args",
    [
        ("kl", "--max-length", "2", "--dual"),
        ("strata", "--max-length", "2", "--verify"),
        ("roots", "--max-length", "2"),
        ("characters", "--pairings", "-2,-2", "--format", "csv"),
        ("moment-graph", "--max-length", "2", "--base", "e"),
        ("verify-kl", "--max-length", "2", "--verify"),
    ],
    ids=["kl-dual", "strata-verify", "roots-max-length", "characters-format",
         "moment-graph-base", "verify-kl-verify"],
)
def test_other_commands_option_rejected(a2_file, args):
    status, doc = run_cli(args[0], "--cartan", a2_file, *args[1:])
    payload = json.loads(doc)
    assert status == 1
    assert payload["error_code"] == "UsageError"
    assert "unrecognized arguments" in payload["message"]


@pytest.mark.parametrize(
    "args",
    [
        ("bmp", "--car", "{a2}", "--max-length", "2"),
        ("bmp", "--cartan", "{a2}", "--max", "2", "--ver", "--deg", "6"),
        ("roots", "--cartan", "{a2}", "--dep", "3"),
        ("characters", "--cartan", "{a2}", "--pair=-2,-2"),
    ],
    ids=["car", "max-ver-deg", "dep", "pair"],
)
def test_option_prefixes_rejected(a2_file, args):
    status, doc = run_cli(*(arg.format(a2=a2_file) for arg in args))
    assert status == 1
    assert json.loads(doc)["error_code"] == "UsageError"


def test_ideal_max_length_alias_removed(a2_file):
    status, doc = run_cli("weyl-ideal", "--cartan", a2_file, "--ideal-max-length", "2")
    payload = json.loads(doc)
    assert status == 1
    assert payload == {
        "error_code": "UsageError",
        "message": "the following arguments are required: --max-length",
    }


def test_characters_requires_pairings(tmp_path, capsys):
    # the parser rejects it before the Cartan file is read, in argparse's
    # order (missing flags before unrecognized tokens), and the help says
    # so; multiplicities keeps --pairings optional (all -2 by default)
    missing = str(tmp_path / "missing.json")
    for args, message in [
        (("--cartan", missing), "--pairings"),
        (("--element", "1", "--bogus"), "--cartan, --pairings"),
    ]:
        status, doc = run_cli("characters", *args)
        assert status == 1
        assert json.loads(doc) == {
            "error_code": "UsageError",
            "message": "the following arguments are required: " + message,
        }
    for command, shown in [("characters", " --pairings PAIRINGS "),
                           ("multiplicities", " [--pairings PAIRINGS] ")]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert shown in capsys.readouterr().out.splitlines()[0]


def test_roots_indefinite_names_supported_kinds(tmp_path):
    path = tmp_path / "hyperbolic3.json"
    path.write_text(json.dumps({"cartan": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]}))
    status, doc = run_cli("roots", "--cartan", str(path))
    payload = json.loads(doc)
    assert status == 1
    assert payload["error_code"] == "UnsupportedKind"
    assert "finite or untwisted affine kind" in payload["message"]


def test_characters_depth_over_size_limit(a2_file, tmp_path, monkeypatch):
    # depth 10 on a rank-2 datum is a table of C(12, 2) = 66 lattice points
    args = ("characters", "--cartan", a2_file, "--pairings", "-2,-2", "--depth", "10")
    status, doc = run_cli(*args, "--size-limit", "50")
    payload = json.loads(doc)
    assert status == 3
    assert payload["error_code"] == "SizeLimitExceeded"
    assert "66" in payload["message"] and "50" in payload["message"]
    monkeypatch.setenv("KMFLAG_SIZE_LIMIT", "65")
    assert run_cli(*args)[0] == 3
    monkeypatch.setenv("KMFLAG_SIZE_LIMIT", "66")
    assert run_cli(*args)[0] == 0
    # indefinite data has no table to bound: it still names its kind
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"cartan": [[2, -3], [-3, 2]]}))
    status, doc = run_cli(
        "characters", "--cartan", str(path), "--pairings", "-2,-2",
        "--element", "1,2", "--depth", "10", "--size-limit", "5",
    )
    assert status == 1
    assert json.loads(doc)["error_code"] == "UnsupportedKind"


@pytest.mark.parametrize(
    "cartan",
    [[[2, 0, 0], [0, 2, -2], [0, -2, 2]], [[2, 0, 0], [0, 2, -1], [0, -4, 2]]],
    ids=["A1+A1^(1)", "A1+A2^(2)"],
)
def test_decomposable_affine_component_unsupported(tmp_path, cartan):
    path = tmp_path / "decomposable.json"
    path.write_text(json.dumps({"cartan": cartan}))
    for args, message in (
        (("roots",), "real roots need finite or untwisted affine kind"),
        (
            ("characters", "--pairings", "-2,-2,-2", "--element", "1", "--depth", "4"),
            "partition counts need finite or untwisted affine kind",
        ),
    ):
        status, doc = run_cli(args[0], "--cartan", str(path), *args[1:])
        assert status == 1, doc
        assert json.loads(doc) == {"error_code": "UnsupportedKind", "message": message}


def test_roots_relabelled_untwisted_g2(tmp_path):
    # G2^(1) with alpha_0 numbered last: delta = 3 alpha_1 + 2 alpha_2 + alpha_0
    path = tmp_path / "g2_affine.json"
    path.write_text(json.dumps({"cartan": [[2, -3, 0], [-1, 2, -1], [0, -1, 2]]}))
    status, doc = run_cli("roots", "--cartan", str(path), "--depth", "4")
    payload = json.loads(doc)
    assert status == 0, doc
    assert payload["kind"] == "affine"
    assert payload["delta"] == [3, 2, 1]
    assert payload["imaginary_multiplicity"] == 2


COMMAND_LIST = (
    "{roots,weyl-ideal,kl,inverse-kl,moment-graph,bmp,verify-kl,characters,"
    "multiplicities,strata}"
)


def test_help_lists_every_command(capsys):
    # "--help" names no command, so the help lists them all
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    listing = lines.index("positional arguments:") + 1
    assert lines[listing] == "  " + COMMAND_LIST


@pytest.mark.parametrize("command", _COMMANDS)
def test_command_help_lists_its_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-length", "2", "--help", "--bogus"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    assert re.findall(r"^  (--[\w-]+)", options, re.M) == [
        "--cartan", "--size-limit", *_COMMANDS[command][1]
    ]


@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_help_flag_is_no_value(help_flag):
    # as with argparse, -h/--help where a value is due is a usage error
    status, doc = run_cli("kl", "--max-length", "2", "--cartan", help_flag)
    assert status == 1
    assert json.loads(doc) == {
        "error_code": "UsageError",
        "message": "argument --cartan: expected one argument",
    }


@pytest.mark.parametrize(
    "args, flag",
    [
        (("kl", "--max-length", "2", "--format", "json", "--format", "csv"), "--format"),
        (("kl", "--max-length", "2", "--format=csv", "--max-length=3"), "--max-length"),
        (("bmp", "--max-length", "2", "--dual", "--dual"), "--dual"),
    ],
    ids=["format", "max-length", "dual"],
)
def test_repeated_option_rejected(a2_file, args, flag):
    # every option has one spelling, given once: a second value does not win
    status, doc = run_cli(args[0], "--cartan", a2_file, *args[1:])
    assert status == 1
    assert json.loads(doc) == {
        "error_code": "UsageError",
        "message": f"argument {flag}: may be given only once",
    }


def _flag_values(flag):
    """Valid and invalid values of one option, as argv tokens.  "--" is not
    drawn: argparse read it as the end of the options, and no command has
    anything to read after that."""
    spec = _OPTIONS[flag]
    if "type" in spec:
        return st.sampled_from(("0", "3", "12", "-1", " 2", "x", "1.5", "-x", ""))
    if "choices" in spec:
        return st.sampled_from((*spec["choices"], "xml", ""))
    return st.sampled_from(("a2.json", "1,2", "e", "-2,-2", "-1", "x=y", ""))


@st.composite
def _argvs(draw):
    """A command and tokens drawn from its flags: each missing, alone, with
    a value or as --flag=value; another command's flag, an option prefix,
    and maybe a flag dangling at the end, in any order."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = _flags(command)
    pieces = []
    for flag in flags:
        form = draw(st.sampled_from(("missing", "alone", "value", "value", "value", "=")))
        if form == "missing":
            continue
        if form == "=":
            pieces.append([f"{flag}={draw(_flag_values(flag))}"])
        elif form == "alone" or "action" in _OPTIONS[flag]:
            pieces.append([flag])
        else:
            pieces.append([flag, draw(_flag_values(flag))])
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.sampled_from(sorted(set(_OPTIONS) - set(flags)) or ["--bogus"]))
        prefix = draw(st.sampled_from(flags))
        prefix = prefix[: draw(st.integers(3, len(prefix) - 1))]
        token = draw(st.sampled_from((other, prefix)))
        pieces.append(draw(st.sampled_from(([token], [token, draw(_flag_values(other))]))))
    argv = [command, *(t for piece in draw(st.permutations(pieces)) for t in piece)]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(flags)))
    return argv


#: a token argparse reads as a negative number, so as a value
_ARGPARSE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _deliberate_difference(argv):
    """Whether the parsers part on argv by design: a repeated option, or a
    value that begins with "-" and is not a flag, which argparse read as an
    unknown option (its front end glued any token that begins with "-" onto
    a preceding --pairings instead, flag or not, own option or not)."""
    flags = _flags(argv[0])
    names = [token.partition("=")[0] for token in argv[1:]]
    if any(names.count(flag) > 1 for flag in flags):
        return True
    for prev, token in zip(argv[1:], argv[2:]):
        if not token.startswith("-"):
            continue
        is_flag = token.partition("=")[0] in flags
        if prev == "--pairings":
            if is_flag or prev not in flags:
                return True
        elif (prev in flags and "action" not in _OPTIONS[prev] and not is_flag
              and not _ARGPARSE_NUMBER.match(token)):
            return True
    return False


def _parsed(parse, argv):
    """The option values parse reads off argv, or its usage error."""
    try:
        return vars(parse(argv))
    except _CliError as exc:
        return str(exc)


@given(_argvs())
def test_parser_agrees_with_argparse(argv):
    assume(not _deliberate_difference(argv))
    got = _parsed(lambda a: _parse(a, None), argv)
    assert got == _parsed(parse_by_argparse, argv)


@pytest.mark.parametrize(
    "args, message",
    [
        (("frobnicate", "--cartan", "x.json"),
         "argument command: invalid choice: 'frobnicate' (choose from 'roots', "
         "'weyl-ideal', 'kl', 'inverse-kl', 'moment-graph', 'bmp', 'verify-kl', "
         "'characters', 'multiplicities', 'strata')"),
        ((), "the following arguments are required: command"),
    ],
    ids=["unknown", "missing"],
)
def test_unknown_or_missing_command_message(args, message):
    status, doc = run_cli(*args)
    assert status == 1
    assert json.loads(doc) == {"error_code": "UsageError", "message": message}


def test_failed_internal_check_exits_two(tmp_path, monkeypatch):
    # fault injection: mu := 1 in the Q recursion alone (every P column is
    # built with the true mu first) breaks Q on affine C2 at l <= 9, where
    # a mu of 2 or 3 first matters; the KL table's own check catches it
    from kmflag.kl import KLTable

    true_mu_list = KLTable._mu_list

    def mu_one(self, v):
        if len(self._mu) < len(self._below):
            for w in range(len(self._below)):
                true_mu_list(self, w)
            for w, mu in self._mu.items():
                self._mu[w] = [(z, 1, h) for z, _, h in mu]
        return self._mu[v]

    monkeypatch.setattr(KLTable, "_mu_list", mu_one)
    path = tmp_path / "affine_c2.json"
    path.write_text(json.dumps({"cartan": GOLDEN_CARTANS["affine_c2"]}))
    status, doc = run_cli("inverse-kl", "--cartan", str(path), "--max-length", "9")
    assert status == 2
    assert json.loads(doc) == {
        "error_code": "CrossCheckFailed",
        "message": "negative inverse KL coefficient in 1+2q-q^2",
    }


# the document shapes the CLI writes: records (lists of dicts sharing their
# keys in one order), nested dicts, empty lists and dicts, int lists, and
# strings that need escaping
_TEXT = st.text(st.sampled_from('ab1,e"\\%/\n\x00\u00e9\u2603\U0001f600'), max_size=6)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), _TEXT)
_INT_LISTS = st.lists(st.integers(-3, 3), max_size=4)


@st.composite
def _records(draw, values):
    """A list of dicts sharing their keys, each column of one kind or
    mixed, and maybe one row whose keys come in another order."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    columns = [
        draw(st.sampled_from((_TEXT, st.integers(), _INT_LISTS, values))) for _ in keys
    ]
    rows = [
        {k: draw(c) for k, c in zip(keys, columns)}
        for _ in range(draw(st.integers(1, 4)))
    ]
    order = draw(st.permutations(keys))
    if order != keys:
        rows.insert(draw(st.integers(0, len(rows))), {k: draw(values) for k in order})
    return rows


_DOCS = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS, st.lists(st.one_of(st.integers(), st.booleans()))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
        _records(children),
    ),
    max_leaves=20,
)


@given(_DOCS)
def test_json_writer_is_json_dumps(doc):
    assert _json_doc(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [1.5, (1, 2), {1: "a"}, [{"a": 1.5}], [{1: 2}, {1: 3}], {"a": [(1,)]}, [[0.0]]],
    ids=["float", "tuple", "int_key", "record_float", "record_int_key", "nested_tuple",
         "float_in_list"],
)
def test_json_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        _json_doc(doc)
