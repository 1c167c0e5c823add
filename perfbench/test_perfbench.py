"""Smoke tests of the benchmark harness on A2/B2-sized jobs (a few seconds).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

# One small job per CLI command the workloads use.
TINY = (
    run.Job("kl", "a2", ("--max-length", "3"), 0,
            "452c70815195fa4f90248d447491ce5bf8d2c3c75e38e2f1f1233a88d9e407d4"),
    run.Job("inverse-kl", "b2", ("--max-length", "4"), 0,
            "ca1fd552926658fb15d0e27a3b057779ed651b2a458ac92c927fe742dee4ee4f"),
    run.Job("moment-graph", "b2", ("--max-length", "4", "--dual"), 0,
            "6ab2caa78e4f87deecf0ebbd97421de57677cca9fac4e22fd62e8ba06996855e"),
    run.Job("strata", "a2", ("--max-length", "3"), 0,
            "f3248343d0f9e3a4d418f42627cfd2b765a9669c73a5aad3eab5623bc876d58b"),
    run.Job("verify-kl", "b2", ("--max-length", "4"), 0,
            "59921174058f2416178b00263c7e643694a85a0fa33bd80fc63ed26394f09580"),
    run.Job("bmp", "a2", ("--max-length", "3", "--base", "e", "--verify"), 0,
            "b74f40cd4191bdec3e6933d31b120621639224f5ffba674f74a7714761f5cb58"),
    run.Job("multiplicities", "a2", ("--max-length", "3"), 0,
            "685e918e91f07208d823a3ee4d7243309ae37722ca90d03771100ba3e17ef1b1"),
)


def printed_names(lines):
    return {line.split()[0] for line in lines[2:]}


def test_untraced_run_emits_every_end_to_end_metric():
    result, lines = run.run_workload("tiny", 1, 0, traced=False, jobs=TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY)
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    printed = printed_names(lines)
    assert set(run.COMMAND_METRIC.values()) | {"wall_s", "failed_frac"} <= printed
    assert set(names) <= printed


def test_traced_run_emits_every_per_layer_metric():
    result, lines = run.run_workload("tiny", 1, 0, traced=True, jobs=TINY)
    assert result["correct"]
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # every layer is entered by one of the tiny jobs
    for name in ("weyl.multiply.calls", "kl.kl_polynomial.calls", "bmp.compute_bmp.calls",
                 "linalg.solve_right.calls", "category_o.projective_verma_multiplicity.calls"):
        assert metrics[name] > 0, name
    assert set(run.TRACE_TABLE_ONLY) <= printed_names(lines)


def test_wrong_pinned_hash_counts_as_failure():
    job = replace(TINY[0], sha256="0" * 64)
    result, _ = run.run_workload("tiny", 1, 0, traced=False, jobs=(job,))
    assert not result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 1


def test_wrong_pinned_status_counts_as_failure():
    job = replace(TINY[0], status=1)
    result, _ = run.run_workload("tiny", 1, 0, traced=False, jobs=(job,))
    assert result["failed"] == 1


def test_traced_stdout_is_byte_identical():
    run.write_inputs(run.WORK)
    stderr_path = os.path.join(run.WORK, "smoke.stderr")
    trace_path = os.path.join(run.WORK, "smoke.trace")
    for job in TINY:
        args = job.cli_args(run.WORK)
        plain = run.spawn([sys.executable, "-m", "kmflag.cli", *args], stderr_path)
        traced = run.spawn([sys.executable, run.TRACER, trace_path, *args], stderr_path)
        assert plain[0] == traced[0], job.name
        assert plain[1] == traced[1] == 0, job.name
    os.remove(trace_path)


def test_tracer_rebinds_every_imported_name():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
        "tracer.install(tracer.Recorder()); "
        "import kmflag, kmflag.kl, kmflag.bmp, kmflag.cli, kmflag.weyl, kmflag.category_o; "
        "fns = [kmflag.weyl.bruhat_leq, kmflag.kl.bruhat_leq, kmflag.kl.multiply, "
        "kmflag.bmp.bruhat_leq, kmflag.bruhat_leq, kmflag.category_o.compute_bmp, "
        "kmflag.bmp.compute_bmp, kmflag.compute_bmp]; "
        "assert all(hasattr(f, '__wrapped__') for f in fns); "
        "assert kmflag.kl.bruhat_leq is kmflag.weyl.bruhat_leq"
    )
    done = subprocess.run([sys.executable, "-c", code, HERE], env=run.child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kl-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
