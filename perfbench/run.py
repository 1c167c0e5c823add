"""kmflag benchmark: fixed CLI jobs, each run in a fresh interpreter.

Run from the repository root:

    python3 perfbench/run.py --workload kl-tables --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The benchmark and its jobs are pinned to one CPU. Times are CPU times of
the job processes, scaled to a reference machine speed by a calibration loop
timed between the jobs (see ``calibrate``).

Each job is ``python -m kmflag.cli <command> ...`` in its own process, one at
a time (a closed loop with one client), so every run pays interpreter start,
imports and empty caches exactly as a user does. Every execution's exit
status and stdout SHA-256 are checked against values pinned in ``WORKLOADS``;
a mismatch counts as a failed job and is never retried.

Within ``--seconds`` the jobs are run in a seed-permuted cyclic order: one
full pass always, then further jobs while the next one is expected to finish
inside the window. Each job's figure is the median of its executions. With
``--trace 1`` every job runs under ``tracer.py`` instead and the per-layer
metrics come from its spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit. See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(HERE, "tracer.py")

sys.path.insert(0, HERE)
from tracer import read_trace  # noqa: E402

SETUP_PER_JOB = 2  # bare `import kmflag` timings before each job
CAL_PER_JOB = 3  # calibration loops before each job
CALIBRATION_STEPS = 4000
# Reference speed: a machine on which the calibration loop takes CAL_REF_S
# CPU seconds. A ``ref`` time is the measured CPU time times CAL_REF_S over
# the run's median calibration time.
CAL_REF_S = 0.05

CARTAN = {
    "a2": [[2, -1], [-1, 2]],
    "b2": [[2, -1], [-2, 2]],
    "g2": [[2, -1], [-3, 2]],
    "a3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "b3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "a4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "affine_a1": [[2, -2], [-2, 2]],
    "affine_a2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "hyperbolic3": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
}

# CLI command -> end-to-end metric holding the summed wall time of its jobs
COMMAND_METRIC = {
    "kl": "kl_s",
    "inverse-kl": "inverse_kl_s",
    "moment-graph": "moment_graph_s",
    "strata": "strata_s",
    "verify-kl": "verify_kl_s",
    "bmp": "bmp_s",
    "multiplicities": "multiplicities_s",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation with its pinned exit status and stdout SHA-256."""

    command: str
    cartan: str
    args: tuple
    status: int
    sha256: str

    @property
    def name(self) -> str:
        return " ".join((self.command, self.cartan, *self.args))

    def cli_args(self, work: str) -> list:
        path = os.path.join(work, f"{self.cartan}.json")
        return [self.command, "--cartan", path, *self.args]


WORKLOADS = {
    # Weyl group, KL and moment-graph combinatorics only; no sheaf is built.
    # Outputs are 30-106 KB, so emission in cli shows too.
    "kl-tables": (
        Job("kl", "b3", ("--max-length", "9"), 0,
            "e85d6eb7314217dc44fb5d20b1eccbc522cc1c52eb2e6e776069ae2e4a5c3818"),
        Job("inverse-kl", "b3", ("--max-length", "9"), 0,
            "ba65588c59e42a70f3b7a22fe18178d37447de06db4d9940512f472a80105f06"),
        Job("inverse-kl", "hyperbolic3", ("--max-length", "5"), 0,
            "aba975632a3060523770a85e506f21c1634d62bd6418226682db0d9016cbef6c"),
        Job("moment-graph", "a4", ("--max-length", "10"), 0,
            "05bc2a2dfc8b36dfabd18a3363256f8b52855d068d914abcb3edba33f0cd6574"),
        Job("moment-graph", "affine_a2", ("--max-length", "6", "--dual"), 0,
            "8da0ad15f32f4196c6bb0c97e5636d9c763484a29c63aa8da73100b3107b96e0"),
        Job("strata", "hyperbolic3", ("--max-length", "6"), 0,
            "a8ac8ed5b2233ab96b410cd5234beb02f3df8526e1d0b3d185b05117fd982fc9"),
    ),
    # One large sheaf per job: _linalg and graded_algebra dominate.
    # bmp --verify builds the same sheaf twice.
    "bmp-single": (
        Job("verify-kl", "a3", ("--max-length", "6", "--base", "e"), 0,
            "c0447d05bfefacc55794d8d098fe89342e2d8158fee82213f9fd003478852073"),
        Job("bmp", "hyperbolic3", ("--max-length", "4", "--base", "e", "--verify"), 0,
            "2bf0914745303cf1bd26774a4745587857a38d6fd741ff4327714e1acabe70f8"),
    ),
    # Seventeen (affine A1) or twelve (G2) small rank-2 sheaves per command,
    # on the dual graph as well: per-call overhead, many small solve_right
    # calls, the category-O sheaf cache and the BGG reciprocity checks.
    "bmp-many": (
        Job("multiplicities", "affine_a1", ("--max-length", "8"), 0,
            "7504b9e75021c8de0233cbb241f5cb00926d5862b776b12dabe496e7bef0f77d"),
        Job("verify-kl", "affine_a1", ("--max-length", "8"), 0,
            "b05ac2029e90f54ab7fab159cc4027d4800b8e2a7cc386a286036bb7f098c535"),
        Job("multiplicities", "g2", ("--max-length", "6"), 0,
            "3f9e1112bf97668f4f5b0d4c653d2d5982ff4b2aeffc9b74a60bd1dacecd3767"),
        Job("verify-kl", "g2", ("--max-length", "6"), 0,
            "6ef9c038700a45f3595b531996e7d7271f1a43d04737beba6966a8e33e16dd80"),
    ),
}

# ref_cpu_s is the CPU time (user + system) of one pass over the workload's
# jobs, the sum of per-job medians; setup_s is the median CPU time of a bare
# `import kmflag`. Both are scaled to the reference speed, because on a
# shared virtual machine the speed of one CPU drifts by tens of percent over
# minutes; the raw figures and the wall time are printed above the JSON line.
END_TO_END = (
    ("ref_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics reported in the JSON line of a traced run. Self times of
# layers that a workload never enters (bmp, graded_algebra, linalg and
# category_o on kl-tables) would read 0 on every run, so those self times
# are printed in the table above the JSON line but left out of it.
PER_LAYER = (
    ("traced_ref_cpu_s", "s"),
    ("weyl.multiply.calls", "count"),
    ("weyl.multiply.self_s", "s"),
    ("weyl.bruhat_leq.calls", "count"),
    ("weyl.bruhat_leq.self_s", "s"),
    ("weyl.is_reflection.calls", "count"),
    ("weyl.enumerate_ideal.total_s", "s"),
    ("weyl.ideal_elements", "count"),
    ("moment_graph.build_moment_graph.total_s", "s"),
    ("moment_graph.edges", "count"),
    ("kl.kl_polynomial.calls", "count"),
    ("kl.kl_polynomial.self_s", "s"),
    ("kl.inverse_kl.calls", "count"),
    ("kl.inverse_kl.self_s", "s"),
    ("kl.pairs", "count"),
    ("bmp.compute_bmp.calls", "count"),
    ("bmp.bases", "count"),
    ("bmp.reuse", "ratio"),
    ("bmp.stalk_rank_sum", "count"),
    ("linalg.RowSpan.add.calls", "count"),
    ("linalg.solve_right.calls", "count"),
    ("linalg.kernel_basis.calls", "count"),
    ("graded_algebra.mul_var_vec.calls", "count"),
    ("category_o.projective_verma_multiplicity.calls", "count"),
    ("root_datum.validate_cartan.total_s", "s"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "count"),
)

# printed with the traced table only (see PER_LAYER)
TRACE_TABLE_ONLY = (
    "bmp.compute_bmp.self_s",
    "linalg.RowSpan.add.self_s",
    "linalg.solve_right.self_s",
    "linalg.kernel_basis.self_s",
    "graded_algebra.mul_var_vec.self_s",
    "category_o.projective_verma_multiplicity.self_s",
)

# spans reported by total duration (outermost call only) instead of self time
TOTAL_SPANS = (
    "weyl.enumerate_ideal",
    "moment_graph.build_moment_graph",
    "root_datum.validate_cartan",
)

LAYERS = ("cli", "root_datum", "weyl", "moment_graph", "kl", "bmp",
          "graded_algebra", "linalg", "category_o")


@dataclass
class Execution:
    job: Job
    wall_s: float
    cpu_s: float
    status: int
    sha256: str
    maxrss_kib: int
    layer: dict | None = None  # traced runs: per-layer figures of this execution

    @property
    def ok(self) -> bool:
        return self.status == self.job.status and self.sha256 == self.job.sha256


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def write_inputs(work: str) -> None:
    os.makedirs(work, exist_ok=True)
    for name, matrix in CARTAN.items():
        with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"cartan": matrix}, fh)


def spawn(argv: list, stderr_path: str):
    """Run argv to completion; return (stdout bytes, exit code, wall s,
    CPU s, ru_maxrss KiB), the child reaped with os.wait4. CPU is the
    child's user plus system time."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    cpu = usage.ru_utime + usage.ru_stime
    return out, proc.returncode, wall, cpu, usage.ru_maxrss


def calibrate(n: int = CALIBRATION_STEPS) -> float:
    """CPU seconds this process takes for a fixed pure-Python loop of the
    kind kmflag's inner loops run: 3x3 integer matrix products, Fraction
    sums and dict stores."""
    start = time.process_time()
    m = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
    total = Fraction(0)
    seen = {}
    for i in range(n):
        p = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*m)) for r in m)
        total += Fraction(i % 7 + 1, i % 11 + 1)
        seen[p[i % 3][0] + i % 101] = i
    return time.process_time() - start


def import_time(work: str) -> float:
    """CPU seconds a fresh interpreter takes to import kmflag and exit."""
    stderr_path = os.path.join(work, "setup.stderr")
    _, status, _, cpu, _ = spawn([sys.executable, "-c", "import kmflag"], stderr_path)
    if status != 0:
        raise RuntimeError("importing kmflag failed; see " + stderr_path)
    return cpu


def run_job(job: Job, work: str, traced: bool) -> Execution:
    stem = os.path.join(work, f"job-{os.getpid()}")
    args = job.cli_args(work)
    if traced:
        argv = [sys.executable, TRACER, stem + ".trace", *args]
    else:
        argv = [sys.executable, "-m", "kmflag.cli", *args]
    out, status, wall, cpu, rss = spawn(argv, stem + ".stderr")
    execution = Execution(job, wall, cpu, status, hashlib.sha256(out).hexdigest(), rss)
    if not execution.ok:
        with open(stem + ".stderr", "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        print(f"FAILED {job.name}: exit {status} (pinned {job.status}), "
              f"sha256 {execution.sha256[:12]} (pinned {job.sha256[:12]})\n{tail}",
              file=sys.stderr)
    if traced:
        execution.layer = layer_figures(stem + ".trace", len(out))
        os.remove(stem + ".trace")
    return execution


def layer_figures(trace_path: str, stdout_bytes: int) -> dict:
    """Calls, self time and outermost total time per span name, the size
    counters, and self time per layer, for one traced execution."""
    header, names, parents, starts, ends = read_trace(trace_path)
    span_names = header["names"]
    n = header["n"]
    child_ns = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_ns[p] += ends[i] - starts[i]
    calls = [0] * len(span_names)
    self_ns = [0] * len(span_names)
    total_ns = [0] * len(span_names)
    total_ids = {span_names.index(s) for s in TOTAL_SPANS}
    for i in range(n):
        k = names[i]
        dur = ends[i] - starts[i]
        calls[k] += 1
        self_ns[k] += dur - child_ns[i]
        if k in total_ids:
            p = parents[i]
            while p >= 0 and names[p] != k:
                p = parents[p]
            if p < 0:
                total_ns[k] += dur
    fig = {"cli.stdout_bytes": stdout_bytes}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for k, name in enumerate(span_names):
        fig[f"{name}.calls"] = calls[k]
        fig[f"{name}.self_s"] = self_ns[k] / 1e9
        if name in TOTAL_SPANS:
            fig[f"{name}.total_s"] = total_ns[k] / 1e9
        layer_self[name.split(".")[0]] += self_ns[k] / 1e9
    fig["cli.self_s"] = fig["cli.main.self_s"]
    for layer, secs in layer_self.items():
        fig[f"layer.{layer}.self_s"] = secs
    fig.update(header["counters"])
    return fig


def closed_loop(jobs: tuple, seed: int, seconds: float, work: str, traced: bool):
    """Run every job once in a seed-permuted order, then keep cycling while
    the next job's last step still fits in the window. A step also times
    SETUP_PER_JOB bare imports and CAL_PER_JOB calibration loops before its
    job, so these samples spread over the window as the jobs do."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    runs = {job: [] for job in order}
    step_s = {}
    setup = []
    cal = []
    import_time(work)  # compiles the byte code, which users do not pay again
    start = time.perf_counter()
    i = 0
    while True:
        job = order[i % len(order)]
        if i >= len(order):
            elapsed = time.perf_counter() - start
            if elapsed + step_s[job] > seconds:
                break
        step_start = time.perf_counter()
        setup.extend(import_time(work) for _ in range(SETUP_PER_JOB))
        cal.extend(calibrate() for _ in range(CAL_PER_JOB))
        runs[job].append(run_job(job, work, traced))
        step_s[job] = time.perf_counter() - step_start
        i += 1
    return runs, setup, cal


def median_of(executions, key) -> float:
    return statistics.median(key(e) for e in executions)


def pass_cpu_s(runs: dict) -> float:
    """CPU seconds of one pass over the jobs: the sum of per-job medians."""
    return sum(median_of(ex, lambda e: e.cpu_s) for ex in runs.values())


def ref_scale(cal: list) -> float:
    """Factor from this machine's CPU seconds to the reference speed's."""
    return CAL_REF_S / statistics.median(cal)


def end_to_end_metrics(runs: dict, setup: list, cal: list) -> dict:
    """The END_TO_END metrics, plus the unscaled figures and the per-command
    wall sums, which are printed only."""
    job_s = {job: median_of(ex, lambda e: e.wall_s) for job, ex in runs.items()}
    scale = ref_scale(cal)
    cpu = pass_cpu_s(runs)
    metrics = {
        "ref_cpu_s": cpu * scale,
        "setup_s": statistics.median(setup) * scale,
        "cpu_s": cpu,
        "setup_cpu_s": statistics.median(setup),
        "calibration_s": statistics.median(cal),
        "peak_rss_mib": max(e.maxrss_kib for ex in runs.values() for e in ex) / 1024,
        "wall_s": sum(job_s.values()),
    }
    return metrics, command_times(job_s)


def command_times(job_s: dict) -> dict:
    out = {}
    for job, secs in job_s.items():
        name = COMMAND_METRIC[job.command]
        out[name] = out.get(name, 0.0) + secs
    return out


def per_layer_metrics(runs: dict, cal: list) -> dict:
    """Per-job medians of every traced figure, summed over the jobs. Counts
    are exact, so their low median is one of the repeated values."""
    keys = sorted({k for ex in runs.values() for e in ex for k in e.layer})
    totals = dict.fromkeys(keys, 0)
    for ex in runs.values():
        for k in keys:
            values = [e.layer[k] for e in ex]
            if isinstance(values[0], int):
                totals[k] += statistics.median_low(values)
            else:
                totals[k] += statistics.median(values)
    totals["traced_ref_cpu_s"] = pass_cpu_s(runs) * ref_scale(cal)
    calls = totals["bmp.compute_bmp.calls"]
    totals["bmp.reuse"] = totals["bmp.bases"] / calls if calls else 1.0
    return totals


def run_workload(name: str, seed: int, seconds: float, traced: bool, jobs=None):
    """Measure one workload; returns (result dict, printable lines)."""
    jobs = WORKLOADS[name] if jobs is None else jobs
    write_inputs(WORK)
    runs, setup, cal = closed_loop(jobs, seed, seconds, WORK, traced)
    executions = [e for ex in runs.values() for e in ex]
    failed = sum(not e.ok for e in executions)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}",
             f"{'job':58s} {'runs':>4s} {'wall_s':>8s} {'cpu_s':>8s} {'ok':>3s}"]
    for job, ex in runs.items():
        ok = "yes" if all(e.ok for e in ex) else "NO"
        lines.append(f"{job.name:58s} {len(ex):4d} "
                     f"{median_of(ex, lambda e: e.wall_s):8.3f} "
                     f"{median_of(ex, lambda e: e.cpu_s):8.3f} {ok:>3s}")
    if traced:
        figures = per_layer_metrics(runs, cal)
        metrics = {k: {"value": figures[k], "unit": u} for k, u in PER_LAYER}
        for k in TRACE_TABLE_ONLY:
            lines.append(f"{k:48s} {figures[k]:14.6f} s")
        for layer in LAYERS:
            k = f"layer.{layer}.self_s"
            lines.append(f"{k:48s} {figures[k]:14.6f} s")
    else:
        values, by_command = end_to_end_metrics(runs, setup, cal)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        for k in ("wall_s", "cpu_s", "setup_cpu_s", "calibration_s"):
            lines.append(f"{k:48s} {values[k]:14.6f} s")
        for k, secs in sorted(by_command.items()):
            lines.append(f"{k:48s} {secs:14.6f} s")
        lines.append(f"{'failed_frac':48s} {failed / len(executions):14.6f} "
                     f"({failed} of {len(executions)} jobs)")
    for k, m in metrics.items():
        lines.append(f"{k:48s} {m['value']:14.6f} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ns = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kmflag", "__init__.py")):
        print(f"kmflag sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # the calibration loop and the jobs then share one CPU's speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, ns.seed, ns.seconds, bool(ns.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results if ns.workload == "all" else results[ns.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
