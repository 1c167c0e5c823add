"""Repeat each workload and report how steady its end-to-end metrics are.

    python3 perfbench/steady.py --repeats 10 --seconds 35 --traced 2 \
        --out perfbench/baseline.json

For every workload, runs ``run.py`` ``--repeats`` times with consecutive
seeds from ``--first-seed`` (untraced) and prints each end-to-end metric's median, quartiles, min and
max, and its spread: the distance between the quartiles as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them, next to the
bound fixed in BENCHMARK.json. Then runs ``--traced`` traced runs, checks
that every count repeats exactly and prints the tracing overhead (median
traced wall minus median untraced wall).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs do not match the pins")
    return result


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--out", help="write the figures as JSON to this file")
    ns = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = ns.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ns.workload or [w["name"] for w in bench["workloads"]]

    report = {"seconds": seconds, "seeds": [ns.first_seed, ns.first_seed + ns.repeats - 1],
              "workloads": {}}
    for workload in workloads:
        seeds = range(ns.first_seed, ns.first_seed + ns.repeats)
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"{workload}: {ns.repeats} runs of {seconds:g} s, "
              f"{entry['attempted']} jobs, {entry['failed']} failed")
        print(f"  {'metric':16s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'min':>10s} "
              f"{'max':>10s} {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bound
            entry["metrics"][name] = s
            print(f"  {name:16s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['min']:10.4f} {s['max']:10.4f} {s['spread']:7.3f} {bound:6.2f}")
        if ns.traced:
            traced = [run_once(workload, seed, seconds, 1) for seed in seeds[:ns.traced]]
            counts = {k for k, m in traced[0]["metrics"].items() if m["unit"] == "count"}
            unequal = sorted(k for k in counts
                             if len({t["metrics"][k]["value"] for t in traced}) > 1)
            traced_cpu = statistics.median(t["metrics"]["traced_ref_cpu_s"]["value"]
                                            for t in traced)
            overhead = traced_cpu - entry["metrics"]["ref_cpu_s"]["median"]
            entry["traced"] = {
                "runs": ns.traced,
                "traced_ref_cpu_s": traced_cpu,
                "overhead_s": overhead,
                "overhead_share": overhead / entry["metrics"]["ref_cpu_s"]["median"],
                "counts_repeat_exactly": not unequal,
                "per_layer": {k: m["value"] for k, m in traced[0]["metrics"].items()},
            }
            print(f"  traced: cpu {traced_cpu:.3f} s, overhead {overhead:+.3f} s "
                  f"({100 * entry['traced']['overhead_share']:+.1f}%), counts repeat "
                  f"exactly: {'yes' if not unequal else 'NO ' + ', '.join(unequal)}")
        report["workloads"][workload] = entry
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
