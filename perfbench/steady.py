#!/usr/bin/env python3
"""Steadiness tooling for enrichdb's benchmark.

Run from the repository root.

    python3 perfbench/steady.py run --runs 10 --out .bench_build/a.json
    python3 perfbench/steady.py run --runs 10 --out .bench_build/b.json
    python3 perfbench/steady.py compare .bench_build/a.json .bench_build/b.json

`run` runs every workload of BENCHMARK.json (or those given with
--workload) --runs times, each with another seed, and prints for each
end-to-end metric its median, quartiles, spread (interquartile range over
the median) and the bound that spread supports (three times the spread).
It exits non-zero when a spread, setup_s excepted, exceeds a third of the
metric's bound in BENCHMARK.json.

`compare` checks that two sets of runs of the same commit agree: for every
workload and metric, the second median is not worse than the first by more
than the metric's bound, and each set's spread stays within the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s seed %d failed (exit %d)" % (workload, seed, out.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("perfbench: %s seed %d: correct=%s failed=%d" % (workload, seed, res["correct"], res["failed"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(sets, bounds):
    """Print every workload's metrics; return the names whose spread is too wide."""
    wide = []
    for workload, runs in sets.items():
        print("== %s (%d runs)" % (workload, len(runs)))
        print("%-16s %12s %12s %12s %8s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "derived", "bound"))
        for name in sorted(runs[0]):
            vals = [r[name] for r in runs]
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            bound = bounds.get(name)
            print("%-16s %12.4f %12.4f %12.4f %8.3f %8.3f %8s" % (
                name, q1, med, q3, sp, min(0.25, 3 * sp), "%.3f" % bound if bound else "-"))
            if bound and name != "setup_s" and sp > bound / 3:
                wide.append("%s/%s spread %.3f > bound/3 %.3f" % (workload, name, sp, bound / 3))
    return wide


def cmd_run(args):
    s = spec()
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    sets = {}
    for w in workloads:
        sets[w] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            sets[w].append(run_once(w, seed, seconds))
            print("%s seed %d done" % (w, seed), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
    wide = summarize(sets, bounds)
    for w in wide:
        print("TOO WIDE:", w)
    return 1 if wide else 0


def cmd_compare(args):
    s = spec()
    better = {m["name"]: m["better"] for m in s["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    bad = []
    print("%-16s %-16s %12s %12s %8s %8s" % ("workload", "metric", "median 1", "median 2", "change", "bound"))
    for w in sorted(set(a) & set(b)):
        for name in sorted(n for n in bounds if n in a[w][0] and n in b[w][0]):
            m1 = statistics.median(r[name] for r in a[w])
            m2 = statistics.median(r[name] for r in b[w])
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            flag = ""
            if worse > bounds[name]:
                flag = "WORSE"
                bad.append("%s/%s" % (w, name))
            for label, runs in (("1", a[w]), ("2", b[w])):
                sp = spread([r[name] for r in runs])
                if name != "setup_s" and sp > bounds[name]:
                    flag += " SPREAD%s" % label
                    bad.append("%s/%s spread %s" % (w, name, label))
            print("%-16s %-16s %12.4f %12.4f %+8.3f %8.3f %s" % (w, name, m1, m2, worse, bounds[name], flag))
    print("agree" if not bad else "disagree: " + ", ".join(bad))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", action="append")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--seconds", type=int)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
