#!/usr/bin/env python3
"""A/B comparison of two builds of the repository with the benchmark.

Each side is a checkout root holding BENCHMARK.json and benchsuite/run.py.
Both sides run every workload in alternating pairs (the first side to run
alternates from pair to pair); pair i uses seed i+1 on both sides.

    python3 benchsuite/ab_compare.py --base PARENT --change CHANGE \\
        [--claim WORKLOAD:METRIC] [--pairs 10] [--workloads a,b] [--seconds S]

For every end-to-end metric and workload it prints each side's median and
quartiles and the fraction of pairs the change wins. The --claim pair is
judged by the gain rule: the change wins at least 9 of 10 pairs (ties count
for neither) and the medians differ by more than the base's quartile
spread. Every other pair must be no worse than the base median by more than
the metric's bound in BENCHMARK.json; when the base's own spread exceeds
that bound the pair is "unresolved" unless every change run beats every
base run.

    python3 benchsuite/ab_compare.py --repeat CHECKOUT [--pairs 10] ...

runs one build as two sets and reports, per metric, each set's spread
(quartile distance over median) and the shift between the set medians,
against the metric's bound. Exit code 0 means every check passed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("benchsuite", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s seed %d failed (exit %d)" %
                           (root, workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s: %s seed %d reported failures" % (root, workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse(a, b, better):
    """True when value `a` is worse than `b`."""
    return a > b if better == "lower" else a < b


def collect(sides, workloads, pairs, seconds):
    """runs[side][workload][metric] -> list of values, pair order."""
    runs = {name: {w: {} for w in workloads} for name, _ in sides}
    for w in workloads:
        for i in range(pairs):
            order = sides if i % 2 == 0 else list(reversed(sides))
            for name, root in order:
                values = run_once(root, w, i + 1, seconds)
                for metric, v in values.items():
                    runs[name][w].setdefault(metric, []).append(v)
            print("  %s pair %d/%d done" % (w, i + 1, pairs), file=sys.stderr)
    return runs


def compare(args, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = [("base", args.base), ("change", args.change)]
    runs = collect(sides, workloads, args.pairs, args.seconds)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    ok = True
    print("%-18s %-22s %12s %12s %12s %12s %6s  %s" %
          ("workload", "metric", "base_q1", "base_med", "change_med",
           "change_q3", "wins", "verdict"))
    for w in workloads:
        for name, m in metrics.items():
            base = runs["base"][w][name]
            change = runs["change"][w][name]
            b_q1, b_med, b_q3 = quartiles(base)
            c_q1, c_med, c_q3 = quartiles(change)
            wins = sum(worse(b, c, m["better"]) for b, c in zip(base, change))
            win_frac = wins / len(base)
            if claim == (w, name):
                gain = win_frac >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1) \
                    and worse(b_med, c_med, m["better"])
                verdict = "CLAIM MET" if gain else "CLAIM NOT MET"
                ok &= gain
            else:
                limit = m["bound"] * b_med
                regressed = worse(c_med, b_med, m["better"]) and abs(c_med - b_med) > limit
                if spread(base) > m["bound"]:
                    all_better = all(worse(b, c, m["better"]) for b in base for c in change)
                    verdict = "better" if all_better else "unresolved"
                else:
                    verdict = "REGRESSED" if regressed else "ok"
                ok &= verdict != "REGRESSED"
            print("%-18s %-22s %12.4g %12.4g %12.4g %12.4g %6.2f  %s" %
                  (w, name, b_q1, b_med, c_med, c_q3, win_frac, verdict))
    return ok


def repeat(args, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = [("first", args.repeat), ("second", args.repeat)]
    runs = collect(sides, workloads, args.pairs, args.seconds)
    ok = True
    print("%-18s %-22s %8s %12s %12s %8s %8s %8s  %s" %
          ("workload", "metric", "bound", "med_first", "med_second",
           "sprd_1", "sprd_2", "shift", "verdict"))
    for w in workloads:
        for name, m in metrics.items():
            first = runs["first"][w][name]
            second = runs["second"][w][name]
            s1, s2 = spread(first), spread(second)
            m1, m2 = statistics.median(first), statistics.median(second)
            shift = (m2 - m1) / m1 if m1 else 0.0
            # setup_s is bounded only by the shift between medians.
            spread_ok = name == "setup_s" or max(s1, s2) <= m["bound"]
            shift_ok = not worse(m2, m1, m["better"]) or abs(shift) <= m["bound"]
            verdict = "ok" if spread_ok and shift_ok else "FAIL"
            if spread_ok and shift_ok and name != "setup_s" and \
                    max(s1, s2) > m["bound"] / 3:
                verdict = "ok (spread above bound/3)"
            ok &= spread_ok and shift_ok
            print("%-18s %-22s %8.3f %12.4g %12.4g %8.4f %8.4f %8.4f  %s" %
                  (w, name, m["bound"], m1, m2, s1, s2, shift, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--repeat", help="checkout to run as two sets")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", type=lambda s: s.split(","))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("the comparison rule needs at least 10 pairs")
    if bool(args.repeat) == bool(args.base or args.change):
        parser.error("give either --repeat, or both --base and --change")
    if not args.repeat and not (args.base and args.change):
        parser.error("give both --base and --change")
    spec = load_spec(args.repeat or args.base)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    ok = repeat(args, spec) if args.repeat else compare(args, spec)
    print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
