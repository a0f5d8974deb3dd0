#!/usr/bin/env python3
"""Steadiness check for the swarm benchmark.

Runs two or more sets of every workload through perfbench/run.py,
interleaving workloads and sets (run i of every set happens before run
i+1 of any set, so slow drift of the machine hits all sets alike), each
run with its own seed. For every end-to-end metric it prints, per set,
the median, the quartiles and the spread (q3 - q1) / median, and the gap
between each later set's median and the first set's, in the metric's
worse direction, against the bound in BENCHMARK.json. It also checks
that the share of failed operations is the same in every set.

With --trace it adds one traced run after each untraced run and reports
the tracing overhead: the traced median against the untraced median.

    python3 perfbench/steadiness.py --sets 2 --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads sap-1m --trace

Exit status 0 iff every spread and every gap is within its bound and
the failed shares agree (setup_s is held to its bound on the gap only:
it times a single cold set-up per run).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    """One run.py invocation; returns (result line, full result)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads(Path(".bench_out",
                           f"{workload}-seed{seed}-trace{int(trace)}.json")
                      .read_text())
    return line, full


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (later - first) / first
    return delta if better == "lower" else -delta


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", nargs="*", help="default: all")
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", action="store_true",
                    help="also run traced and report the tracing overhead")
    ap.add_argument("--json-out", help="write every measured value here")
    args = ap.parse_args(argv)
    if args.sets < 2:
        ap.error("--sets must be at least 2")

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][set][metric] -> list; traced[workload][metric] -> list
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
              for w in workloads}
    shares = {w: [set() for _ in range(args.sets)] for w in workloads}
    traced = {w: {m["name"]: [] for m in metrics} for w in workloads}
    backends = set()
    t_start = time.monotonic()
    for rep in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = args.seed_base + rep * args.sets + s
                line, full = run_once(w, seed, seconds, False)
                backends.add(full["backend"])
                for name in values[w][s]:
                    values[w][s][name].append(line["metrics"][name]["value"])
                shares[w][s].add((line["failed"], line["attempted"]))
                if args.trace:
                    _, tfull = run_once(w, seed, seconds, True)
                    for name in traced[w]:
                        traced[w][name].append(
                            tfull["end_to_end"][name]["value"])
        print(f"# rep {rep + 1}/{args.runs} done, "
              f"{time.monotonic() - t_start:.0f} s", file=sys.stderr,
              flush=True)

    ok = True
    report = {"seconds": seconds, "runs": args.runs, "sets": args.sets,
              "backends": sorted(backends), "workloads": {}}
    print(f"crypto backend(s): {', '.join(sorted(backends))}; "
          f"{args.runs} runs x {args.sets} sets, {seconds} s each")
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'gap':>7} {'bound':>6}")
        fractions = {f / a for (f, a) in set().union(*shares[w])}
        if len(fractions) > 1:
            print(f"  failed share differs between runs: {sorted(fractions)}")
            ok = False
        report["workloads"][w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_med = None
            for s in range(args.sets):
                vals = values[w][s][name]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                gap = 0.0 if s == 0 else worse_by(first_med, med, m["better"])
                first_med = med if s == 0 else first_med
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD", False
                if gap > bound:
                    flag, ok = flag + " GAP", False
                print(f"  {name:<16} {s + 1:>3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {gap:>7.3f} {bound:>6}"
                      f"{flag}")
                report["workloads"][w].setdefault(name, []).append(
                    {"values": vals, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "gap": gap, "bound": bound})
            if args.trace:
                untraced = statistics.median(
                    v for s in range(args.sets) for v in values[w][s][name])
                t_med = statistics.median(traced[w][name])
                overhead = worse_by(untraced, t_med, m["better"])
                print(f"  {name:<16} traced median {t_med:.6g} "
                      f"(overhead {overhead:+.3f})")
                report["workloads"][w][name + ".traced"] = {
                    "values": traced[w][name], "median": t_med,
                    "overhead": overhead}
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
