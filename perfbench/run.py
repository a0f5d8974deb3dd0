#!/usr/bin/env python3
"""Build the swarm benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sap-1m --seed 1 --seconds 15 --trace 0

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the repository's libraries in Release. It is configured
and built into $CARGO_TARGET_DIR (default .bench_build) before every run;
an up-to-date tree costs well under a second.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, measured with tracing off; with
--trace 1 they are its per_layer list, from a run that also writes a
Chrome trace. Every run's full result (all metrics, the crypto backend,
any failed check) is kept under .bench_out/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir: Path) -> Path:
    """Configure (once) and build cra_perfbench; returns the binary."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any((build_dir / f).exists()
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "cra_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return build_dir / "cra_perfbench"


def metric_names(spec: dict, trace: bool):
    return [(m["name"], m["unit"]) for m in
            spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"cra_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"cra_perfbench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("cra_perfbench printed no result")
        return 1
    full = json.loads(lines[-1])
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    log(f"crypto backend: {full['backend']}")

    measured = {**full["end_to_end"], **full["layers"]}
    metrics = {}
    for name, unit in metric_names(spec, bool(args.trace)):
        m = measured.get(name)
        if m is None or m["unit"] != unit:
            log(f"metric {name} ({unit}) missing from the run's output")
            return 1
        metrics[name] = {"value": m["value"], "unit": unit}

    print(json.dumps({"correct": full["correct"], "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
