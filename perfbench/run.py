#!/usr/bin/env python3
"""Build the benchmark from source and run it.

One run (what BENCHMARK.json's command does):
    python3 perfbench/run.py --workload nsx-dfw --seed 1 --seconds 10 --trace 0
All workloads in one process, with their reports:
    python3 perfbench/run.py --workload all
Repeat mode, k runs on seeds seed..seed+k-1, then the median and quartiles
of every metric and their spread (quartile distance over the median):
    python3 perfbench/run.py --repeat 10 --workload p2p-emc --seed 1

Run it from the repository root. The build goes to .bench_build with
dune's shared cache off, so nothing is written outside the checkout.
"""
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/src/main.exe"
EXE = os.path.join(BUILD_DIR, "default", TARGET)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "-j", "2", "--display", "quiet", TARGET]
    try:
        return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False


def take(args, flag, default):
    if flag in args:
        i = args.index(flag)
        value = args[i + 1]
        del args[i:i + 2]
        return value
    return default


def repeat(k, args):
    seed = int(take(args, "--seed", "1"))
    runs, ok = [], True
    for i in range(k):
        out = subprocess.run([EXE, "--seed", str(seed + i)] + args,
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed + i}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.4g}"
                         for k, v in list(result["metrics"].items())[:8])
        print(f"seed {seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}",
              flush=True)
    print(f"{'metric':38} {'unit':8} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        print(f"{name:38} {m['unit']:8} {q1:12.4f} {q2:12.4f} {q3:12.4f} {spread:8.4f}")
    return 0 if ok else 1


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    k = int(take(args, "--repeat", "0"))
    if k > 0:
        return repeat(k, args)
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
