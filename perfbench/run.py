#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the ceu sources from
src/) into .bench_build/; later calls only rebuild what changed. Build
output goes to stderr. The benchmark binary's report goes to stdout, and its
last line is the JSON result. Everything the build and the run write stays
under .bench_build/ (TMPDIR points there too, for the AOT C compiler).

--selftest runs the harness self-tests: the statistics/accounting unit
tests, and a check that the metric names and units the binary reports are
exactly those BENCHMARK.json declares.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-inject", "serve-migrate", "fleet-mix", "compile-lint")


def scratch_env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    env = scratch_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_selftest",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def binary(name):
    return os.path.join(BUILD, name)


def selftest():
    ok = subprocess.run([binary("perfbench_selftest")]).returncode == 0
    listed = json.loads(subprocess.run([binary("perfbench"), "--list-metrics"],
                                       capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in declared[kind]]
        got = [tuple(m) for m in listed[kind]]
        if want == got:
            print(f"ok   {kind} metrics match BENCHMARK.json ({len(got)})")
        else:
            print(f"FAIL {kind} metrics differ: BENCHMARK.json {want} vs binary {got}")
            ok = False
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) == sorted(WORKLOADS):
        print("ok   workloads match BENCHMARK.json")
    else:
        print(f"FAIL workloads differ: BENCHMARK.json {names} vs {list(WORKLOADS)}")
        ok = False
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()

    cmd = [binary("perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", os.path.join(BUILD, "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=scratch_env())
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        # The contract: the last line is the result object.
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("perfbench: malformed result line", file=sys.stderr)
            return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
