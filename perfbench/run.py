#!/usr/bin/env python3
"""Build and run the repository benchmark (sqp_perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload explore-spec --seed 42 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced + traced

The first call configures and builds perfbench/CMakeLists.txt (libsqp
from src/ plus sqp_perfbench) into .bench_build/; later calls rebuild
incrementally. Build output goes to stderr. The report of sqp_perfbench
goes to stdout and its last line is the JSON result object. With --trace 1 the
traced run's spans are written as Chrome trace JSON to
.bench_build/traces/<workload>-seed<seed>.json.

Exits non-zero without a result when the build fails (for example in a
directory that holds only the benchmark, without src/), when a final
query failed or returned wrong rows, or when the report does not match
BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "sqp_perfbench")
# A run ends within 180 s: sqp_perfbench gets what remains after the
# build check, so a hung replay is killed instead of overrunning.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_bench(workload, seed, seconds, trace, sessions=None, timeout=None):
    """Runs sqp_perfbench once; returns (stdout text, parsed result dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if sessions:
        cmd += ["--sessions", str(sessions)]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"sqp_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("sqp_perfbench printed nothing")
    return proc.stdout, json.loads(lines[-1])


def check_result(spec, result, trace):
    """The result must be correct and carry exactly the metrics
    BENCHMARK.json names."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{missing}, unlisted {extra}, unit mismatch {units}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    # A wrong or failed final query fails the run: no result is printed.
    if result["correct"] is not True or result["failed"] != 0:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} "
                           f"final queries failed or returned wrong rows")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="default: every workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--sessions", type=int,
                        help="override the workload's session count")
    args = parser.parse_args()

    start = time.monotonic()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # A run that had to compile may take longer; only an up-to-date
    # build counts against the run's own time limit.
    if time.monotonic() - start > 30:
        start = time.monotonic()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:
        traces = [args.trace] if args.trace is not None else [0, 1]
        runs = [(w["name"], bool(t)) for w in spec["workloads"] for t in traces]

    last = None
    for workload, trace in runs:
        timeout = None
        if len(runs) == 1:
            timeout = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - start))
        try:
            out, result = run_bench(workload, args.seed, seconds, trace,
                                     args.sessions, timeout)
            check_result(spec, result, trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {workload} (trace {int(trace)}): {e}",
                  file=sys.stderr)
            return 1
        body = out.strip().splitlines()[:-1]
        if len(runs) > 1:
            print(f"\n===== {workload} (trace {int(trace)}) =====")
        print("\n".join(body))
        last = result
        if len(runs) > 1:
            print(json.dumps(result))
    if len(runs) == 1:
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
