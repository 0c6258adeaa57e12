#!/usr/bin/env python3
"""End-to-end goodput benchmark for the PARD simulator and serve runtime.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The first call builds goodput_bench (this directory's CMake project, which
compiles the program's library from ../src) into $CARGO_TARGET_DIR, default
.bench_build/, in Release mode; later calls reuse the build. The benchmark runs
the workload for --seconds, checks its outputs, prints every metric with its
unit, and ends with one JSON line. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 the per-layer ones, and also writes the traced
repetition's layer spans and sampled program trace (Chrome trace format)
into .bench_build/perfbench-out/. `--workload all` runs every workload with
--trace 0 and 1 and exits non-zero if any output check failed.

Exit status: 0 when every check passed; non-zero on a failed check, a failed
build, or a checkout without the program's sources.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.h")):
        fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(step))
    return os.path.join(out, "goodput_bench")


def commit_id():
    # The benchmark may run from a plain copy of the tree; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, workload, seed, seconds, trace, commit):
    """Runs the benchmark once, streaming its report; returns (exit code, result)."""
    out_dir = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit, "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    result_line = None
    try:
        for line in proc.stdout:
            if line.startswith("{"):
                result_line = line
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        code = proc.wait()
        timed_out = not timer.is_alive()
        timer.cancel()
    if timed_out:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    if result_line is None:
        fail(f"{workload}: benchmark exited {code} without a result")
    result = json.loads(result_line)
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        fail(f"{workload}: metrics disagree with BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    commit = commit_id()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                               commit)
        print(json.dumps(result))
        sys.exit(code)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        for trace in (0, 1):
            code, result = run_one(binary, name, args.seed, args.seconds, trace, commit)
            worst = worst or code
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    sys.exit(worst if worst else (0 if summary["correct"] else 1))


if __name__ == "__main__":
    main()
