#!/usr/bin/env python3
"""Fidelity knee: how fast serve can run before it stops matching the simulator.

Runs pardsim on lv with the tweet trace for 150 virtual seconds under PARD,
once in the simulator and then in serve at 20, 50, 100, 200, 400 and 1000x,
and prints two markdown tables:

  1. normalized goodput per speedup, with the wall-clock request rate;
  2. where the substrates differ: summed batch-wait and exec p50 per
     request (from --json), and per module the number of batches and the
     mean requests per batch (from --metrics-out).

Serve runs measure wall-clock timing, so the numbers move with host load:
run it on a quiet machine, and never as part of the default test tier.

Usage: python3 tools/fidelity_knee.py [--pardsim build/pardsim] [--runs N]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

DURATION_S = 150
SPEEDUPS = [20, 50, 100, 200, 400, 1000]
BASE_ARGS = ["--app", "lv", "--trace", "tweet", "--policy", "pard",
             "--duration-s", str(DURATION_S)]


def run_once(pardsim, speedup, workdir):
    """One pardsim run (speedup None = simulator); returns its measurements."""
    metrics_path = os.path.join(workdir, "metrics.json")
    args = [pardsim] + BASE_ARGS + ["--json", "--metrics-out", metrics_path]
    if speedup is not None:
        args += ["--serve", "--speedup", str(speedup)]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("pardsim failed (%s):\n%s" % (" ".join(args), proc.stderr))
    report = json.loads(proc.stdout)
    with open(metrics_path) as f:
        metrics = json.load(f)
    modules = []
    k = 0
    while "module.m%d.batch_size" % k in metrics["histograms"]:
        batches = sum(metrics["histograms"]["module.m%d.batch_size" % k]["counts"])
        executed = metrics["totals"].get("module.m%d.executed" % k, 0)
        modules.append((batches, executed / batches if batches else 0.0))
        k += 1
    return {
        "goodput": report["summary"]["normalized_goodput"],
        "total": report["summary"]["total"],
        "wait_p50": report["latency"]["sum_wait_ms"]["p50"],
        "exec_p50": report["latency"]["sum_exec_ms"]["p50"],
        "modules": modules,
    }


def span(values, fmt):
    lo, hi = min(values), max(values)
    return fmt % lo if lo == hi else (fmt + "–" + fmt) % (lo, hi)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pardsim", default="build/pardsim", help="pardsim binary")
    parser.add_argument("--runs", type=int, default=1, help="serve runs per speedup")
    opts = parser.parse_args()
    if not os.path.isfile(opts.pardsim):
        sys.exit("no pardsim binary at %s (build first, or pass --pardsim)" % opts.pardsim)

    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        results[None] = [run_once(opts.pardsim, None, workdir)]
        for speedup in SPEEDUPS:
            results[speedup] = []
            for _ in range(opts.runs):
                results[speedup].append(run_once(opts.pardsim, speedup, workdir))
                print("serve %dx run %d done" % (speedup, len(results[speedup])),
                      file=sys.stderr)

    total = results[None][0]["total"]
    print("lv / tweet / pard, %d s, %d requests\n" % (DURATION_S, total))
    print("| speedup | wall req/s | normalized goodput (runs) |")
    print("|---|---|---|")
    print("| sim | — | %.3f |" % results[None][0]["goodput"])
    for speedup in SPEEDUPS:
        runs = results[speedup]
        wall_rate = total / DURATION_S * speedup
        print("| %d× | ~%.1fk | %s (%d) |" % (speedup, wall_rate / 1000.0,
                                            span([r["goodput"] for r in runs], "%.3f"),
                                            len(runs)))

    columns = [None] + SPEEDUPS
    print()
    print("| | " + " | ".join("sim" if c is None else "serve %d×" % c for c in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    rows = [("summed batch wait p50 (ms)", lambda r: r["wait_p50"], "%.1f"),
            ("summed exec p50 (ms)", lambda r: r["exec_p50"], "%.1f")]
    for k in range(len(results[None][0]["modules"])):
        rows.append(("m%d batches" % k, lambda r, k=k: r["modules"][k][0], "%d"))
        rows.append(("m%d requests per batch" % k, lambda r, k=k: r["modules"][k][1], "%.2f"))
    for name, get, fmt in rows:
        cells = [span([get(r) for r in results[c]], fmt) for c in columns]
        print("| %s | %s |" % (name, " | ".join(cells)))


if __name__ == "__main__":
    main()
