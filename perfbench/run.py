#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the measuring program, the
daemon and tracestat with dune, runs the measuring program, and prints
as the last line of standard output one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The human-readable table (units, sample counts, notes) goes to standard
error.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# The sources the benchmark builds; without them there is nothing to run.
REQUIRED = [
    "dune-project",
    "bin/schedsimd.ml",
    "lib/cluster/daemon.ml",
    "tools/tracestat/tracestat.ml",
]
TARGETS = [
    "perfbench/main/perfbench.exe",
    "bin/schedsimd.exe",
    "tools/tracestat/tracestat.exe",
]
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build = subprocess.run(
        ["dune", "build", "--root", ROOT] + TARGETS,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_LIMIT_S,
    )
    if build.returncode != 0:
        fail("build failed", 1)

    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", TARGETS[0])
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--root", ROOT,
        "--out", OUT,
    ]
    # Own process group, so the daemons it spawns go with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail("timed out", 3)
    finally:
        kill_group(proc.pid)
    if proc.returncode != 0:
        fail("measuring program exited with %d" % proc.returncode, 1)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("measuring program printed no result", 1)
    result = json.loads(lines[-1])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail("metric %s missing from the result" % m["name"], 1)
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]), 1)
        metrics[m["name"]] = got
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
