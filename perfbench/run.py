#!/usr/bin/env python3
"""Host-clock benchmark of the sea simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/harness.exe with dune into .bench_build/, then runs it.
With --trace 0 it times seeded Cluster.run jobs for S seconds and prints
the end-to-end metrics; set-up is timed in several fresh processes and
reported as their median. With --trace 1 it prints the per-layer
metrics of a traced job. Context lines (digest, virtual-clock summary,
calibration loop) come first; the last line is the JSON result.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
SETUP_PROBES = 4
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a checkout of the repository: %s is missing" % needed)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/harness.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed (dune exit %d)" % p.returncode)


def harness(*args):
    """Run the harness; return (context lines, parsed final JSON line)."""
    try:
        p = subprocess.run([HARNESS, *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("harness %s: %s" % (" ".join(args), e))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        die("harness %s exited %d" % (" ".join(args), p.returncode))
    return lines[:-1], json.loads(lines[-1])


def bench(workload, seed, seconds, trace):
    common = ["--workload", workload]
    calibrate_before = harness("calibrate")[1]["calibrate_s"]
    if trace:
        context, result = harness("trace", *common, "--seed", str(seed),
                                  "--seconds", str(seconds))
    else:
        setups = [harness("setup", *common)[1]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        context, result = harness("run", *common, "--seed", str(seed),
                                  "--seconds", str(seconds))
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        context.append("# setup_s samples: " +
                       " ".join("%.4f" % s for s in setups))
    calibrate_after = harness("calibrate")[1]["calibrate_s"]
    context.append("# calibration loop: %.4f s before, %.4f s after" %
                   (calibrate_before, calibrate_after))
    for line in context:
        print(line)
    print(json.dumps(result), flush=True)


def selftest():
    """Harness self-tests, then every workload at smoke size in both
    modes: each metric BENCHMARK.json names is printed with its unit."""
    p = subprocess.run([HARNESS, "selftest"], cwd=ROOT, timeout=RUN_TIMEOUT)
    ok = p.returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            mode = "trace" if trace else "run"
            _, result = harness(mode, "--workload", w["name"], "--seed", "1",
                                "--seconds", "1", "--smoke")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (got == want and result["correct"]
                    and set(result) == {"correct", "attempted", "failed",
                                        "metrics"})
            print("%s %s --trace %d: %d metrics with units%s" % (
                "ok  " if good else "FAIL", w["name"], trace, len(got),
                "" if good else ", differs from BENCHMARK.json"))
            ok = ok and good
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        selftest()
    if not args.workload:
        die("--workload is required")
    bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
