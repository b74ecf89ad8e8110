#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the monitoring daemon.

One run:
    python3 e2ebench/run.py --workload fleet-paced --seed 1 --seconds 15 --trace 0

builds e2ebench/ (and the bperf library it links) under the build
directory -- $CARGO_TARGET_DIR when set, else .bench_build -- and runs
the benchmark binary, whose last stdout line is the JSON result.

Steadiness mode:
    python3 e2ebench/run.py --repeat 10 [--sets 2] [--workload NAME]
        [--seed 1] [--seconds 15]

runs each workload (all of BENCHMARK.json's unless --workload is given)
--repeat times untraced, with seeds seed, seed+1, ..., and prints for
every end-to-end metric its median, quartiles and quartile spread as a
share of the median, against the metric's bound.  With --sets 2 or
more it repeats the whole set and prints how far each later set's
median moved in the worse direction, also against the bound.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def build():
    """Configure and build the benchmark binary; returns its path or None."""
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", str(out), "--target", "e2ebench",
             "-j", jobs],
        ]
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr,
                                      stderr=sys.stderr, env=env,
                                      timeout=1800)
            except (OSError, subprocess.TimeoutExpired) as err:
                log(f"run.py: {' '.join(cmd[:2])} failed: {err}")
                return None
            if done.returncode != 0:
                log(f"run.py: {' '.join(cmd[:2])} exited "
                    f"{done.returncode}")
                return None
    binary = out / "e2ebench"
    return binary if binary.is_file() else None


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run the binary once; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return 1, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(binary, spec, args):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    medians = {}  # (set, workload, metric) -> median
    ok = True
    for set_index in range(args.sets):
        for workload in workloads:
            values = {name: [] for name in metrics}
            shares = set()
            for i in range(args.repeat):
                seed = args.seed + i
                code, result = run_once(binary, workload, seed,
                                        args.seconds, 0, echo=False)
                if code != 0 or result is None or not result["correct"]:
                    log(f"run.py: {workload} seed {seed} failed (exit "
                        f"{code})")
                    ok = False
                    continue
                shares.add(result["failed"] / result["attempted"])
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            print(f"set {set_index + 1} {workload}: {args.repeat} runs, "
                  f"failed share {sorted(shares)}")
            print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} "
                  f"{'q3':>14s} {'spread':>7s} {'bound':>6s} "
                  f"{'spread/bound':>12s}")
            for name, m in metrics.items():
                vals = values[name]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians[(set_index, workload, name)] = med
                print(f"  {name:20s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:7.3f} {m['bound']:6.3f} "
                      f"{spread / m['bound']:12.2f}")
    for set_index in range(1, args.sets):
        print(f"set {set_index + 1} vs set 1: median moved in the worse "
              f"direction, as a share of set 1's median")
        for workload in workloads:
            for name, m in metrics.items():
                key0 = (0, workload, name)
                key = (set_index, workload, name)
                if key0 not in medians or key not in medians:
                    continue
                base, now = medians[key0], medians[key]
                worse = (now - base) if m["better"] == "lower" else (
                    base - now)
                share = worse / base if base else float("inf")
                flag = "ok" if share <= m["bound"] else "OVER"
                print(f"  {workload:12s} {name:20s} {share:+8.3f} "
                      f"(bound {m['bound']:.3f}) {flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness mode: sets of --repeat runs")
    args = parser.parse_args()
    if args.repeat <= 0 and not args.workload:
        parser.error("--workload is required outside steadiness mode")

    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 3
    if args.repeat > 0:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        return steadiness(binary, spec, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
