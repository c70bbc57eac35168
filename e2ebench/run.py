#!/usr/bin/env python3
"""Builds the longitudinal-path benchmark from this checkout and runs it.

Run from the repository root:

  python3 e2ebench/run.py --workload census|feed|query --seed N \\
      --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest
  python3 e2ebench/run.py --overhead --workload W --seed N --seconds S

The build (CMake, Release) goes to $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench; build output goes to stderr so that the last line on
stdout is the benchmark's JSON result. --overhead runs the workload once
untraced and once traced on the same seed and prints, per end-to-end
metric, traced minus untraced.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(targets):
    build_dir = os.path.join(build_root(), "e2ebench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("e2ebench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(done.returncode or 1)
    return build_dir


def run_bench(build_dir, args, capture=False):
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--work-dir", os.path.join(build_root(), "work")] + args
    if not capture:
        return subprocess.run(cmd).returncode, None
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    return done.returncode, done.stdout.splitlines()


def overhead(build_dir, args):
    code, plain = run_bench(build_dir, args + ["--trace", "0"], capture=True)
    if code != 0:
        return code
    code, traced = run_bench(build_dir, args + ["--trace", "1"], capture=True)
    if code != 0:
        return code
    untraced_metrics = json.loads(plain[-1])["metrics"]
    traced_line = [l for l in traced if l.startswith("traced-e2e: ")][-1]
    traced_metrics = json.loads(traced_line[len("traced-e2e: "):])["metrics"]
    print("tracing overhead (traced - untraced, same seed):")
    for name, m in untraced_metrics.items():
        delta = traced_metrics[name]["value"] - m["value"]
        share = delta / m["value"] if m["value"] else 0.0
        print("  %-24s %+14.6f %-7s (%+.1f%%)"
              % (name, delta, m["unit"], 100.0 * share))
    return 0


def main(argv):
    if "--selftest" in argv:
        build_dir = build(["e2ebench_selftest"])
        work = os.path.join(build_root(), "work")
        os.makedirs(work, exist_ok=True)
        return subprocess.run(
            [os.path.abspath(os.path.join(build_dir, "e2ebench_selftest"))],
            cwd=work).returncode
    build_dir = build(["e2ebench"])
    if "--overhead" in argv:
        return overhead(build_dir, [a for a in argv if a != "--overhead"])
    return run_bench(build_dir, argv)[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
