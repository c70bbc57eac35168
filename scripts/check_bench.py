#!/usr/bin/env python3
"""Gate CI on the performance benches against their checked-in baselines.

Compares a BENCH_*.json result file with one section of the checked-in
baseline (scripts/bench_baseline.json, one section per bench: pipeline,
archive, serve, mesh) and exits non-zero if any metric regressed by more
than the allowed factor (default 2x). The factor is deliberately loose:
shared CI runners are noisy, and the gate exists to catch algorithmic
regressions (an accidental O(n^2), a capture outgrowing the
inline-callback buffer), not scheduler jitter. Metrics absent from the
chosen section are reported but not gated, so the one METRICS table serves
every result file.

Usage:
    scripts/check_bench.py BENCH_pipeline.json --bench pipeline
    scripts/check_bench.py BENCH_archive.json --bench archive
    scripts/check_bench.py BENCH_serve.json --bench serve
    scripts/check_bench.py BENCH_mesh.json --bench mesh
                           [--baseline scripts/bench_baseline.json]
                           [--max-regression 2.0]

After an intentional performance change, refresh the bench's section on a
quiet machine (`./bench/bench_perf_pipeline` / `./bench/bench_archive` /
... in a Release build) and commit it together with the change.
"""

import argparse
import json
import sys

# metric name -> direction ("higher" = throughput, "lower" = latency/time)
METRICS = {
    "events_per_sec": "higher",
    "packets_per_sec": "higher",
    "census_day_wall_ms": "lower",
    # Scaled-world tier (WorldConfig::scale): census-day wall time over the
    # 10x world, plus 8-shard speedup when the runner has >= 8 cores (the
    # bench omits it otherwise, so it is reported-not-gated on small boxes;
    # bench_perf_pipeline itself enforces the 3x bar in-process).
    "scaled_census_day_wall_ms": "lower",
    "parallel_speedup_8": "higher",
    # bench_archive (laces_store): throughput up, compression ratio down.
    "archive_write_mb_s": "higher",
    "archive_read_mb_s": "higher",
    "compression_ratio": "lower",
    # bench_serve (laces_serve): throughput up, tail latency down.
    "serve_requests_per_sec": "higher",
    "serve_p50_ms": "lower",
    "serve_p99_ms": "lower",
    "serve_p999_ms": "lower",
    # bench_serve's one-thread history walks: segment loads per walk after
    # the first, over an archive one day longer than its cache. A count, so
    # noise cannot move it; a walk in manifest order reads 4, not 1.
    "history_segment_loads_per_walk": "lower",
    # bench_mesh (laces_mesh): pub/sub fan-out chunk deliveries per second
    # up, push tail latency (append start -> subscriber sink) down.
    "mesh_deltas_per_sec": "higher",
    "mesh_push_p50_ms": "lower",
    "mesh_push_p999_ms": "lower",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="BENCH_*.json written by the bench")
    parser.add_argument(
        "--bench",
        required=True,
        help="baseline section to compare against (pipeline, archive, serve, mesh)",
    )
    parser.add_argument("--baseline", default="scripts/bench_baseline.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail if a metric is worse than baseline by more than this factor",
    )
    args = parser.parse_args()

    with open(args.results) as f:
        results = json.load(f)
    with open(args.baseline) as f:
        sections = json.load(f)
    if args.bench not in sections or args.bench.startswith("_"):
        names = ", ".join(k for k in sections if not k.startswith("_"))
        print(f"unknown bench '{args.bench}' (baseline has: {names})", file=sys.stderr)
        return 2
    baseline = sections[args.bench]

    print(f"sha256 backend: {results.get('sha256_backend', '(not recorded)')}")
    failures = []
    print(f"{'metric':<30} {'baseline':>14} {'current':>14} {'ratio':>8}")
    for name, direction in METRICS.items():
        if name not in baseline:
            print(f"{name:<30} {'(no baseline)':>14} {results.get(name, '-'):>14}")
            continue
        if name not in results:
            failures.append(f"{name}: missing from results file")
            continue
        base, cur = float(baseline[name]), float(results[name])
        if base <= 0 or cur <= 0:
            failures.append(f"{name}: non-positive value (baseline={base}, current={cur})")
            continue
        # ratio > 1 means "worse than baseline" in both directions.
        ratio = base / cur if direction == "higher" else cur / base
        flag = " REGRESSION" if ratio > args.max_regression else ""
        print(f"{name:<30} {base:>14.1f} {cur:>14.1f} {ratio:>7.2f}x{flag}")
        if ratio > args.max_regression:
            failures.append(
                f"{name}: {ratio:.2f}x worse than baseline "
                f"(limit {args.max_regression:.2f}x)"
            )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: all metrics within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
