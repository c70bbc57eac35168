// The three workloads of the longitudinal-path benchmark. Each drives the
// program only through its public calls and times every layer from
// outside, at those calls. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for archives; removed at exit.
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  Ledger ledger;
  /// End-to-end metrics (printed with tracing off).
  std::vector<Metric> e2e;
  /// Per-layer metrics (printed with tracing on).
  std::vector<Metric> layers;
  /// Human-readable lines: the workload's named metrics, tails with their
  /// percentile and sample count, failure reasons.
  std::vector<std::string> report;
};

RunResult run_census(const Options& options, SpanRecorder& spans);
RunResult run_feed(const Options& options, SpanRecorder& spans);
RunResult run_query(const Options& options, SpanRecorder& spans);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace e2ebench
