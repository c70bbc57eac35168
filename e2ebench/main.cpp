// e2ebench: the longitudinal-path benchmark.
//
//   e2ebench --workload census|feed|query --seed N --seconds S --trace 0|1
//            [--work-dir DIR]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// derived from spans the benchmark records around its calls into the
// program and writes to DIR/spans-<workload>-seed<N>.jsonl at exit.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload census|feed|query --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

void print_json(const e2ebench::RunResult& r,
                const std::vector<e2ebench::Metric>& metrics,
                const char* label = nullptr) {
  if (label) std::printf("%s ", label);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.ledger.correct ? "true" : "false",
              static_cast<unsigned long long>(r.ledger.attempted),
              static_cast<unsigned long long>(r.ledger.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  fs::path work_root = ".bench_build/work";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      work_root = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || options.seconds <= 0) return usage();
  using Runner = e2ebench::RunResult (*)(const e2ebench::Options&,
                                         e2ebench::SpanRecorder&);
  Runner runner = nullptr;
  if (options.workload == "census") runner = e2ebench::run_census;
  if (options.workload == "feed") runner = e2ebench::run_feed;
  if (options.workload == "query") runner = e2ebench::run_query;
  if (runner == nullptr) return usage();

  options.work_dir = work_root / (options.workload + "-" +
                                  std::to_string(options.seed) + "-" +
                                  std::to_string(::getpid()));
  const fs::path spans_out =
      work_root / ("spans-" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".jsonl");
  int status = 0;
  try {
    fs::create_directories(options.work_dir);
    e2ebench::SpanRecorder spans(options.trace);
    std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    const e2ebench::RunResult r = runner(options, spans);
    for (const auto& line : r.report) std::printf("%s\n", line.c_str());
    std::printf("attempted = %llu, failed = %llu, fail_ratio = %.6f\n",
                static_cast<unsigned long long>(r.ledger.attempted),
                static_cast<unsigned long long>(r.ledger.failed),
                r.ledger.fail_ratio());
    for (const auto& [reason, count] : r.ledger.failures) {
      std::printf("  failed: %s x %llu\n", reason.c_str(),
                  static_cast<unsigned long long>(count));
    }
    for (const auto& m : r.e2e) {
      std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (options.trace) {
      for (const auto& m : r.layers) {
        std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
      spans.write_jsonl(spans_out);
      std::printf("spans: %zu written to %s\n", spans.spans().size(),
                  spans_out.string().c_str());
      // End-to-end values measured with tracing on, for the overhead
      // comparison against an untraced run (run.py --overhead).
      print_json(r, r.e2e, "traced-e2e:");
      print_json(r, r.layers);
    } else {
      print_json(r, r.e2e);
    }
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  return status;
}
