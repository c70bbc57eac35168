// laces_store throughput and compression.
//
// Archives pipeline-generated census days and measures segment write and
// read throughput plus the segment-vs-CSV compression ratio. The ratio is
// a hard acceptance bar, not just a tracked number: the columnar format
// must stay at or under HALF the §4.2.4 publication CSV size, and the
// bench exits non-zero if it does not.
//
// Emits BENCH_archive.json for the CI regression gate:
//   python3 scripts/check_bench.py BENCH_archive.json --bench archive
// LACES_BENCH_SHORT=1 shrinks the workload for CI runners.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "census/pipeline.hpp"
#include "common/scenario.hpp"
#include "store/archive.hpp"
#include "util/sha256.hpp"

namespace {

namespace fs = std::filesystem;
using namespace laces;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

int main(int argc, char** argv) {
  const bool short_mode = std::getenv("LACES_BENCH_SHORT") != nullptr;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_archive.json";

  // Real census days, not synthetic rows: compression claims only mean
  // something against the field distributions the pipeline produces.
  benchkit::Scenario scenario(/*seed=*/42, /*scale=*/short_mode ? 16 : 8);
  census::PipelineConfig config;
  config.tcp = false;
  config.dns = false;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(scenario.network(), scenario.production(),
                            scenario.ark163(), scenario.ark118_v6(), config);
  const std::uint32_t days = short_mode ? 2 : 4;
  std::vector<census::DailyCensus> series;
  for (std::uint32_t day = 1; day <= days; ++day) {
    series.push_back(pipeline.run_day(day));
  }

  const fs::path base = fs::temp_directory_path() / "laces_bench_archive";
  fs::remove_all(base);

  // --- write throughput: append the series into fresh archives ---
  const int write_passes = short_mode ? 3 : 8;
  std::uint64_t bytes_written = 0;
  const auto t_write = std::chrono::steady_clock::now();
  for (int pass = 0; pass < write_passes; ++pass) {
    std::string pass_dir = "w";
    pass_dir += std::to_string(pass);
    store::ArchiveWriter writer(base / pass_dir);
    for (const auto& census : series) writer.append(census);
    bytes_written += writer.manifest().total_segment_bytes();
  }
  const double write_secs = seconds_since(t_write);

  // --- read throughput: cache capacity 1 forces a decode per load ---
  const int read_passes = short_mode ? 6 : 20;
  std::uint64_t bytes_read = 0;
  std::uint64_t records_loaded = 0;  // keeps the loads observable
  const auto t_read = std::chrono::steady_clock::now();
  for (int pass = 0; pass < read_passes; ++pass) {
    store::ArchiveReader pass_reader(base / "w0", /*cache_capacity=*/1);
    for (const auto& census : series) {
      records_loaded += pass_reader.load_day(census.day)->records.size();
    }
    bytes_read += pass_reader.manifest().total_segment_bytes();
  }
  const double read_secs = seconds_since(t_read);

  store::ArchiveReader reader(base / "w0");
  const auto problems = reader.verify();
  const auto& manifest = reader.manifest();
  const double ratio =
      static_cast<double>(manifest.total_segment_bytes()) /
      static_cast<double>(manifest.total_csv_bytes());
  const double write_mb_s =
      write_secs > 0 ? static_cast<double>(bytes_written) / kMiB / write_secs
                     : 0.0;
  const double read_mb_s =
      read_secs > 0 ? static_cast<double>(bytes_read) / kMiB / read_secs : 0.0;

  const std::string backend(sha256_backend());
  std::ofstream(json_path) << "{\n"
                           << "  \"sha256_backend\": \"" << backend
                           << "\",\n"
                           << "  \"archive_write_mb_s\": " << write_mb_s
                           << ",\n"
                           << "  \"archive_read_mb_s\": " << read_mb_s
                           << ",\n"
                           << "  \"compression_ratio\": " << ratio << "\n"
                           << "}\n";
  std::printf("=== laces_store archive throughput ===\n");
  std::printf("sha256 backend: %s\n", backend.c_str());
  std::printf("days archived: %u (x%d write passes); per archive %llu "
              "segment bytes vs %llu CSV bytes; %llu records decoded\n",
              days, write_passes,
              static_cast<unsigned long long>(manifest.total_segment_bytes()),
              static_cast<unsigned long long>(manifest.total_csv_bytes()),
              static_cast<unsigned long long>(records_loaded));
  std::printf("BENCH_archive.json: archive_write_mb_s=%.3g "
              "archive_read_mb_s=%.3g compression_ratio=%.3f -> %s\n",
              write_mb_s, read_mb_s, ratio, json_path);

  fs::remove_all(base);
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "bench_archive: verify: %s\n", p.c_str());
    }
    return 1;
  }
  if (ratio > 0.5) {
    std::fprintf(stderr,
                 "bench_archive: FAIL compression ratio %.3f exceeds the 0.5 "
                 "acceptance bar (segments must stay under half the CSV "
                 "size)\n",
                 ratio);
    return 1;
  }
  std::printf("compression ratio %.3f <= 0.50 acceptance bar: OK\n", ratio);
  return 0;
}
