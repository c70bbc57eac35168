// laces_mesh pub/sub fan-out throughput and push tail latency.
//
// One origin relay publishes synthetic census days (large prefix sets
// with daily churn, so every day carries real upserts *and* removals)
// to N subscribers — the fan-out shape of a census mesh where many
// downstream consumers follow one national vantage. Every subscriber
// receives every chunk in feed order; the measured unit is the chunk
// delivery (one filtered DeltaChunk handed to one subscriber), and the
// per-delivery latency is wall time from the start of the day's
// ArchiveWriter::append() to the moment the subscriber's sink runs —
// i.e. diff + chunk + filter + fan-out cost, which is what a co-located
// census pipeline pays to publish a day.
//
// Emits BENCH_mesh.json for the CI regression gate:
//   python3 scripts/check_bench.py BENCH_mesh.json --bench mesh
// LACES_BENCH_SHORT=1 shrinks the workload for CI runners.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mesh/relay.hpp"
#include "store/archive.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"

namespace {

namespace fs = std::filesystem;
using namespace laces;

net::Prefix v4(std::uint32_t i) {
  return net::Ipv4Prefix(
      net::Ipv4Address(10, static_cast<std::uint8_t>(i >> 8),
                       static_cast<std::uint8_t>(i & 0xff), 0),
      24);
}

/// Synthetic census day: `spread` candidate /24s, ~1/7 of them churning
/// in or out each day so consecutive deltas stay non-trivial.
census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 100000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    if ((day + i) % 7 == 0) continue;
    census::PrefixRecord rec;
    rec.prefix = v4(i);
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 5};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_mode = std::getenv("LACES_BENCH_SHORT") != nullptr;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_mesh.json";

  const std::uint32_t days = short_mode ? 16 : 48;
  const std::uint32_t spread = short_mode ? 2000 : 6000;
  const std::size_t subscribers = 8;

  const fs::path dir = fs::temp_directory_path() / "laces_bench_mesh";
  fs::remove_all(dir);
  store::ArchiveWriter writer(dir);

  mesh::RelayConfig config;
  config.name = "bench-origin";
  config.max_rows_per_chunk = 256;  // several chunks per day
  mesh::Relay origin(config, nullptr, dir);
  origin.attach_publisher(writer);

  // N fan-out subscribers. Sinks run serialized under the origin lock on
  // the appending thread, so one shared latency vector is race-free.
  std::vector<double> push_latency_ms;
  push_latency_ms.reserve(days * subscribers * (spread / 256 + 2));
  std::chrono::steady_clock::time_point append_start;
  std::uint64_t chunks_delivered = 0;
  for (std::size_t i = 0; i < subscribers; ++i) {
    origin.subscribe_local(
        mesh::SubscriptionSpec{},
        [&push_latency_ms, &append_start,
         &chunks_delivered](const mesh::DeltaChunk&) {
          const auto now = std::chrono::steady_clock::now();
          push_latency_ms.push_back(
              std::chrono::duration<double, std::milli>(now - append_start)
                  .count());
          ++chunks_delivered;
        });
  }

  const auto bench_start = std::chrono::steady_clock::now();
  for (std::uint32_t day = 1; day <= days; ++day) {
    append_start = std::chrono::steady_clock::now();
    writer.append(make_day(day, spread));
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  const auto stats = origin.stats();
  const double deltas_per_sec =
      elapsed_s > 0 ? static_cast<double>(chunks_delivered) / elapsed_s : 0.0;
  const double p50 = percentile(push_latency_ms, 50.0);
  const double p99 = percentile(push_latency_ms, 99.0);
  const double p999 = percentile(push_latency_ms, 99.9);

  const std::string backend(sha256_backend());
  std::ofstream(json_path)
      << "{\n"
      << "  \"sha256_backend\": \"" << backend << "\",\n"
      << "  \"mesh_deltas_per_sec\": " << deltas_per_sec << ",\n"
      << "  \"mesh_push_p50_ms\": " << p50 << ",\n"
      << "  \"mesh_push_p999_ms\": " << p999 << "\n"
      << "}\n";

  std::printf("=== laces_mesh fan-out ===\n");
  std::printf("sha256 backend: %s\n", backend.c_str());
  std::printf("%u days x %u candidate /24s -> %zu subscribers; "
              "%llu chunk deliveries (%llu chunks published) in %.2f s\n",
              days, spread, subscribers,
              static_cast<unsigned long long>(chunks_delivered),
              static_cast<unsigned long long>(stats.deltas_published),
              elapsed_s);
  std::printf("push latency (append start -> sink): p50 %.3f ms, "
              "p99 %.3f ms, p999 %.3f ms\n",
              p50, p99, p999);
  std::printf("BENCH_mesh.json: mesh_deltas_per_sec=%.3g "
              "mesh_push_p999_ms=%.3g -> %s\n",
              deltas_per_sec, p999, json_path);

  fs::remove_all(dir);
  // Every published chunk must reach every subscriber, and at least one
  // chunk exists per day.
  if (stats.deltas_published < days ||
      chunks_delivered != stats.deltas_published * subscribers) {
    std::fprintf(stderr,
                 "bench_mesh: FAIL %llu deliveries for %llu published "
                 "chunks x %zu subscribers\n",
                 static_cast<unsigned long long>(chunks_delivered),
                 static_cast<unsigned long long>(stats.deltas_published),
                 subscribers);
    return 1;
  }
  return 0;
}
