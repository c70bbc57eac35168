// Archive query engine (the `laces query` subcommand).
//
// Answers longitudinal questions against an archive without re-running any
// measurement: per-prefix detection history (one ArchiveReader::for_each_day
// walk, which visits the cached days first), intermittent-prefix sets, and
// stability statistics.
// Day-level summaries come straight from the manifest — no segment is
// touched — and stability prefers the checkpoint's incremental counters
// over a full segment replay when one is present.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/archive.hpp"

namespace laces::store {

/// One day of a prefix's archived history.
struct HistoryDay {
  std::uint32_t day = 0;
  bool degraded = false;
  /// Whether the prefix was published at all on this day.
  bool published = false;
  bool anycast_based = false;
  bool gcd_confirmed = false;
  std::uint32_t max_vp_count = 0;
  std::uint32_t gcd_sites = 0;

  bool operator==(const HistoryDay&) const = default;
};

/// Manifest-only archive summary.
struct ArchiveSummary {
  std::size_t days = 0;
  std::size_t degraded_days = 0;
  std::uint32_t first_day = 0;
  std::uint32_t last_day = 0;
  std::uint64_t records_total = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t csv_bytes = 0;
  /// segment_bytes / csv_bytes (0 when no CSV bytes recorded).
  double compression_ratio = 0.0;
  /// Mean anycast-based detections per healthy day.
  double anycast_daily_mean = 0.0;
  double gcd_daily_mean = 0.0;

  bool operator==(const ArchiveSummary&) const = default;
};

/// Both methods' stability, plus where the numbers came from.
struct StabilityReport {
  census::StabilityStats anycast_based;
  census::StabilityStats gcd;
  /// True when served from checkpoint counters, false when replayed.
  bool from_checkpoint = false;

  bool operator==(const StabilityReport&) const = default;
};

class QueryEngine {
 public:
  explicit QueryEngine(ArchiveReader& reader) : reader_(reader) {}

  /// Day-level summary from the manifest alone (no segment reads).
  ArchiveSummary summary() const;

  /// The prefix's detection record on every archived day, in day order.
  std::vector<HistoryDay> history(const net::Prefix& prefix);

  /// Stability stats: O(days-in-manifest) from the checkpoint when present
  /// and covering every archived day, else a full segment replay.
  StabilityReport stability();

  /// Prefixes detected on some but not all healthy days, per method.
  std::vector<net::Prefix> intermittent_anycast_based();
  std::vector<net::Prefix> intermittent_gcd();

 private:
  const census::LongitudinalStore& longitudinal();

  ArchiveReader& reader_;
  std::optional<census::LongitudinalStore> replayed_;
};

/// Text rendering helpers for the CLI.
std::string render_summary(const ArchiveSummary& summary);
std::string render_history(const net::Prefix& prefix,
                           const std::vector<HistoryDay>& history);
std::string render_stability(const StabilityReport& report);

}  // namespace laces::store
