#include "store/query.hpp"

#include <sstream>

#include "obs/trace.hpp"

namespace laces::store {

ArchiveSummary QueryEngine::summary() const {
  const auto& manifest = reader_.manifest();
  ArchiveSummary s;
  s.days = manifest.entries.size();
  std::uint64_t anycast_sum = 0;
  std::uint64_t gcd_sum = 0;
  for (const auto& entry : manifest.entries) {
    if (entry.degraded) {
      ++s.degraded_days;
    } else {
      anycast_sum += entry.anycast_detected;
      gcd_sum += entry.gcd_confirmed;
    }
    s.records_total += entry.record_count;
  }
  if (!manifest.entries.empty()) {
    s.first_day = manifest.entries.front().day;
    s.last_day = manifest.entries.back().day;
  }
  s.segment_bytes = manifest.total_segment_bytes();
  s.csv_bytes = manifest.total_csv_bytes();
  if (s.csv_bytes > 0) {
    s.compression_ratio =
        static_cast<double>(s.segment_bytes) / static_cast<double>(s.csv_bytes);
  }
  const std::size_t healthy = s.days - s.degraded_days;
  if (healthy > 0) {
    s.anycast_daily_mean =
        static_cast<double>(anycast_sum) / static_cast<double>(healthy);
    s.gcd_daily_mean =
        static_cast<double>(gcd_sum) / static_cast<double>(healthy);
  }
  return s;
}

std::vector<HistoryDay> QueryEngine::history(const net::Prefix& prefix) {
  obs::Span span("query.history");
  span.set_attr("prefix", prefix.to_string());
  const auto& entries = reader_.manifest().entries;
  // The walk visits cached days first; filling by manifest index keeps the
  // answer in day order.
  std::vector<HistoryDay> out(entries.size());
  reader_.for_each_day([&](std::size_t i, const census::DailyCensus& census) {
    HistoryDay& h = out[i];
    h.day = entries[i].day;
    h.degraded = entries[i].degraded;
    if (const census::PrefixRecord* rec = census.find(prefix)) {
      h.published = true;
      h.anycast_based = rec->anycast_based_detected();
      h.gcd_confirmed = rec->gcd_confirmed();
      h.max_vp_count = rec->max_vp_count();
      h.gcd_sites = rec->gcd_site_count;
    }
  });
  return out;
}

const census::LongitudinalStore& QueryEngine::longitudinal() {
  if (!replayed_) replayed_ = reader_.replay_longitudinal();
  return *replayed_;
}

StabilityReport QueryEngine::stability() {
  StabilityReport report;
  if (reader_.has_checkpoint()) {
    const Checkpoint cp = reader_.load_checkpoint();
    // The checkpoint is only authoritative if it covers the whole archive
    // (a checkpoint older than the last segment would under-count).
    if (cp.last_day == reader_.manifest().last_day()) {
      const auto store =
          census::LongitudinalStore::from_snapshot(cp.longitudinal);
      report.anycast_based = store.anycast_based_stability();
      report.gcd = store.gcd_stability();
      report.from_checkpoint = true;
      return report;
    }
  }
  const auto& store = longitudinal();
  report.anycast_based = store.anycast_based_stability();
  report.gcd = store.gcd_stability();
  return report;
}

std::vector<net::Prefix> QueryEngine::intermittent_anycast_based() {
  return longitudinal().intermittent_anycast_based();
}

std::vector<net::Prefix> QueryEngine::intermittent_gcd() {
  return longitudinal().intermittent_gcd();
}

std::string render_summary(const ArchiveSummary& s) {
  std::ostringstream out;
  out << "archive summary\n"
      << "  days:              " << s.days << " (degraded " << s.degraded_days
      << ")\n"
      << "  day range:         " << s.first_day << ".." << s.last_day << "\n"
      << "  records:           " << s.records_total << "\n"
      << "  segment bytes:     " << s.segment_bytes << "\n"
      << "  csv bytes:         " << s.csv_bytes << "\n"
      << "  compression ratio: " << s.compression_ratio << "\n"
      << "  anycast/day mean:  " << s.anycast_daily_mean << "\n"
      << "  gcd/day mean:      " << s.gcd_daily_mean << "\n";
  return out.str();
}

std::string render_history(const net::Prefix& prefix,
                           const std::vector<HistoryDay>& history) {
  std::ostringstream out;
  out << "history for " << prefix.to_string() << "\n";
  for (const auto& h : history) {
    out << "  day " << h.day << ": ";
    if (!h.published) {
      out << "not published";
    } else {
      out << (h.anycast_based ? "anycast-based" : "-") << " "
          << (h.gcd_confirmed ? "gcd-confirmed" : "-") << " vps="
          << h.max_vp_count << " gcd_sites=" << h.gcd_sites;
    }
    if (h.degraded) out << " [degraded]";
    out << "\n";
  }
  return out.str();
}

namespace {

void render_stats(std::ostringstream& out, const char* name,
                  const census::StabilityStats& stats) {
  out << "  " << name << ": union=" << stats.union_size
      << " every_day=" << stats.every_day
      << " intermittent=" << stats.intermittent()
      << " daily_mean=" << stats.daily_mean << "\n";
}

}  // namespace

std::string render_stability(const StabilityReport& report) {
  std::ostringstream out;
  out << "stability over " << report.anycast_based.days << " healthy days ("
      << report.anycast_based.degraded_days << " degraded, "
      << (report.from_checkpoint ? "from checkpoint" : "replayed") << ")\n";
  render_stats(out, "anycast-based", report.anycast_based);
  render_stats(out, "gcd          ", report.gcd);
  return out.str();
}

}  // namespace laces::store
