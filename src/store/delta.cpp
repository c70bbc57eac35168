#include "store/delta.hpp"

#include <stdexcept>

#include "census/output.hpp"

namespace laces::store {

std::vector<DeltaRow> render_rows(const census::DailyCensus& census) {
  const auto prefixes = census.published_prefixes();
  std::vector<DeltaRow> rows(prefixes.size());
  // Each line is built in one reused buffer, then copied out at its exact
  // size: one allocation per row instead of one per growth step.
  std::string line;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    line.clear();
    census::append_row(line, *census.find(prefixes[i]));
    rows[i].prefix = prefixes[i];
    rows[i].line = line;
  }
  return rows;
}

DayDelta diff_rows(std::span<const DeltaRow> prev_rows,
                   const census::DailyCensus& cur,
                   std::span<const DeltaRow> cur_rows) {
  DayDelta delta;
  delta.day = cur.day;
  delta.degraded = cur.degraded;
  delta.lost_sites = cur.lost_sites;
  delta.canary_alarms = cur.canary_alarms;
  // Both sides are sorted by prefix, so one merge pass pairs every prefix
  // with its counterpart and emits upserts and removals already sorted.
  auto prev = prev_rows.begin();
  for (const DeltaRow& row : cur_rows) {
    while (prev != prev_rows.end() && prev->prefix < row.prefix) {
      delta.removals.push_back(prev++->prefix);
    }
    if (prev != prev_rows.end() && prev->prefix == row.prefix) {
      if (prev->line != row.line) delta.upserts.push_back(row);
      ++prev;
    } else {
      delta.upserts.push_back(row);
    }
  }
  for (; prev != prev_rows.end(); ++prev) {
    delta.removals.push_back(prev->prefix);
  }
  return delta;
}

DayDelta compute_day_delta(const census::DailyCensus* prev,
                           const census::DailyCensus& cur) {
  return diff_rows(prev != nullptr ? render_rows(*prev)
                                   : std::vector<DeltaRow>{},
                   cur, render_rows(cur));
}

void DeltaFollower::begin_day(std::uint32_t day, bool degraded,
                              std::uint16_t lost_sites,
                              std::uint32_t canary_alarms) {
  if (day < day_) {
    throw std::runtime_error("delta follower: day " + std::to_string(day) +
                             " arrived after day " + std::to_string(day_));
  }
  day_ = day;
  degraded_ = degraded;
  lost_sites_ = lost_sites;
  canary_alarms_ = canary_alarms;
}

std::string DeltaFollower::render() const {
  std::string out;
  census::append_header(out, day_, degraded_, lost_sites_, canary_alarms_);
  // Sized up front: followers keep every day's file, so no growth slack.
  std::size_t bytes = out.size();
  for (const auto& [prefix, line] : rows_) bytes += line.size() + 1;
  out.reserve(bytes);
  for (const auto& [prefix, line] : rows_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace laces::store
