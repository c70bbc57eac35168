// Day-commit delta extraction: the difference between two archived census
// days, expressed in publication-format rows.
//
// A DayDelta is what the mesh pushes to subscribers when ArchiveWriter
// commits a day: the rows that appeared or changed (upserts, carrying the
// exact §4.2.4 CSV line) and the prefixes that dropped out of publication
// (removals). A DeltaFollower applies a stream of deltas and re-renders
// any day's census *byte-identically* to census::write_census over the
// original DailyCensus — the contract the pub/sub tests pin: a subscriber
// that joined at day 0 and applied every delta owns the same bytes as
// `laces query --export-day`.
//
// Determinism argument: write_census emits published prefixes in
// std::sort order of net::Prefix (defaulted operator<=>), and the
// follower keeps rows in a std::map<net::Prefix, ...> whose iteration
// order is the same ordering — so row order never depends on how the rows
// arrived.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "census/census.hpp"

namespace laces::store {

/// One publication row: the prefix and its exact CSV line. A day's rows
/// (render_rows) and a delta's new-or-changed rows share the type.
struct DeltaRow {
  net::Prefix prefix;
  std::string line;  // census::to_csv bytes for this day
  bool operator==(const DeltaRow&) const = default;
};

/// Everything that changed between day `day`-1-as-archived and `day`.
/// `prev == nullptr` (first archived day) makes every published row an
/// upsert. Upserts and removals are sorted by prefix.
struct DayDelta {
  std::uint32_t day = 0;
  bool degraded = false;
  std::uint16_t lost_sites = 0;
  std::uint32_t canary_alarms = 0;
  std::vector<DeltaRow> upserts;
  std::vector<net::Prefix> removals;
  bool operator==(const DayDelta&) const = default;
};

/// A day's publication rows: every published prefix in sorted order with
/// its census::to_csv line — the body of render_census's file, one row per
/// line. A day commit renders these once (ArchiveWriter::append) and hands
/// them to the diff and the mesh.
std::vector<DeltaRow> render_rows(const census::DailyCensus& census);

/// Diffs two days' publication rows, each sorted by prefix as render_rows
/// returns them, in one linear merge. A prefix is an upsert when it is in
/// `cur_rows` and either absent from `prev_rows` or there with a different
/// line; a removal when in `prev_rows` but not in `cur_rows`. Upserts copy
/// their rows from `cur_rows`; the day header comes from `cur`.
DayDelta diff_rows(std::span<const DeltaRow> prev_rows,
                   const census::DailyCensus& cur,
                   std::span<const DeltaRow> cur_rows);

/// Diffs two census days in publication space: diff_rows over both days'
/// render_rows. `prev == nullptr` diffs against an empty publication.
/// Lines are compared, not records, so a record change the CSV does not
/// show is not a delta.
DayDelta compute_day_delta(const census::DailyCensus* prev,
                           const census::DailyCensus& cur);

/// Applies a delta stream and re-renders any completed day's publication
/// CSV byte-identically to census::write_census. Not thread-safe.
class DeltaFollower {
 public:
  /// Applies delta rows (upserts replace/insert, removals erase) and
  /// records the day's header state. `slice` is a DayDelta or anything
  /// with its fields, such as a mesh DeltaChunk, applied in place. Days
  /// must arrive in non-decreasing order; several partial deltas for one
  /// day merge (chunked delivery), and re-applying a row is idempotent
  /// (map assignment). Throws std::runtime_error on a day regression —
  /// the caller's cursor logic is supposed to have deduplicated replays.
  template <class Slice>
  void apply(const Slice& slice) {
    begin_day(slice.day, slice.degraded, slice.lost_sites,
              slice.canary_alarms);
    for (const DeltaRow& row : slice.upserts) rows_[row.prefix] = row.line;
    for (const net::Prefix& prefix : slice.removals) rows_.erase(prefix);
  }

  /// Publication bytes for the most recently applied day.
  std::string render() const;

  std::uint32_t day() const { return day_; }
  std::size_t rows() const { return rows_.size(); }

 private:
  void begin_day(std::uint32_t day, bool degraded, std::uint16_t lost_sites,
                 std::uint32_t canary_alarms);

  std::uint32_t day_ = 0;
  bool degraded_ = false;
  std::uint16_t lost_sites_ = 0;
  std::uint32_t canary_alarms_ = 0;
  /// Ordered exactly like write_census's sorted published_prefixes().
  std::map<net::Prefix, std::string> rows_;
};

}  // namespace laces::store
