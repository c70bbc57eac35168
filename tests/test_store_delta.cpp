// The day diff the mesh pushes on every commit: which publication rows
// changed between two census days. Lines are compared, not records, so
// only what the §4.2.4 CSV shows can make a delta.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "platform/platform.hpp"
#include "store/delta.hpp"
#include "support.hpp"

namespace laces::store {
namespace {

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), 24);
}

net::Prefix v6(std::uint64_t hi) {
  return net::Ipv6Prefix(net::Ipv6Address(hi, 0), 48);
}

census::PrefixRecord anycast(const net::Prefix& prefix, std::uint32_t vps) {
  census::PrefixRecord rec;
  rec.prefix = prefix;
  rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast, vps};
  return rec;
}

/// Four published rows across both families (inserted out of order) plus
/// one unpublished unicast record.
census::DailyCensus make_day(std::uint32_t day) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 900;
  census.gcd_probes_sent = 90;
  for (const auto& rec :
       {anycast(v6(0x20010db800000000ULL), 5), anycast(v4(10, 0, 2), 7),
        anycast(v4(10, 0, 1), 3), anycast(v4(192, 0, 2), 11)}) {
    census.records.emplace(rec.prefix, rec);
    census.anycast_targets.push_back(rec.prefix);
  }
  census::PrefixRecord unicast;
  unicast.prefix = v4(10, 9, 9);
  unicast.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kUnicast, 1};
  census.records.emplace(unicast.prefix, unicast);
  return census;
}

void expect_empty(const DayDelta& delta) {
  EXPECT_TRUE(delta.upserts.empty()) << delta.upserts.size() << " upserts";
  EXPECT_TRUE(delta.removals.empty()) << delta.removals.size() << " removals";
}

/// The diff written out longhand: each day's published lines in a map.
DayDelta reference_delta(const census::DailyCensus& prev,
                         const census::DailyCensus& cur) {
  std::map<net::Prefix, std::string> before, after;
  for (const auto& p : prev.published_prefixes()) {
    before[p] = census::to_csv(*prev.find(p));
  }
  for (const auto& p : cur.published_prefixes()) {
    after[p] = census::to_csv(*cur.find(p));
  }
  DayDelta delta;
  delta.day = cur.day;
  delta.degraded = cur.degraded;
  delta.lost_sites = cur.lost_sites;
  delta.canary_alarms = cur.canary_alarms;
  for (const auto& [prefix, line] : after) {
    const auto it = before.find(prefix);
    if (it == before.end() || it->second != line) {
      delta.upserts.push_back(DeltaRow{prefix, line});
    }
  }
  for (const auto& [prefix, line] : before) {
    if (!after.contains(prefix)) delta.removals.push_back(prefix);
  }
  return delta;
}

TEST(StoreDelta, FirstDayUpsertsEveryPublishedRowInPrefixOrder) {
  auto day = make_day(4);
  day.degraded = true;
  day.lost_sites = 2;
  day.canary_alarms = 1;
  const DayDelta delta = compute_day_delta(nullptr, day);
  EXPECT_EQ(delta.day, 4u);
  EXPECT_TRUE(delta.degraded);
  EXPECT_EQ(delta.lost_sites, 2u);
  EXPECT_EQ(delta.canary_alarms, 1u);
  const auto published = day.published_prefixes();
  ASSERT_EQ(published.size(), 4u);
  ASSERT_EQ(delta.upserts.size(), published.size());
  for (std::size_t i = 0; i < published.size(); ++i) {
    EXPECT_EQ(delta.upserts[i].prefix, published[i]) << "row " << i;
    EXPECT_EQ(delta.upserts[i].line, census::to_csv(*day.find(published[i])))
        << "row " << i;
  }
  EXPECT_TRUE(delta.removals.empty());
}

TEST(StoreDelta, UnchangedDayIsEmpty) {
  const auto prev = make_day(1);
  auto cur = prev;
  cur.day = 2;
  const DayDelta delta = compute_day_delta(&prev, cur);
  EXPECT_EQ(delta.day, 2u);
  expect_empty(delta);
}

TEST(StoreDelta, ChangedVpCountIsAnUpsertWithTheNewLine) {
  const auto prev = make_day(1);
  auto cur = make_day(2);
  cur.records.at(v4(10, 0, 2)).anycast_based[net::Protocol::kIcmp].vp_count =
      8;
  const DayDelta delta = compute_day_delta(&prev, cur);
  ASSERT_EQ(delta.upserts.size(), 1u);
  EXPECT_EQ(delta.upserts[0].prefix, v4(10, 0, 2));
  EXPECT_EQ(delta.upserts[0].line, census::to_csv(*cur.find(v4(10, 0, 2))));
  EXPECT_NE(delta.upserts[0].line, census::to_csv(*prev.find(v4(10, 0, 2))));
  EXPECT_TRUE(delta.removals.empty());
}

TEST(StoreDelta, PrefixNoLongerPublishedIsARemoval) {
  const auto prev = make_day(1);
  auto cur = make_day(2);
  cur.records.erase(v4(10, 0, 1));  // gone from the day
  // Still measured, but no longer anycast by either method.
  cur.records.at(v6(0x20010db800000000ULL))
      .anycast_based[net::Protocol::kIcmp]
      .verdict = core::Verdict::kUnicast;
  const DayDelta delta = compute_day_delta(&prev, cur);
  EXPECT_TRUE(delta.upserts.empty());
  const std::vector<net::Prefix> dropped{v4(10, 0, 1),
                                         v6(0x20010db800000000ULL)};
  EXPECT_EQ(delta.removals, dropped);
}

TEST(StoreDelta, ChangesTheCsvDoesNotShowAreNoDelta) {
  const auto prev = make_day(1);
  auto cur = make_day(2);
  cur.anycast_probes_sent = 5;
  cur.gcd_probes_sent = 7;
  cur.anycast_targets.clear();
  cur.records.at(v4(10, 9, 9)).anycast_based[net::Protocol::kIcmp].vp_count =
      2;  // unpublished record
  census::PrefixRecord extra;
  extra.prefix = v4(10, 9, 10);  // a new, unpublished record
  extra.anycast_based[net::Protocol::kTcp] = {core::Verdict::kUnresponsive, 0};
  cur.records.emplace(extra.prefix, extra);
  expect_empty(compute_day_delta(&prev, cur));
}

TEST(StoreDelta, RealDaysMatchTheLonghandDiff) {
  const auto& world = laces::testing::shared_tiny_world();
  EventQueue events;
  topo::SimNetwork network(world, events);
  core::Session session(network, platform::make_production_deployment(world));
  census::PipelineConfig config;
  config.targets_per_second = 50000;
  census::Pipeline pipeline(network, session,
                            platform::make_ark(world, 20, 0xa),
                            platform::make_ark(world, 12, 0xb), config);
  const auto d1 = pipeline.run_day(1);
  const auto d2 = pipeline.run_day(2);
  ASSERT_FALSE(d2.published_prefixes().empty());

  const DayDelta delta = compute_day_delta(&d1, d2);
  EXPECT_EQ(delta, reference_delta(d1, d2));
  // The row merge a commit runs on rows it has already rendered.
  const auto rows1 = render_rows(d1);
  const auto rows2 = render_rows(d2);
  EXPECT_EQ(diff_rows(rows1, d2, rows2), delta);
  // The rows are the publication file's body, line for line.
  std::string file;
  census::append_header(file, d2.day, d2.degraded, d2.lost_sites,
                        d2.canary_alarms);
  for (const auto& row : rows2) file += row.line + "\n";
  EXPECT_EQ(file, census::render_census(d2));
  // Applying the day-2 delta on top of day 1 gives day 2's publication.
  DeltaFollower follower;
  follower.apply(compute_day_delta(nullptr, d1));
  follower.apply(delta);
  EXPECT_EQ(follower.render(), census::render_census(d2));
}

}  // namespace
}  // namespace laces::store
