#include <gtest/gtest.h>

#include <sstream>

#include "census/longitudinal.hpp"
#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "support.hpp"

namespace laces::census {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    network_ = std::make_unique<topo::SimNetwork>(
        laces::testing::shared_small_world(), events_);
    network_->set_day(1);
    platform_ = platform::make_production_deployment(world());
    session_ = std::make_unique<core::Session>(*network_, platform_);
  }

  const topo::World& world() { return laces::testing::shared_small_world(); }

  Pipeline make_pipeline(PipelineConfig config = {}) {
    config.targets_per_second = 50000;
    return Pipeline(*network_, *session_,
                    platform::make_ark(world(), 40, 0xa),
                    platform::make_ark(world(), 25, 0xb), config);
  }

  EventQueue events_;
  std::unique_ptr<topo::SimNetwork> network_;
  platform::AnycastPlatform platform_;
  std::unique_ptr<core::Session> session_;
};

TEST_F(PipelineTest, DailyRunProducesBothVerdicts) {
  auto pipeline = make_pipeline();
  const auto census = pipeline.run_day(1);
  EXPECT_EQ(census.day, 1u);
  EXPECT_GT(census.records.size(), 900u);
  EXPECT_GT(census.anycast_targets.size(), 20u);
  EXPECT_GT(census.anycast_probes_sent, 0u);
  EXPECT_GT(census.gcd_probes_sent, 0u);

  // GCD probing cost is far below the anycast-stage cost (the Figure 3
  // design point: GCD runs only toward ATs).
  EXPECT_LT(census.gcd_probes_sent, census.anycast_probes_sent);

  std::size_t gcd_confirmed = 0, at_records = 0;
  for (const auto& [prefix, rec] : census.records) {
    if (rec.gcd_verdict) ++at_records;
    if (rec.gcd_confirmed()) ++gcd_confirmed;
  }
  EXPECT_GT(gcd_confirmed, 10u);
  // Only AT prefixes get GCD verdicts.
  EXPECT_LE(at_records, census.anycast_targets.size());
}

TEST_F(PipelineTest, MultiProtocolRecordsPresent) {
  auto pipeline = make_pipeline();
  const auto census = pipeline.run_day(1);
  std::size_t with_icmp = 0, with_tcp = 0, with_udp = 0;
  for (const auto& [prefix, rec] : census.records) {
    with_icmp += rec.anycast_based.contains(net::Protocol::kIcmp);
    with_tcp += rec.anycast_based.contains(net::Protocol::kTcp);
    with_udp += rec.anycast_based.contains(net::Protocol::kUdpDns);
  }
  EXPECT_GT(with_icmp, 0u);
  EXPECT_GT(with_tcp, 0u);
  EXPECT_GT(with_udp, 0u);
}

TEST_F(PipelineTest, AtFeedbackLoopPersists) {
  PipelineConfig config;
  config.tcp = false;
  config.dns = false;
  auto pipeline = make_pipeline(config);

  // Seed the AT list with a regional prefix the anycast stage may miss.
  const net::Prefix seeded = net::Prefix::of(
      world().representatives(net::IpVersion::kV4).front());
  pipeline.extend_at_list({seeded});
  const auto census = pipeline.run_day(1);
  // The seeded prefix must have been GCD-probed (purple arrow of Fig. 3).
  const auto* rec = census.find(seeded);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->gcd_verdict.has_value());

  // GCD-confirmed prefixes flow back into the persistent list.
  const auto confirmed = census.gcd_confirmed_prefixes();
  for (const auto& p : confirmed) {
    EXPECT_TRUE(std::find(pipeline.persistent_at_list().begin(),
                          pipeline.persistent_at_list().end(),
                          p) != pipeline.persistent_at_list().end());
  }
}

TEST_F(PipelineTest, PartialAnycastFlagsCarried) {
  PipelineConfig config;
  config.tcp = false;
  config.dns = false;
  auto pipeline = make_pipeline(config);
  const auto reps = world().representatives(net::IpVersion::kV4);
  const auto flagged = net::Prefix::of(reps[3]);
  pipeline.flag_partial_anycast({flagged});
  const auto census = pipeline.run_day(1);
  const auto* rec = census.find(flagged);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->partial_anycast);
}

TEST_F(PipelineTest, PublishedPrefixesAreAnycastByEitherMethod) {
  auto pipeline = make_pipeline();
  const auto census = pipeline.run_day(2);
  for (const auto& p : census.published_prefixes()) {
    const auto* rec = census.find(p);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->anycast_based_detected() || rec->gcd_confirmed());
  }
}

TEST_F(PipelineTest, CsvOutputWellFormed) {
  auto pipeline = make_pipeline();
  const auto census = pipeline.run_day(1);
  const auto text = render_census(census);
  EXPECT_NE(text.find("# LACeS census day 1"), std::string::npos);
  EXPECT_NE(text.find(csv_header()), std::string::npos);

  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // comment
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  const std::string header = csv_header();
  const auto commas_expected = std::count(header.begin(), header.end(), ',');
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), commas_expected)
        << line;
    ++rows;
  }
  EXPECT_EQ(rows, census.published_prefixes().size());
}

TEST_F(PipelineTest, LongitudinalStoreTracksStability) {
  PipelineConfig config;
  config.tcp = false;
  config.dns = false;
  auto pipeline = make_pipeline(config);
  LongitudinalStore store;
  for (std::uint32_t day = 1; day <= 5; ++day) {
    store.add(pipeline.run_day(day));
  }
  EXPECT_EQ(store.days(), 5u);
  const auto anycast = store.anycast_based_stability();
  const auto gcd = store.gcd_stability();
  EXPECT_GT(anycast.union_size, 0u);
  EXPECT_GT(gcd.union_size, 0u);
  EXPECT_LE(gcd.every_day, gcd.union_size);
  EXPECT_EQ(anycast.days, 5u);
  // The paper's §5.1.6 claim at miniature scale: GCD is the more stable set.
  const double gcd_stable =
      static_cast<double>(gcd.every_day) / static_cast<double>(gcd.union_size);
  const double anycast_stable = static_cast<double>(anycast.every_day) /
                                static_cast<double>(anycast.union_size);
  EXPECT_GE(gcd_stable, anycast_stable - 0.05);
}

TEST_F(PipelineTest, DestroyedPipelineDetachesTracerClock) {
  // run_day points the global tracer at the network's queue; the
  // pipeline must not leave it there when it dies (the session outlives
  // it here, so only the pipeline's destructor can clear it).
  auto& tracer = obs::Tracer::global();
  {
    auto pipeline = make_pipeline();
    tracer.set_clock(nullptr);
    pipeline.run_day(1);
    ASSERT_EQ(tracer.clock(), &events_);
  }
  EXPECT_EQ(tracer.clock(), nullptr);
}

}  // namespace
}  // namespace laces::census
