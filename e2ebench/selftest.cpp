// Tests of the benchmark's own logic: the tail-percentile rule, schedule
// determinism, span coverage, and failure accounting (a flipped follower
// byte, a shed response and a stale-day answer each count as failures).
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "census/output.hpp"
#include "harness.hpp"
#include "mesh/relay.hpp"
#include "serve/protocol.hpp"
#include "store/archive.hpp"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
namespace serve = laces::serve;
using laces::net::Prefix;

Prefix v4(std::uint32_t i) {
  return laces::net::Ipv4Prefix(
      laces::net::Ipv4Address(10, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff), 0),
      24);
}

std::vector<double> iota_ms(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(TailRule, FewSamplesReportTheMedian) {
  for (std::size_t n : {1u, 5u, 20u, 21u}) {
    const Tail t = tail_of(iota_ms(n));
    EXPECT_EQ(t.samples, n);
    EXPECT_DOUBLE_EQ(t.percentile, 50.0) << n;
    EXPECT_DOUBLE_EQ(t.value, t.p50) << n;
  }
  EXPECT_EQ(tail_of({}).samples, 0u);
}

TEST(TailRule, TenSamplesLieBeyondTheTail) {
  for (std::size_t n : {30u, 200u, 1000u}) {
    std::vector<double> xs = iota_ms(n);
    std::reverse(xs.begin(), xs.end());  // order must not matter
    const Tail t = tail_of(xs);
    const auto beyond = std::count_if(xs.begin(), xs.end(),
                                      [&](double x) { return x > t.value; });
    EXPECT_EQ(beyond, 10) << n;
    EXPECT_GT(t.percentile, 50.0) << n;
  }
  const Tail t = tail_of(iota_ms(1000));
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_NEAR(t.percentile, 99.0, 0.01);
  EXPECT_DOUBLE_EQ(t.p50, 500.5);
}

TEST(TailRule, WindowedTailIsTheMedianOfWindowTails) {
  // Three windows of 30 samples: 1..30, 101..130, 201..230, then a short
  // window of 10 samples at 1000 that only the median sees. Each full
  // window's tail is its 20th sample (ten above it).
  std::vector<double> xs;
  for (double base : {0.0, 100.0, 200.0}) {
    for (int i = 1; i <= 30; ++i) xs.push_back(base + i);
  }
  xs.insert(xs.end(), 10, 1000.0);
  const Tail t = windowed_tail(xs, 30);
  EXPECT_DOUBLE_EQ(t.value, 120.0);
  EXPECT_DOUBLE_EQ(t.p50, 120.5);  // of all 100 samples
  EXPECT_EQ(t.samples, 30u);
  // Fewer than two windows: one tail over everything.
  EXPECT_DOUBLE_EQ(windowed_tail(iota_ms(50), 30).value, 40.0);
}

RequestSource source(std::uint64_t seed) {
  std::vector<Prefix> prefixes;
  for (std::uint32_t i = 0; i < 3000; ++i) prefixes.push_back(v4(i));
  std::vector<std::uint32_t> days;
  for (std::uint32_t d = 1; d <= 12; ++d) days.push_back(d);
  return RequestSource(prefixes, days, seed);
}

TEST(Schedule, IdenticalForTheSameSeed) {
  const auto a = poisson_schedule(source(7), 120.0, 5.0, 2, 7);
  const auto b = poisson_schedule(source(7), 120.0, 5.0, 2, 7);
  ASSERT_EQ(a.size(), 2u);
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t i = 0; i < a[s].size(); ++i) {
      EXPECT_EQ(a[s][i].due_s, b[s][i].due_s);
      EXPECT_EQ(a[s][i].request, b[s][i].request);
    }
  }
  const auto c = poisson_schedule(source(8), 120.0, 5.0, 2, 8);
  EXPECT_NE(a[0].front().due_s, c[0].front().due_s);
}

TEST(Schedule, PoissonRateAndMix) {
  const auto streams = poisson_schedule(source(3), 400.0, 10.0, 2, 3);
  std::size_t total = 0, history = 0, exports = 0, newest_week = 0;
  for (const auto& stream : streams) {
    double last = 0.0;
    for (const auto& a : stream) {
      EXPECT_GE(a.due_s, last);
      EXPECT_LT(a.due_s, 10.0);
      last = a.due_s;
      ++total;
      if (std::holds_alternative<serve::HistoryRequest>(a.request)) ++history;
      if (const auto* e = std::get_if<serve::ExportDayRequest>(&a.request)) {
        ++exports;
        if (e->day >= 6) ++newest_week;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(total), 4000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(history) / total, 0.5, 0.05);
  EXPECT_GT(static_cast<double>(newest_week) / exports, 0.7);
}

TEST(Spans, UncoveredIgnoresGroupingSpans) {
  SpanRecorder spans(true);
  const auto t0 = spans.origin();
  const auto ms = [&](int x) { return t0 + std::chrono::milliseconds(x); };
  const auto group = spans.reserve_id();
  spans.record("store.append", ms(0), ms(10), group);
  spans.record("mesh.first_chunk", ms(5), ms(15), group);
  spans.record("bench.commit", ms(0), ms(40), 0, 0, group);
  spans.record("store.checkpoint", ms(30), ms(35), group);
  EXPECT_NEAR(spans.uncovered_ms(ms(0), ms(40)), 20.0, 1e-6);
  EXPECT_EQ(spans.durations_ms("store.append", ms(0), ms(40)).size(), 1u);
  SpanRecorder off(false);
  EXPECT_EQ(off.record("x", ms(0), ms(1)), 0u);
  EXPECT_TRUE(off.spans().empty());
}

// --- failure accounting ---

laces::census::DailyCensus make_day(std::uint32_t day) {
  laces::census::DailyCensus census;
  census.day = day;
  for (std::uint32_t i = 0; i < 40; ++i) {
    if ((day + i) % 5 == 0) continue;
    laces::census::PrefixRecord rec;
    rec.prefix = v4(i);
    rec.anycast_based[laces::net::Protocol::kIcmp] = {
        laces::core::Verdict::kAnycast, 2 + (day + i) % 3};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

TEST(Accounting, FlippedFollowerByteIsAFailure) {
  const fs::path dir = fs::current_path() / "selftest-archive";
  fs::remove_all(dir);
  {
    laces::store::ArchiveWriter writer(dir);
    laces::mesh::Relay origin(laces::mesh::RelayConfig{}, nullptr, dir);
    origin.attach_publisher(writer);
    laces::mesh::CensusFollower follower(origin);
    const auto day = make_day(1);
    writer.append(day);

    const std::string good = laces::census::render_census(day);
    Ledger ledger;
    check_follower_day(ledger, follower, 1, good);
    EXPECT_EQ(ledger.failed, 0u);
    EXPECT_TRUE(ledger.correct);

    std::string flipped = good;
    flipped[flipped.size() / 2] ^= 0x01;
    check_follower_day(ledger, follower, 1, flipped);
    check_follower_day(ledger, follower, 2, good);  // never committed
    EXPECT_EQ(ledger.attempted, 3u);
    EXPECT_EQ(ledger.failed, 2u);
    EXPECT_EQ(ledger.failures["follower_bytes"], 1u);
    EXPECT_EQ(ledger.failures["follower_missing_day"], 1u);
    EXPECT_FALSE(ledger.correct);
  }
  fs::remove_all(dir);
}

std::vector<std::uint8_t> response_frame(const std::string& key,
                                         const serve::Response& response) {
  return serve::encode_frame(key, serve::FrameKind::kResponse, 9,
                             serve::encode_response(response));
}

TEST(Accounting, ShedStaleAndForgedAnswersAreFailures) {
  const std::string key = "laces-serve";
  const std::string csv = "committed day csv";
  const ExportLookup lookup = [&csv](std::uint32_t day) {
    return day <= 5 ? &csv : nullptr;
  };
  const serve::Request export5{serve::ExportDayRequest{5}};
  const serve::Request export9{serve::ExportDayRequest{9}};
  const auto error = [&](serve::ErrorCode code) {
    return response_frame(key, serve::ErrorResponse{code, "x", 0});
  };

  Ledger ledger;
  const auto outcome = [&](std::span<const std::uint8_t> frame,
                           const serve::Request& req) {
    return account_response(ledger,
                            classify_response(key, frame, req, lookup));
  };
  EXPECT_EQ(outcome(error(serve::ErrorCode::kOverloaded), export5),
            Outcome::kShed);
  EXPECT_EQ(outcome(error(serve::ErrorCode::kUnknownDay), export5),
            Outcome::kStale);
  // Unknown day is the right answer for a day that was never committed.
  EXPECT_EQ(outcome(error(serve::ErrorCode::kUnknownDay), export9),
            Outcome::kOk);
  EXPECT_EQ(outcome(response_frame(key, serve::ExportDayResponse{5, csv}),
                    export5),
            Outcome::kOk);
  EXPECT_EQ(outcome(response_frame(key, serve::ExportDayResponse{5, "?"}),
                    export5),
            Outcome::kWrongBytes);
  EXPECT_EQ(outcome(response_frame("other-key",
                                   serve::ExportDayResponse{5, csv}),
                    export5),
            Outcome::kUnauthenticated);
  EXPECT_EQ(outcome(response_frame(key, serve::SummaryResponse{}),
                    serve::Request{serve::HistoryRequest{v4(1)}}),
            Outcome::kWrongBytes);
  EXPECT_EQ(ledger.attempted, 7u);
  EXPECT_EQ(ledger.failed, 5u);
  EXPECT_EQ(ledger.failures["shed"], 1u);
  EXPECT_EQ(ledger.failures["stale_day"], 1u);
  EXPECT_FALSE(ledger.correct);  // wrong bytes were served
}

}  // namespace
}  // namespace e2ebench
