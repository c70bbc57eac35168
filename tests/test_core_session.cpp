#include <gtest/gtest.h>

#include <set>

#include "core/classify.hpp"
#include "core/session.hpp"
#include "hitlist/hitlist.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "support.hpp"
#include "topo/network.hpp"

namespace laces::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() {
    topo::NetworkConfig cfg;
    cfg.loss = 0.0;
    network_ = std::make_unique<topo::SimNetwork>(
        laces::testing::shared_small_world(), events_, cfg);
    network_->set_day(1);
    platform_ = platform::make_production_deployment(world());
  }

  const topo::World& world() { return laces::testing::shared_small_world(); }

  MeasurementSpec icmp_spec(net::MeasurementId id = 21) {
    MeasurementSpec spec;
    spec.id = id;
    spec.targets_per_second = 50000;
    return spec;
  }

  std::vector<net::IpAddress> some_targets(std::size_t n) {
    const auto hl = hitlist::build_ping_hitlist(world(), net::IpVersion::kV4);
    return hl.head(n).addresses();
  }

  EventQueue events_;
  std::unique_ptr<topo::SimNetwork> network_;
  platform::AnycastPlatform platform_;
};

TEST_F(SessionTest, RegistersAllWorkers) {
  Session session(*network_, platform_);
  EXPECT_EQ(session.orchestrator().connected_workers(), 32u);
  EXPECT_EQ(session.worker_count(), 32u);
  for (std::size_t i = 0; i < session.worker_count(); ++i) {
    EXPECT_TRUE(session.worker(i).connected());
    EXPECT_NE(session.worker(i).id(), 0);
  }
}

TEST_F(SessionTest, MeasurementProducesResultsFromTargets) {
  Session session(*network_, platform_);
  const auto targets = some_targets(200);
  const auto results = session.run(icmp_spec(), targets);

  EXPECT_TRUE(session.cli().finished());
  EXPECT_EQ(results.probes_sent, targets.size() * 32);
  EXPECT_GT(results.records.size(), targets.size());  // many respond to all 32
  // All records reference probed targets.
  std::set<net::IpAddress> target_set(targets.begin(), targets.end());
  for (const auto& rec : results.records) {
    EXPECT_TRUE(target_set.contains(rec.target));
    EXPECT_NE(rec.rx_worker, 0);
  }
}

TEST_F(SessionTest, EveryProbeCarriesSendingWorker) {
  Session session(*network_, platform_);
  const auto results = session.run(icmp_spec(), some_targets(50));
  for (const auto& rec : results.records) {
    ASSERT_TRUE(rec.tx_worker.has_value());
  }
  // All 32 workers appear as senders for a responsive target set.
  std::set<net::WorkerId> senders;
  for (const auto& rec : results.records) senders.insert(*rec.tx_worker);
  EXPECT_EQ(senders.size(), 32u);
}

TEST_F(SessionTest, SynchronizedOffsetsSpaceProbesPerTarget) {
  Session session(*network_, platform_);
  auto spec = icmp_spec();
  spec.worker_offset = SimDuration::seconds(1);
  const auto targets = some_targets(20);
  const auto results = session.run(spec, targets);

  // For one target, receive times from different tx workers must be ~1 s
  // apart (the "regular ping sequence" of §4.1.2).
  std::map<net::WorkerId, SimTime> times;
  const auto& t0 = targets.front();
  for (const auto& rec : results.records) {
    if (rec.target == t0 && rec.tx_worker) {
      times[*rec.tx_worker] = rec.rx_time;
    }
  }
  ASSERT_GE(times.size(), 20u);
  std::vector<SimTime> ordered;
  for (const auto& [worker, t] : times) ordered.push_back(t);
  std::sort(ordered.begin(), ordered.end());
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const double gap = (ordered[i] - ordered[i - 1]).to_seconds();
    EXPECT_NEAR(gap, 1.0, 0.5) << "between slots " << i - 1 << " and " << i;
  }
}

TEST_F(SessionTest, UnicastModeYieldsRtts) {
  Session session(*network_, platform_);
  auto spec = icmp_spec();
  spec.mode = ProbeMode::kUnicast;
  const auto results = session.run(spec, some_targets(30));
  ASSERT_GT(results.records.size(), 0u);
  for (const auto& rec : results.records) {
    ASSERT_TRUE(rec.rtt.has_value());
    EXPECT_GT(rec.rtt->to_millis(), 0.0);
    EXPECT_LT(rec.rtt->to_millis(), 1000.0);
    // In unicast mode each worker receives only its own responses.
    EXPECT_EQ(rec.rx_worker, *rec.tx_worker);
  }
}

TEST_F(SessionTest, WorkerDisconnectDoesNotStallMeasurement) {
  Session session(*network_, platform_);
  auto spec = icmp_spec();
  spec.targets_per_second = 2000;  // slow enough to disconnect mid-run
  const auto targets = some_targets(400);

  session.submit(spec, targets);
  // Drop two workers mid-measurement.
  network_->events().schedule_at(SimTime(0) + SimDuration::millis(3500), [&] {
    session.worker(5).disconnect();
    session.worker(17).disconnect();
  });
  network_->events().run();

  ASSERT_TRUE(session.cli().finished());  // R5: completes without them
  EXPECT_EQ(session.cli().workers_lost(), 2);
  const auto& results = session.cli().results();
  EXPECT_GT(results.records.size(), 0u);
}

TEST_F(SessionTest, AbortStopsProbing) {
  Session session(*network_, platform_);
  auto spec = icmp_spec();
  spec.targets_per_second = 100;  // would take ~4s (sim) to finish
  session.submit(spec, some_targets(400));
  network_->events().schedule_at(SimTime(0) + SimDuration::millis(1200),
                                 [&] { session.cli().abort(); });
  network_->events().run();
  // Aborted: never completed, and probing stopped early.
  EXPECT_FALSE(session.cli().finished());
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < session.worker_count(); ++i) {
    sent += session.worker(i).probes_sent();
  }
  EXPECT_LT(sent, 400u * 32u);
}

TEST_F(SessionTest, SequentialMeasurementsOnSameSession) {
  Session session(*network_, platform_);
  const auto targets = some_targets(50);
  const auto first = session.run(icmp_spec(31), targets);
  const auto second = session.run(icmp_spec(32), targets);
  EXPECT_GT(first.records.size(), 0u);
  EXPECT_GT(second.records.size(), 0u);
  // Same world, same day: results should be nearly identical in volume.
  EXPECT_NEAR(static_cast<double>(first.records.size()),
              static_cast<double>(second.records.size()),
              static_cast<double>(first.records.size()) * 0.05);
}

TEST_F(SessionTest, ClassifierSeparatesFamilies) {
  Session session(*network_, platform_);
  const auto hl = hitlist::build_ping_hitlist(world(), net::IpVersion::kV4);
  const auto results = session.run(icmp_spec(), hl.addresses());
  const auto classification = classify_anycast(results, hl.addresses());

  std::size_t anycast_hits = 0, total_anycast = 0;
  std::size_t unicast_as_unicast = 0, total_unicast = 0;
  std::size_t unresponsive_ok = 0, total_dead = 0;
  for (const auto& [prefix, obs] : classification) {
    const auto truth = world().truth(prefix, 1);
    if (!truth.exists) continue;
    const auto* target = world().find_target(
        prefix.version() == net::IpVersion::kV4
            ? net::IpAddress(net::Ipv4Address(
                  prefix.v4().address().value() + 1))
            : net::IpAddress());
    const bool dead = target != nullptr && !target->responder.icmp;
    if (dead) {
      ++total_dead;
      if (obs.verdict == Verdict::kUnresponsive) ++unresponsive_ok;
      continue;
    }
    if (truth.anycast) {
      ++total_anycast;
      if (obs.verdict == Verdict::kAnycast) ++anycast_hits;
    } else if (!truth.global_bgp_unicast) {
      ++total_unicast;
      if (obs.verdict == Verdict::kUnicast) ++unicast_as_unicast;
    }
  }
  EXPECT_GT(total_anycast, 30u);
  EXPECT_GT(static_cast<double>(anycast_hits) / total_anycast, 0.8);
  EXPECT_GT(static_cast<double>(unicast_as_unicast) / total_unicast, 0.9);
  EXPECT_GT(static_cast<double>(unresponsive_ok) / total_dead, 0.9);
}

TEST_F(SessionTest, StaticProbeMeasurementStillClassifies) {
  Session session(*network_, platform_);
  auto spec = icmp_spec();
  spec.vary_payload = false;
  const auto targets = some_targets(100);
  const auto results = session.run(spec, targets);
  EXPECT_GT(results.records.size(), 0u);
  for (const auto& rec : results.records) {
    EXPECT_FALSE(rec.tx_worker.has_value());  // static probes are anonymous
  }
  const auto classification = classify_anycast(results, targets);
  EXPECT_FALSE(anycast_targets(classification).empty());
}

TEST_F(SessionTest, DestroyedSessionDetachesTracerClock) {
  // A session points the global tracer at its network's queue. Once the
  // session and a scoped network are gone, a later span must not read
  // that queue.
  auto& tracer = obs::Tracer::global();
  {
    EventQueue events;
    topo::SimNetwork network(world(), events);
    Session session(network, platform_);
    ASSERT_EQ(tracer.clock(), &events);
  }
  EXPECT_EQ(tracer.clock(), nullptr);

  // A clock someone re-pointed elsewhere is left alone.
  EventQueue other;
  {
    Session session(*network_, platform_);
    tracer.set_clock(&other);
  }
  EXPECT_EQ(tracer.clock(), &other);
  tracer.set_clock(nullptr);
}

}  // namespace
}  // namespace laces::core
