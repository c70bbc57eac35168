// Cross-seed property tests: invariants that must hold for ANY world the
// generator can produce, checked over a sweep of seeds (TEST_P).
#include <gtest/gtest.h>

#include <set>

#include "core/classify.hpp"
#include "core/session.hpp"
#include "gcd/classify.hpp"
#include "hitlist/hitlist.hpp"
#include "platform/latency.hpp"
#include "platform/platform.hpp"
#include "support.hpp"

namespace laces {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SeedSweep() : world_(topo::World::generate(
                    laces::testing::tiny_world_config(GetParam()))) {}

  topo::World world_;
};

TEST_P(SeedSweep, WorldStructuralInvariants) {
  // Every deployment has at least one PoP; every target references a valid
  // deployment; representatives are unique per census prefix.
  std::set<net::Prefix> rep_prefixes;
  for (const auto& dep : world_.deployments()) {
    ASSERT_FALSE(dep.pops.empty());
    ASSERT_LT(dep.home_pop, dep.pops.size());
    for (const auto& pop : dep.pops) {
      ASSERT_LT(pop.attach.city, geo::world_cities().size());
      ASSERT_LT(pop.attach.upstream, world_.as_graph().size());
    }
  }
  for (const auto& t : world_.targets()) {
    ASSERT_LT(t.deployment, world_.deployments().size());
    if (t.representative) {
      EXPECT_TRUE(rep_prefixes.insert(net::Prefix::of(t.address)).second);
    }
    if (t.backing_deployment) {
      ASSERT_LT(*t.backing_deployment, world_.deployments().size());
    }
  }
}

TEST_P(SeedSweep, RegionalDeploymentsAreRegional) {
  for (const auto& dep : world_.deployments()) {
    if (dep.kind != topo::DeploymentKind::kAnycastRegional) continue;
    // All site pairs within the configured regional radius (with slack for
    // the seed-city diameter).
    for (const auto& a : dep.pops) {
      for (const auto& b : dep.pops) {
        EXPECT_LE(geo::distance_km(geo::city(a.attach.city).location,
                                   geo::city(b.attach.city).location),
                  2 * 1200.0 + 1.0);
      }
    }
  }
}

TEST_P(SeedSweep, CatchmentsDeterministicWithinEpoch) {
  const auto deployment = platform::make_production_deployment(world_);
  topo::Deployment view;
  view.id = 0x5eed;
  view.kind = topo::DeploymentKind::kAnycastGlobal;
  for (const auto& s : deployment.sites) {
    view.pops.push_back(topo::Pop{s.attach, {}});
  }
  view.finalize_layout();
  const auto& routing = world_.routing();
  for (const auto& t : world_.targets()) {
    if (!t.representative || !t.address.is_v4()) continue;
    const auto from = world_.deployment(t.deployment).pops[0].attach;
    const auto a = routing.select_pop(from, view, 1, SimTime(1000), 7, 0);
    const auto b = routing.select_pop(from, view, 1, SimTime(1000), 7, 0);
    ASSERT_EQ(a.pop_index, b.pop_index);
  }
}

TEST_P(SeedSweep, CensusClassificationInvariants) {
  EventQueue events;
  topo::NetworkConfig cfg;
  cfg.loss = 0;
  topo::SimNetwork network(world_, events, cfg);
  network.set_day(1);
  core::Session session(network,
                        platform::make_production_deployment(world_));
  const auto hl = hitlist::build_ping_hitlist(world_, net::IpVersion::kV4);
  core::MeasurementSpec spec;
  spec.id = 1;
  spec.targets_per_second = 50000;
  const auto results = session.run(spec, hl.addresses());
  const auto classification =
      core::classify_anycast(results, hl.addresses());

  // One classification entry per probed prefix; VP counts bounded by the
  // deployment size; responses >= VP count for responsive prefixes.
  EXPECT_EQ(classification.size(), hl.size());
  for (const auto& [prefix, obs] : classification) {
    EXPECT_LE(obs.vp_count(), 32u);
    if (obs.verdict != core::Verdict::kUnresponsive) {
      EXPECT_GE(obs.responses, obs.vp_count());
    } else {
      EXPECT_EQ(obs.responses, 0u);
    }
  }
  // AT list is sorted, unique, and a subset of probed prefixes.
  const auto ats = core::anycast_targets(classification);
  EXPECT_TRUE(std::is_sorted(ats.begin(), ats.end()));
  for (const auto& at : ats) {
    EXPECT_TRUE(classification.contains(at));
    EXPECT_EQ(classification.at(at).verdict, core::Verdict::kAnycast);
  }
}

TEST_P(SeedSweep, GcdNeverFlagsV4Unicast) {
  // The light-speed soundness property end to end: no v4 unicast target may
  // be GCD-classified anycast, for any seed.
  EventQueue events;
  topo::NetworkConfig cfg;
  cfg.loss = 0;
  topo::SimNetwork network(world_, events, cfg);
  network.set_day(1);
  const auto ark = platform::make_ark(world_, 40, GetParam());

  std::vector<net::IpAddress> unicast_targets;
  for (const auto& t : world_.targets()) {
    if (!t.representative || !t.address.is_v4() || !t.responder.icmp) {
      continue;
    }
    const auto kind = world_.deployment(t.deployment).kind;
    if (kind == topo::DeploymentKind::kUnicast ||
        kind == topo::DeploymentKind::kGlobalBgpUnicast) {
      unicast_targets.push_back(t.address);
    }
  }
  const auto latency =
      platform::measure_latency(network, ark, unicast_targets);
  const auto cls = gcd::classify_gcd(gcd::make_analyzer(ark), latency,
                                     unicast_targets);
  for (const auto& [prefix, res] : cls) {
    EXPECT_NE(res.verdict, gcd::GcdVerdict::kAnycast)
        << prefix.to_string() << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

}  // namespace
}  // namespace laces
