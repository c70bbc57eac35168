#include <gtest/gtest.h>

#include <limits>

#include "geo/lightspeed.hpp"
#include "support.hpp"
#include "topo/routing.hpp"
#include "util/rng.hpp"

namespace laces::topo {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  const World& world() { return laces::testing::shared_small_world(); }
  const RoutingModel& routing() { return world().routing(); }

  AttachPoint attach(std::string_view city_name) {
    const auto id = geo::find_city(city_name);
    return AttachPoint{*id, world().transit_near(*id)};
  }

  Deployment deployment_at(std::initializer_list<std::string_view> cities) {
    Deployment dep;
    dep.id = 0x7000;
    dep.kind = DeploymentKind::kAnycastGlobal;
    for (const auto name : cities) dep.pops.push_back(Pop{attach(name), {}});
    dep.finalize_layout();
    return dep;
  }
};

TEST_F(RoutingTest, SinglePopAlwaysSelected) {
  const auto dep = deployment_at({"Tokyo"});
  for (int seq = 0; seq < 20; ++seq) {
    const auto c = routing().select_pop(attach("London"), dep, 1, SimTime(0),
                                        123, static_cast<std::uint64_t>(seq));
    EXPECT_EQ(c.pop_index, 0u);
  }
}

TEST_F(RoutingTest, SelectsGeographicallySensiblePop) {
  const auto dep = deployment_at({"Tokyo", "Amsterdam", "New York"});
  // From Paris, Amsterdam must win by a huge margin.
  const auto c =
      routing().select_pop(attach("Paris"), dep, 1, SimTime(0), 1, 0);
  EXPECT_EQ(c.pop_index, 1u);
  // From Osaka, Tokyo wins.
  const auto c2 =
      routing().select_pop(attach("Osaka"), dep, 1, SimTime(0), 1, 0);
  EXPECT_EQ(c2.pop_index, 0u);
}

TEST_F(RoutingTest, DeterministicForIdenticalInputs) {
  const auto dep = deployment_at({"Tokyo", "Amsterdam", "New York", "Sydney"});
  const auto a =
      routing().select_pop(attach("Mumbai"), dep, 1, SimTime(1000), 77, 3);
  const auto b =
      routing().select_pop(attach("Mumbai"), dep, 1, SimTime(1000), 77, 3);
  EXPECT_EQ(a.pop_index, b.pop_index);
}

TEST_F(RoutingTest, TemporaryAnycastCollapsesOnInactiveDays) {
  Deployment dep = deployment_at({"Tokyo", "Amsterdam", "New York"});
  dep.kind = DeploymentKind::kTemporaryAnycast;
  dep.home_pop = 2;
  dep.temp_period_days = 10;
  dep.temp_active_days = 2;
  dep.temp_phase = 0;
  // Day 20 -> (20+0)%10=0 < 2 -> active; day 25 -> 5 >= 2 -> inactive.
  EXPECT_TRUE(dep.anycast_active(20));
  EXPECT_FALSE(dep.anycast_active(25));
  const auto inactive =
      routing().select_pop(attach("Paris"), dep, 25, SimTime(0), 1, 0);
  EXPECT_EQ(inactive.pop_index, 2u);  // home pop regardless of geography
  const auto active =
      routing().select_pop(attach("Paris"), dep, 20, SimTime(0), 1, 0);
  EXPECT_EQ(active.pop_index, 1u);  // Amsterdam
}

TEST_F(RoutingTest, RouteFlipsAreRareAndTimeBound) {
  const auto dep = deployment_at(
      {"Tokyo", "Amsterdam", "New York", "Sydney", "Sao Paulo"});
  // Over many (endpoint, epoch) samples, flips occur at roughly the
  // configured probability.
  std::size_t flips = 0, total = 0;
  const auto& cities = geo::world_cities();
  for (geo::CityId c = 0; c < cities.size(); ++c) {
    const AttachPoint from{c, world().transit_near(c)};
    for (int epoch = 0; epoch < 30; ++epoch) {
      const auto choice = routing().select_pop(
          from, dep, 1, SimTime(0) + SimDuration::seconds(600L * epoch), 1, 0);
      ++total;
      flips += choice.was_flipped ? 1 : 0;
    }
  }
  const double rate = static_cast<double>(flips) / static_cast<double>(total);
  const double expected = routing().config().route_flip_probability;
  EXPECT_GT(rate, expected * 0.2);
  EXPECT_LT(rate, expected * 5.0);
}

TEST_F(RoutingTest, FlipStateConstantWithinEpoch) {
  const auto dep = deployment_at({"Tokyo", "Amsterdam", "New York"});
  const auto from = attach("Lagos");
  const auto epoch_len = SimDuration::seconds(
      world().routing().config().flip_epoch_s);
  for (int e = 0; e < 50; ++e) {
    const SimTime base = SimTime(0) + epoch_len * e;
    const auto first = routing().select_pop(from, dep, 1, base, 9, 0);
    const auto last = routing().select_pop(
        from, dep, 1, base + epoch_len - SimDuration::nanos(1), 9, 0);
    EXPECT_EQ(first.pop_index, last.pop_index) << "epoch " << e;
  }
}

TEST_F(RoutingTest, OneWayDelayRespectsLightSpeed) {
  // The GCD method's core soundness requirement: simulated delays can
  // never beat light in fibre, so v4 unicast targets cannot produce
  // speed-of-light violations.
  Rng rng(12);
  const auto& cities = geo::world_cities();
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<geo::CityId>(rng.index(cities.size()));
    const auto b = static_cast<geo::CityId>(rng.index(cities.size()));
    const AttachPoint pa{a, world().transit_near(a)};
    const AttachPoint pb{b, world().transit_near(b)};
    const double min_ms =
        geo::min_rtt_ms(routing().city_distance_km(a, b)) / 2.0;
    const double actual_ms =
        routing().one_way_delay(pa, pb, rng()).to_millis();
    EXPECT_GE(actual_ms, min_ms) << cities[a].name << " -> " << cities[b].name;
  }
}

TEST_F(RoutingTest, DelayJitterVariesPerPacket) {
  const auto a = attach("Tokyo");
  const auto b = attach("Amsterdam");
  const auto d1 = routing().one_way_delay(a, b, 1);
  const auto d2 = routing().one_way_delay(a, b, 2);
  EXPECT_NE(d1.ns(), d2.ns());
  // But stable for the same salt.
  EXPECT_EQ(routing().one_way_delay(a, b, 1).ns(), d1.ns());
}

TEST_F(RoutingTest, CityDistanceMatrixMatchesHaversine) {
  const auto ams = *geo::find_city("Amsterdam");
  const auto syd = *geo::find_city("Sydney");
  EXPECT_NEAR(routing().city_distance_km(ams, syd),
              geo::distance_km(geo::city(ams).location,
                               geo::city(syd).location),
              1.0);
  EXPECT_DOUBLE_EQ(routing().city_distance_km(ams, ams), 0.0);
}

TEST_F(RoutingTest, EcmpTieBrokenByFlowHashIsStable) {
  // Construct an artificial exact tie: two pops in the same city/AS.
  Deployment dep;
  dep.id = 0x7001;
  dep.kind = DeploymentKind::kAnycastGlobal;
  dep.pops.push_back(Pop{attach("Frankfurt"), {}});
  dep.pops.push_back(Pop{attach("Frankfurt"), {}});
  dep.finalize_layout();
  const auto from = attach("Warsaw");
  // Identical flow hash -> identical choice across packet sequence numbers
  // unless this (from, dep) pair is round-robin.
  const auto first = routing().select_pop(from, dep, 1, SimTime(0), 42, 0);
  EXPECT_TRUE(first.was_tie);
}

TEST_F(RoutingTest, PerPopArithmeticMatchesScore) {
  // scan_pops hoists the hop row, the distance row and the perturb-hash
  // prefix out of its loop; this pins that the hoisted arithmetic picks
  // bit-exactly the PoPs score() implies. select_pop (no tie, no flip)
  // must return the argmin of score() over the deployment's PoPs.
  const auto dep = deployment_at(
      {"Tokyo", "Amsterdam", "New York", "Sydney", "Sao Paulo", "Lagos",
       "Mumbai", "Moscow", "Vancouver", "Johannesburg"});
  const auto& cities = geo::world_cities();
  for (geo::CityId c = 0; c < cities.size(); c += 7) {
    const AttachPoint from{c, world().transit_near(c)};
    std::size_t best = 0;
    double best_score = routing().score(from, dep.pops[0], dep.id);
    double second_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i < dep.pops.size(); ++i) {
      const double s = routing().score(from, dep.pops[i], dep.id);
      if (s < best_score) {
        second_score = best_score;
        best = i;
        best_score = s;
      } else if (s < second_score) {
        second_score = s;
      }
    }
    const auto choice =
        routing().select_pop(from, dep, 1, SimTime(0), 5, 0);
    if (!choice.was_tie && !choice.was_flipped) {
      EXPECT_EQ(choice.pop_index, best) << "from " << cities[c].name;
    }
  }
}

TEST_F(RoutingTest, CachedOverloadsMatchUncachedBitForBit) {
  // The Caches-taking select_pop / one_way_delay must return exactly what
  // the uncached overloads return — on the cold pass (miss + insert) and
  // on the warm pass (hit).
  RoutingModel::Caches caches;
  const auto dep = deployment_at(
      {"Tokyo", "Amsterdam", "New York", "Sydney", "Sao Paulo"});
  const auto& cities = geo::world_cities();
  for (int pass = 0; pass < 2; ++pass) {
    for (geo::CityId c = 0; c < cities.size(); c += 11) {
      const AttachPoint from{c, world().transit_near(c)};
      const auto plain = routing().select_pop(from, dep, 1, SimTime(99), 7, 2);
      const auto cached =
          routing().select_pop(from, dep, 1, SimTime(99), 7, 2, caches);
      EXPECT_EQ(plain.pop_index, cached.pop_index)
          << "pass " << pass << " from " << cities[c].name;
      EXPECT_EQ(plain.was_tie, cached.was_tie);
      EXPECT_EQ(plain.was_flipped, cached.was_flipped);

      const AttachPoint to = attach("Frankfurt");
      const auto d_plain = routing().one_way_delay(from, to, 1234);
      const auto d_cached = routing().one_way_delay(from, to, 1234, caches);
      EXPECT_EQ(d_plain.ns(), d_cached.ns())
          << "pass " << pass << " from " << cities[c].name;
    }
  }
  EXPECT_GT(caches.catchment.size(), 0u);
  EXPECT_GT(caches.delay.size(), 0u);
}

TEST_F(RoutingTest, GlobalBgpUnicastEgressPolicy) {
  Deployment dep = deployment_at({"Tokyo", "Amsterdam", "New York", "Sydney"});
  dep.kind = DeploymentKind::kGlobalBgpUnicast;
  dep.home_pop = 0;
  std::size_t local = 0;
  for (std::size_t ingress = 0; ingress < dep.pops.size(); ++ingress) {
    const auto egress = routing().egress_pop(dep, ingress);
    // Egress is either the home pop or the ingress pop, never a third site.
    EXPECT_TRUE(egress == dep.home_pop || egress == ingress);
    if (egress == ingress && ingress != dep.home_pop) ++local;
    // And deterministic.
    EXPECT_EQ(routing().egress_pop(dep, ingress), egress);
  }
  (void)local;
}

}  // namespace
}  // namespace laces::topo
