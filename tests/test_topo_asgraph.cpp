#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "topo/as_graph.hpp"
#include "util/contracts.hpp"

namespace laces::topo {
namespace {

AsGraphConfig small_config() {
  AsGraphConfig cfg;
  cfg.tier1_count = 6;
  cfg.transit_count = 40;
  cfg.stub_count = 200;
  return cfg;
}

TEST(AsGraph, GeneratesRequestedSizes) {
  Rng rng(1);
  const auto g = AsGraph::generate(small_config(), rng);
  EXPECT_EQ(g.size(), 6u + 40u + 200u);

  std::size_t tier1 = 0, transit = 0, stub = 0;
  for (AsId i = 0; i < g.size(); ++i) {
    switch (g.node(i).tier) {
      case AsTier::kTier1:
        ++tier1;
        break;
      case AsTier::kTransit:
        ++transit;
        break;
      case AsTier::kStub:
        ++stub;
        break;
    }
  }
  EXPECT_EQ(tier1, 6u);
  EXPECT_EQ(transit, 40u);
  EXPECT_EQ(stub, 200u);
}

TEST(AsGraph, Tier1FullMesh) {
  Rng rng(2);
  const auto g = AsGraph::generate(small_config(), rng);
  for (AsId i = 0; i < 6; ++i) {
    for (AsId j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_EQ(g.hops(i, j), 1) << i << "," << j;
      }
    }
  }
}

TEST(AsGraph, FullyConnected) {
  Rng rng(3);
  const auto g = AsGraph::generate(small_config(), rng);
  const auto& from_zero = g.hops_from(0);
  for (AsId i = 0; i < g.size(); ++i) {
    EXPECT_NE(from_zero[i], AsGraph::kUnreachable) << "AS " << i;
  }
}

TEST(AsGraph, HopsSymmetric) {
  Rng rng(4);
  const auto g = AsGraph::generate(small_config(), rng);
  Rng pick(5);
  for (int i = 0; i < 100; ++i) {
    const AsId a = static_cast<AsId>(pick.index(g.size()));
    const AsId b = static_cast<AsId>(pick.index(g.size()));
    EXPECT_EQ(g.hops(a, b), g.hops(b, a));
  }
}

TEST(AsGraph, HopsSelfIsZero) {
  Rng rng(6);
  const auto g = AsGraph::generate(small_config(), rng);
  for (AsId i = 0; i < g.size(); i += 17) {
    EXPECT_EQ(g.hops(i, i), 0);
  }
}

TEST(AsGraph, TriangleInequalityOnHops) {
  Rng rng(7);
  const auto g = AsGraph::generate(small_config(), rng);
  Rng pick(8);
  for (int i = 0; i < 200; ++i) {
    const AsId a = static_cast<AsId>(pick.index(g.size()));
    const AsId b = static_cast<AsId>(pick.index(g.size()));
    const AsId c = static_cast<AsId>(pick.index(g.size()));
    EXPECT_LE(g.hops(a, c), g.hops(a, b) + g.hops(b, c));
  }
}

TEST(AsGraph, StubsPeripheral) {
  // Stubs attach below transit: any stub is within a few hops of a tier-1.
  Rng rng(9);
  const auto g = AsGraph::generate(small_config(), rng);
  const auto& from_zero = g.hops_from(0);  // AS 0 is tier-1
  for (AsId i = 46; i < g.size(); ++i) {   // stubs start after 6+40
    EXPECT_LE(from_zero[i], 5) << "stub " << i;
  }
}

TEST(AsGraph, DeterministicForSeed) {
  Rng rng_a(42), rng_b(42);
  const auto a = AsGraph::generate(small_config(), rng_a);
  const auto b = AsGraph::generate(small_config(), rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (AsId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.node(i).asn, b.node(i).asn);
    EXPECT_EQ(a.node(i).home, b.node(i).home);
    EXPECT_EQ(a.node(i).neighbors, b.node(i).neighbors);
  }
}

TEST(AsGraph, AsnsAreUnique) {
  Rng rng(10);
  const auto g = AsGraph::generate(small_config(), rng);
  std::set<Asn> asns;
  for (AsId i = 0; i < g.size(); ++i) asns.insert(g.node(i).asn);
  EXPECT_EQ(asns.size(), g.size());
}

TEST(AsGraph, InvalidIdThrows) {
  Rng rng(11);
  const auto g = AsGraph::generate(small_config(), rng);
  EXPECT_THROW(g.node(static_cast<AsId>(g.size())), ContractViolation);
  EXPECT_THROW(g.hops_from(static_cast<AsId>(g.size())), ContractViolation);
}

TEST(AsGraph, ColdGraphConcurrentHopsMatchSequential) {
  // Shard workers share one graph and fill its BFS cache concurrently.
  // Every thread walks every source on a cold graph (so first uses race)
  // and must see exactly the rows a single-threaded warm-up computes.
  Rng rng_cold(12), rng_warm(12);
  const auto cold = AsGraph::generate(small_config(), rng_cold);
  const auto warm = AsGraph::generate(small_config(), rng_warm);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<std::uint16_t>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cold, &seen, t] {
      for (AsId src = 0; src < cold.size(); ++src) {
        seen[t].push_back(cold.hops_from(src));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (AsId src = 0; src < warm.size(); ++src) {
      ASSERT_EQ(seen[t][src], warm.hops_from(src)) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace laces::topo
