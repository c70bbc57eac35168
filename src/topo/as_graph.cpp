#include "topo/as_graph.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "geo/coord.hpp"
#include "util/contracts.hpp"

namespace laces::topo {
namespace {

void link(std::vector<AsNode>& nodes, AsId a, AsId b) {
  if (a == b) return;
  auto& na = nodes[a].neighbors;
  if (std::find(na.begin(), na.end(), b) != na.end()) return;
  na.push_back(b);
  nodes[b].neighbors.push_back(a);
}

/// Picks `k` indices from `candidates` biased toward geographic proximity
/// to `home` (closest-first with random skips, so graphs vary with the seed
/// but stay geographically plausible).
std::vector<AsId> pick_close(const std::vector<AsNode>& nodes,
                             const std::vector<AsId>& candidates,
                             geo::CityId home, std::size_t k, Rng& rng) {
  std::vector<std::pair<double, AsId>> scored;
  scored.reserve(candidates.size());
  const auto& home_loc = geo::city(home).location;
  for (AsId c : candidates) {
    const double d = geo::distance_km(home_loc, geo::city(nodes[c].home).location);
    scored.emplace_back(d + rng.uniform(0.0, 2500.0), c);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<AsId> out;
  for (std::size_t i = 0; i < scored.size() && out.size() < k; ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace

AsGraph AsGraph::generate(const AsGraphConfig& config, Rng& rng) {
  expects(config.tier1_count >= 2, "at least two tier-1 ASes");
  expects(config.transit_count >= config.transit_uplinks, "enough transits");

  AsGraph g;
  auto& nodes = g.nodes_;
  nodes.reserve(config.tier1_count + config.transit_count + config.stub_count);

  const auto cities = geo::world_cities();
  auto random_city = [&]() -> geo::CityId {
    return static_cast<geo::CityId>(rng.index(cities.size()));
  };

  // Synthetic ASNs: tier-1s get low numbers, then transit, then stubs.
  Asn next_asn = 100;
  std::vector<AsId> tier1_ids, transit_ids;

  for (std::size_t i = 0; i < config.tier1_count; ++i) {
    AsNode n;
    n.asn = next_asn++;
    n.tier = AsTier::kTier1;
    n.home = random_city();
    tier1_ids.push_back(static_cast<AsId>(nodes.size()));
    nodes.push_back(std::move(n));
  }
  // Tier-1 full mesh (the default-free zone clique).
  for (std::size_t i = 0; i < tier1_ids.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1_ids.size(); ++j) {
      link(nodes, tier1_ids[i], tier1_ids[j]);
    }
  }

  next_asn = 1000;
  for (std::size_t i = 0; i < config.transit_count; ++i) {
    AsNode n;
    n.asn = next_asn++;
    n.tier = AsTier::kTransit;
    n.home = random_city();
    const AsId id = static_cast<AsId>(nodes.size());
    transit_ids.push_back(id);
    nodes.push_back(std::move(n));
    for (AsId up :
         pick_close(nodes, tier1_ids, nodes[id].home, config.transit_uplinks,
                    rng)) {
      link(nodes, id, up);
    }
  }
  // Lateral transit peering (keeps regional paths short, as IXPs do).
  for (AsId t : transit_ids) {
    for (AsId peer : pick_close(nodes, transit_ids, nodes[t].home,
                                config.transit_peers + 1, rng)) {
      if (peer != t) link(nodes, t, peer);
    }
  }

  next_asn = 20000;
  for (std::size_t i = 0; i < config.stub_count; ++i) {
    AsNode n;
    n.asn = next_asn++;
    n.tier = AsTier::kStub;
    n.home = random_city();
    const AsId id = static_cast<AsId>(nodes.size());
    nodes.push_back(std::move(n));
    for (AsId up : pick_close(nodes, transit_ids, nodes[id].home,
                              config.stub_uplinks, rng)) {
      link(nodes, id, up);
    }
  }

  g.hop_rows_ = std::make_unique<HopRow[]>(nodes.size());
  return g;
}

const AsNode& AsGraph::node(AsId id) const {
  expects(id < nodes_.size(), "valid AS id");
  return nodes_[id];
}

std::vector<AsId> AsGraph::path(AsId from, AsId to) const {
  expects(from < nodes_.size() && to < nodes_.size(), "valid AS ids");
  const auto& dist = hops_from(from);
  if (dist[to] == kUnreachable) return {};
  // Walk backwards from `to`, always stepping to a neighbor one hop closer
  // to `from` (lowest id on ties for determinism).
  std::vector<AsId> reversed{to};
  AsId cur = to;
  while (cur != from) {
    AsId next = kNoAs;
    for (const AsId n : nodes_[cur].neighbors) {
      if (dist[n] + 1 == dist[cur] && (next == kNoAs || n < next)) next = n;
    }
    expects(next != kNoAs, "BFS predecessor exists");
    reversed.push_back(next);
    cur = next;
  }
  return {reversed.rbegin(), reversed.rend()};
}

const std::vector<std::uint16_t>& AsGraph::hops_from(AsId src) const {
  expects(src < nodes_.size(), "valid AS id");
  auto& slot = hop_rows_[src].row;
  if (const auto* cached = slot.load()) return *cached;

  auto dist = std::make_unique<std::vector<std::uint16_t>>(nodes_.size(),
                                                           kUnreachable);
  std::deque<AsId> queue;
  (*dist)[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const AsId cur = queue.front();
    queue.pop_front();
    for (AsId next : nodes_[cur].neighbors) {
      if ((*dist)[next] == kUnreachable) {
        (*dist)[next] = static_cast<std::uint16_t>((*dist)[cur] + 1);
        queue.push_back(next);
      }
    }
  }
  const std::vector<std::uint16_t>* published = nullptr;
  if (slot.compare_exchange_strong(published, dist.get())) {
    return *dist.release();
  }
  return *published;  // another thread's row won; it is identical
}

}  // namespace laces::topo
