// AS-level topology: tier-1 clique / transit / stub hierarchy.
//
// BGP route selection is approximated by hop counts on this graph (shortest
// AS path, the dominant BGP tie-breaker), combined with geographic
// hot-potato distance in RoutingModel. BFS results are cached per source.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "geo/cities.hpp"
#include "topo/types.hpp"
#include "util/rng.hpp"

namespace laces::topo {

enum class AsTier : std::uint8_t { kTier1, kTransit, kStub };

struct AsNode {
  Asn asn = 0;
  AsTier tier = AsTier::kStub;
  geo::CityId home = 0;
  std::vector<AsId> neighbors;
};

/// Parameters for synthetic AS-graph generation.
struct AsGraphConfig {
  std::size_t tier1_count = 15;
  std::size_t transit_count = 250;
  std::size_t stub_count = 2800;
  /// Transit ASes connect to this many tier-1s (plus lateral peers).
  std::size_t transit_uplinks = 3;
  std::size_t transit_peers = 4;
  /// Stubs connect to this many transit providers.
  std::size_t stub_uplinks = 2;
};

/// Immutable AS graph with lazily cached per-source BFS hop counts.
class AsGraph {
 public:
  /// Generates a deterministic hierarchy: tier-1 full mesh; transit ASes
  /// multihomed to geographically close tier-1s; stubs homed to close
  /// transit ASes.
  static AsGraph generate(const AsGraphConfig& config, Rng& rng);

  std::size_t size() const { return nodes_.size(); }
  const AsNode& node(AsId id) const;

  /// Hop count from `src` to every AS (unreachable = kUnreachable).
  /// Cached per source; safe to call from several threads at once (shard
  /// workers share one graph).
  const std::vector<std::uint16_t>& hops_from(AsId src) const;

  /// Hop count between two ASes.
  std::uint16_t hops(AsId a, AsId b) const { return hops_from(a)[b]; }

  /// One shortest AS-level path from `from` to `to`, inclusive of both
  /// endpoints. Empty if unreachable. Deterministic (lowest-id neighbor
  /// wins ties) — the AS-level view a traceroute would reveal.
  std::vector<AsId> path(AsId from, AsId to) const;

  static constexpr std::uint16_t kUnreachable = 0xffff;

 private:
  /// One source AS's BFS row, computed on first use and published once:
  /// racing first callers each compute the (identical) row, the first
  /// compare-exchange wins, and every later reader needs one atomic load.
  struct HopRow {
    std::atomic<const std::vector<std::uint16_t>*> row{nullptr};
    ~HopRow() { delete row.load(); }
  };

  std::vector<AsNode> nodes_;
  /// Indexed by source AS id, sized by generate(). hops() sits under every
  /// catchment score, so the cached-row lookup must be one array index,
  /// not a hash probe.
  std::unique_ptr<HopRow[]> hop_rows_;
};

}  // namespace laces::topo
