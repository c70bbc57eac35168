#include "topo/routing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/lightspeed.hpp"
#include "util/contracts.hpp"

namespace laces::topo {
namespace {

/// Hash-derived uniform value in [0, 1), stable in its inputs.
double stable_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c = 0, std::uint64_t d = 0) {
  StableHash h(seed);
  h.mix(a).mix(b).mix(c).mix(d);
  return h.unit();
}

std::uint64_t attach_key(const AttachPoint& p) {
  return (std::uint64_t{p.city} << 32) | p.upstream;
}

/// Exact (collision-free) cache key for an ordered attach-point pair.
/// City and AS ids each fit 16 bits (asserted at model construction), so
/// the pair packs into one 64-bit key and a cache hit can never alias a
/// different pair — a prerequisite for byte-identical same-seed output.
std::uint64_t pair_key(const AttachPoint& a, const AttachPoint& b) {
  return (std::uint64_t{a.city} << 48) | (std::uint64_t{a.upstream} << 32) |
         (std::uint64_t{b.city} << 16) | std::uint64_t{b.upstream};
}

/// Exact cache key for (attach point, deployment).
std::uint64_t catchment_key(const AttachPoint& from, DeploymentId dep) {
  return (std::uint64_t{from.city} << 48) |
         (std::uint64_t{from.upstream} << 32) | std::uint64_t{dep};
}

}  // namespace

RoutingModel::RoutingModel(const AsGraph& graph, RoutingConfig config)
    : graph_(graph), config_(config) {
  const auto cities = geo::world_cities();
  city_count_ = cities.size();
  expects(city_count_ < 0x10000 && graph_.size() < 0x10000,
          "city/AS ids must fit 16 bits for exact routing-cache keys");
  city_dist_.resize(city_count_ * city_count_);
  for (std::size_t i = 0; i < city_count_; ++i) {
    for (std::size_t j = i; j < city_count_; ++j) {
      const float d = static_cast<float>(
          geo::distance_km(cities[i].location, cities[j].location));
      city_dist_[i * city_count_ + j] = d;
      city_dist_[j * city_count_ + i] = d;
    }
  }
  auto& registry = obs::Registry::global();
  delay_cache_hits_ = &registry.counter("laces_routing_delay_cache_hits_total");
  delay_cache_misses_ =
      &registry.counter("laces_routing_delay_cache_misses_total");
  catchment_cache_hits_ =
      &registry.counter("laces_routing_catchment_cache_hits_total");
  catchment_cache_misses_ =
      &registry.counter("laces_routing_catchment_cache_misses_total");
}

double RoutingModel::city_distance_km(geo::CityId a, geo::CityId b) const {
  expects(a < city_count_ && b < city_count_, "valid city ids");
  return city_dist_[static_cast<std::size_t>(a) * city_count_ + b];
}

double RoutingModel::score(const AttachPoint& from, const Pop& pop,
                           DeploymentId dep) const {
  const std::uint16_t hops = graph_.hops(from.upstream, pop.attach.upstream);
  const double hop_cost =
      hops == AsGraph::kUnreachable
          ? 1e9
          : static_cast<double>(hops) * config_.hop_weight_km;
  const double geo_cost = city_distance_km(from.city, pop.attach.city);
  const double perturb =
      stable_unit(config_.seed ^ 0x7e27, attach_key(from),
                  attach_key(pop.attach), dep) *
      config_.perturb_km;
  return hop_cost + geo_cost + perturb;
}

bool RoutingModel::flip_active(const AttachPoint& from, DeploymentId dep,
                               SimTime when) const {
  const std::int64_t epoch =
      when.ns() / (config_.flip_epoch_s * 1'000'000'000LL);
  return stable_unit(config_.seed ^ 0xf11b, attach_key(from), dep,
                     static_cast<std::uint64_t>(epoch)) <
         config_.route_flip_probability;
}

PopChoice RoutingModel::finish_choice(const AttachPoint& from,
                                      const Deployment& dep, SimTime when,
                                      std::uint64_t flow_hash,
                                      std::uint64_t packet_seq,
                                      Ranking ranking, bool force_flip) const {
  PopChoice choice;
  std::size_t best = ranking.best, second = ranking.second;
  double best_score = ranking.best_score;
  double second_score = ranking.second_score;

  // Route flip: in affected windows the runner-up briefly wins. A
  // scenario overlay can force the swap for its scoped flows.
  if (force_flip || flip_active(from, dep.id, when)) {
    std::swap(best, second);
    std::swap(best_score, second_score);
    choice.was_flipped = true;
  }

  // Equal-cost tie: some router pairs balance per packet, the rest hash
  // flow headers (so probes with static flow headers stay together).
  if (second_score - best_score < config_.ecmp_epsilon_km) {
    choice.was_tie = true;
    const bool round_robin =
        stable_unit(config_.seed ^ 0xec3f, attach_key(from), dep.id) <
        config_.per_packet_ecmp_fraction;
    const std::uint64_t selector =
        round_robin ? packet_seq
                    : (StableHash(config_.seed ^ 0xf10e)
                           .mix(flow_hash)
                           .mix(attach_key(from))
                           .mix(std::uint64_t{dep.id})
                           .value());
    if (selector % 2 == 1) best = second;
  }

  choice.pop_index = best;
  return choice;
}

PopChoice RoutingModel::select_pop(const AttachPoint& from,
                                   const Deployment& dep, std::uint32_t day,
                                   SimTime when, std::uint64_t flow_hash,
                                   std::uint64_t packet_seq) const {
  expects(!dep.pops.empty(), "deployment has PoPs");

  // Temporary anycast that is inactive today is served from its home PoP.
  if (dep.kind == DeploymentKind::kTemporaryAnycast &&
      !dep.anycast_active(day)) {
    PopChoice choice;
    choice.pop_index = dep.home_pop;
    return choice;
  }
  if (dep.pops.size() == 1) return PopChoice{};

  return finish_choice(from, dep, when, flow_hash, packet_seq,
                       scan_pops(from, dep));
}

PopChoice RoutingModel::select_pop(const AttachPoint& from,
                                   const Deployment& dep, std::uint32_t day,
                                   SimTime when, std::uint64_t flow_hash,
                                   std::uint64_t packet_seq,
                                   Caches& caches) const {
  expects(!dep.pops.empty(), "deployment has PoPs");
  if (dep.kind == DeploymentKind::kTemporaryAnycast &&
      !dep.anycast_active(day)) {
    PopChoice choice;
    choice.pop_index = dep.home_pop;
    return choice;
  }
  if (dep.pops.size() == 1) return PopChoice{};

  return finish_choice(from, dep, when, flow_hash, packet_seq,
                       rank_pops(from, dep, caches));
}

PopChoice RoutingModel::select_pop_flipped(const AttachPoint& from,
                                           const Deployment& dep,
                                           std::uint32_t day, SimTime when,
                                           std::uint64_t flow_hash,
                                           std::uint64_t packet_seq,
                                           Caches& caches) const {
  expects(!dep.pops.empty(), "deployment has PoPs");
  if (dep.kind == DeploymentKind::kTemporaryAnycast &&
      !dep.anycast_active(day)) {
    PopChoice choice;
    choice.pop_index = dep.home_pop;
    return choice;
  }
  if (dep.pops.size() == 1) return PopChoice{};

  return finish_choice(from, dep, when, flow_hash, packet_seq,
                       rank_pops(from, dep, caches), /*force_flip=*/true);
}

PopChoice RoutingModel::select_pop(const AttachPoint& from,
                                   const Deployment& dep, std::uint32_t day,
                                   SimTime when, std::uint64_t flow_hash,
                                   std::uint64_t packet_seq,
                                   FlatMap64<Ranking>& cache) const {
  expects(!dep.pops.empty(), "deployment has PoPs");
  if (dep.kind == DeploymentKind::kTemporaryAnycast &&
      !dep.anycast_active(day)) {
    PopChoice choice;
    choice.pop_index = dep.home_pop;
    return choice;
  }
  if (dep.pops.size() == 1) return PopChoice{};

  Ranking ranking;
  if (const Ranking* hit = cache.find(attach_key(from))) {
    catchment_cache_hits_->add();
    ranking = *hit;
  } else {
    catchment_cache_misses_->add();
    ranking = scan_pops(from, dep);
    cache.insert_or_assign(attach_key(from), ranking);
  }
  return finish_choice(from, dep, when, flow_hash, packet_seq, ranking);
}

RoutingModel::Ranking RoutingModel::rank_pops(const AttachPoint& from,
                                              const Deployment& dep,
                                              Caches& caches) const {
  // Transient pseudo-deployments (locally announced addresses) change
  // their PoP set on attach/detach; only immutable World deployments are
  // safe to memoize per (from, dep.id). Transient callers use the
  // select_pop overload with a caller-owned per-address cache instead.
  if (dep.id >= kPseudoDeploymentIdBase) return scan_pops(from, dep);
  const std::uint64_t key = catchment_key(from, dep.id);
  if (const Ranking* hit = caches.catchment.find(key)) {
    catchment_cache_hits_->add();
    return *hit;
  }
  catchment_cache_misses_->add();
  const Ranking r = scan_pops(from, dep);
  caches.catchment.insert_or_assign(key, r);
  return r;
}

RoutingModel::Ranking RoutingModel::scan_pops(const AttachPoint& from,
                                              const Deployment& dep) const {
  // Single pass for the best and second-best PoP by catchment score.
  // Everything that depends only on `from` is hoisted out of the loop: the
  // BFS hop row, the city-distance row, and the hash state of the perturb
  // after mixing the sender key. The per-PoP arithmetic below reproduces
  // score() bit for bit (same operations, same association order), which
  // the PerPopArithmeticMatchesScore test pins down.
  expects(dep.pop_city.size() == dep.pops.size() &&
              dep.pop_upstream.size() == dep.pops.size(),
          "deployment layout finalized");
  const auto& hop_row = graph_.hops_from(from.upstream);
  const float* dist_row =
      &city_dist_[static_cast<std::size_t>(from.city) * city_count_];
  StableHash perturb_prefix(config_.seed ^ 0x7e27);
  perturb_prefix.mix(attach_key(from));
  const std::uint64_t dep_id = dep.id;

  Ranking r;
  double best_score = std::numeric_limits<double>::infinity();
  double second_score = std::numeric_limits<double>::infinity();
  // 4 sequential bytes per PoP (see Deployment::pop_city).
  const std::uint16_t* cities = dep.pop_city.data();
  const std::uint16_t* upstreams = dep.pop_upstream.data();
  for (std::size_t i = 0; i < dep.pops.size(); ++i) {
    const std::uint64_t city = cities[i];
    const std::uint64_t upstream = upstreams[i];
    const std::uint16_t hops = hop_row[upstream];
    const double hop_cost =
        hops == AsGraph::kUnreachable
            ? 1e9
            : static_cast<double>(hops) * config_.hop_weight_km;
    const double geo_cost = dist_row[city];
    StableHash h = perturb_prefix;  // state after seed + sender key
    // Identical to attach_key(pop.attach): both ids fit 16 bits, so the
    // widened SoA values reproduce the packed key exactly.
    h.mix((city << 32) | upstream).mix(dep_id).mix(std::uint64_t{0});
    const double s = hop_cost + geo_cost + h.unit() * config_.perturb_km;
    if (s < best_score) {
      r.second = r.best;
      second_score = best_score;
      r.best = static_cast<std::uint32_t>(i);
      best_score = s;
    } else if (s < second_score) {
      r.second = static_cast<std::uint32_t>(i);
      second_score = s;
    }
  }
  r.best_score = best_score;
  r.second_score = second_score;
  return r;
}

std::size_t RoutingModel::egress_pop(const Deployment& dep,
                                     std::size_t ingress_pop) const {
  expects(dep.kind == DeploymentKind::kGlobalBgpUnicast, "GBU deployment");
  const bool local_egress =
      stable_unit(config_.seed ^ 0xe62e55, dep.id, ingress_pop) <
      config_.gbu_local_egress_fraction;
  return local_egress ? ingress_pop : dep.home_pop;
}

double RoutingModel::delay_base_ms(const AttachPoint& a,
                                   const AttachPoint& b) const {
  const double dist = city_distance_km(a.city, b.city);
  const double stretch =
      config_.stretch_min +
      (config_.stretch_max - config_.stretch_min) *
          stable_unit(config_.seed ^ 0x57e7c4, attach_key(a), attach_key(b));
  const std::uint16_t hops = graph_.hops(a.upstream, b.upstream);
  const double hop_ms =
      hops == AsGraph::kUnreachable
          ? 0.0
          : static_cast<double>(hops + 1) * config_.hop_latency_ms;
  // Same association order as the historical single-expression formula
  // ((dist/v*stretch + hop_ms) + jitter), so memoization is bit-exact.
  return dist / geo::kFibreKmPerMs * stretch + hop_ms;
}

SimDuration RoutingModel::one_way_delay(const AttachPoint& a,
                                        const AttachPoint& b,
                                        std::uint64_t packet_salt) const {
  // Exponential-ish jitter from a stable hash of the packet salt. Jitter is
  // strictly additive: delays never undercut light-in-fibre propagation.
  const double u = std::max(
      1e-12, stable_unit(config_.seed ^ 0x717be2, attach_key(a), attach_key(b),
                         packet_salt));
  const double jitter_ms = -config_.jitter_mean_ms * std::log(u);
  const double ms = delay_base_ms(a, b) + jitter_ms;
  return SimDuration::from_seconds(ms / 1e3);
}

SimDuration RoutingModel::one_way_delay(const AttachPoint& a,
                                        const AttachPoint& b,
                                        std::uint64_t packet_salt,
                                        Caches& caches) const {
  const std::uint64_t key = pair_key(a, b);
  double base_ms;
  if (const double* hit = caches.delay.find(key)) {
    delay_cache_hits_->add();
    base_ms = *hit;
  } else {
    delay_cache_misses_->add();
    base_ms = delay_base_ms(a, b);
    caches.delay.insert_or_assign(key, base_ms);
  }
  const double u = std::max(
      1e-12, stable_unit(config_.seed ^ 0x717be2, attach_key(a), attach_key(b),
                         packet_salt));
  const double jitter_ms = -config_.jitter_mean_ms * std::log(u);
  const double ms = base_ms + jitter_ms;
  return SimDuration::from_seconds(ms / 1e3);
}

}  // namespace laces::topo
