#include "census/pipeline.hpp"

#include <algorithm>
#include <string>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace laces::census {

void Pipeline::finish_stage(obs::Span& span, obs::Histogram* duration) {
  span.end();
  duration->observe(span.duration().to_seconds());
}

void Pipeline::record_rate(obs::Gauge* configured_gauge,
                           obs::Gauge* effective_gauge, double configured,
                           double targets, SimDuration elapsed) {
  configured_gauge->set(configured);
  const double seconds = elapsed.to_seconds();
  effective_gauge->set(seconds > 0.0 ? targets / seconds : 0.0);
}

void Pipeline::register_metrics() {
  auto& registry = obs::Registry::global();
  const auto stage_hist = [&registry](const char* stage) {
    return &registry.histogram("laces_census_stage_duration_seconds",
                               obs::stage_seconds_buckets(),
                               {{"stage", stage}});
  };
  stage_census_ = stage_hist("anycast_census");
  stage_at_ = stage_hist("at_selection");
  stage_gcd_ = stage_hist("gcd");
  stage_merge_ = stage_hist("merge");
  stage_day_ = stage_hist("day");
  rate_configured_anycast_ = &registry.gauge(
      "laces_census_rate_configured_targets_per_second", {{"stage", "anycast"}});
  rate_effective_anycast_ = &registry.gauge(
      "laces_census_rate_effective_targets_per_second", {{"stage", "anycast"}});
  rate_configured_gcd_ = &registry.gauge(
      "laces_census_rate_configured_targets_per_second", {{"stage", "gcd"}});
  rate_effective_gcd_ = &registry.gauge(
      "laces_census_rate_effective_targets_per_second", {{"stage", "gcd"}});
  for (std::size_t v = 0; v < classified_anycast_.size(); ++v) {
    classified_anycast_[v] = &registry.counter(
        "laces_census_classified_total",
        {{"method", "anycast"},
         {"verdict",
          std::string(core::to_string(static_cast<core::Verdict>(v)))}});
    classified_gcd_[v] = &registry.counter(
        "laces_census_classified_total",
        {{"method", "gcd"},
         {"verdict",
          std::string(gcd::to_string(static_cast<gcd::GcdVerdict>(v)))}});
  }
  days_total_ = &registry.counter("laces_census_days_total");
  at_list_size_ = &registry.gauge("laces_census_at_list_size");
  for (const auto protocol : net::kAllProtocols) {
    targets_probed_[static_cast<std::size_t>(protocol)] = &registry.counter(
        "laces_census_targets_probed_total",
        {{"protocol", std::string(net::metric_label(protocol))}});
  }
  probes_sent_anycast_ =
      &registry.counter("laces_census_probes_sent_total", {{"stage", "anycast"}});
  probes_sent_gcd_ =
      &registry.counter("laces_census_probes_sent_total", {{"stage", "gcd"}});
  degraded_days_ = &registry.counter("laces_census_degraded_days_total");
  lost_sites_total_ = &registry.counter("laces_census_lost_sites_total");
  if (config_.ipv4) {
    anycast_targets_v4_ =
        &registry.gauge("laces_census_anycast_targets", {{"family", "v4"}});
  }
  if (config_.ipv6) {
    anycast_targets_v6_ =
        &registry.gauge("laces_census_anycast_targets", {{"family", "v6"}});
  }
}

Pipeline::Pipeline(topo::SimNetwork& network, core::Session& session,
                   platform::UnicastPlatform ark_v4,
                   platform::UnicastPlatform ark_v6, PipelineConfig config)
    : network_(network),
      session_(session),
      ark_v4_(std::move(ark_v4)),
      ark_v6_(std::move(ark_v6)),
      config_(config) {
  const auto& world = network_.world();
  ping_v4_ = hitlist::build_ping_hitlist(world, net::IpVersion::kV4);
  ping_v6_ = hitlist::build_ping_hitlist(world, net::IpVersion::kV6);
  dns_v4_ = hitlist::build_dns_hitlist(world, net::IpVersion::kV4);
  dns_v6_ = hitlist::build_dns_hitlist(world, net::IpVersion::kV6);
  for (const auto& hl : {ping_v4_, ping_v6_, dns_v4_, dns_v6_}) {
    for (const auto& e : hl.entries()) {
      rep_.emplace(net::Prefix::of(e.address), e.address);
    }
  }
  register_metrics();
}

Pipeline::~Pipeline() {
  auto& tracer = obs::Tracer::global();
  if (tracer.clock() == &network_.events()) tracer.set_clock(nullptr);
}

const hitlist::Hitlist& Pipeline::ping_hitlist(net::IpVersion version) const {
  return version == net::IpVersion::kV4 ? ping_v4_ : ping_v6_;
}

const hitlist::Hitlist& Pipeline::dns_hitlist(net::IpVersion version) const {
  return version == net::IpVersion::kV4 ? dns_v4_ : dns_v6_;
}

std::optional<net::IpAddress> Pipeline::representative(
    const net::Prefix& p) const {
  const auto it = rep_.find(p);
  if (it == rep_.end()) return std::nullopt;
  return it->second;
}

void Pipeline::extend_at_list(const std::vector<net::Prefix>& prefixes) {
  for (const auto& p : prefixes) {
    if (at_set_.insert(p).second) at_list_.push_back(p);
  }
}

void Pipeline::flag_partial_anycast(const std::vector<net::Prefix>& prefixes) {
  partial_.insert(prefixes.begin(), prefixes.end());
}

PipelineState Pipeline::state() const {
  PipelineState state;
  state.at_list = at_list_;
  state.partial.assign(partial_.begin(), partial_.end());
  std::sort(state.partial.begin(), state.partial.end());
  state.next_measurement = next_measurement_;
  state.gcd_run_counter = gcd_run_counter_;
  state.canary_days = canary_.days_observed();
  state.canary_share_sums.assign(canary_.share_sums().begin(),
                                 canary_.share_sums().end());
  return state;
}

void Pipeline::restore_state(const PipelineState& state) {
  at_list_.clear();
  at_set_.clear();
  extend_at_list(state.at_list);
  partial_.clear();
  partial_.insert(state.partial.begin(), state.partial.end());
  next_measurement_ = state.next_measurement;
  gcd_run_counter_ = state.gcd_run_counter;
  std::map<net::WorkerId, double> shares(state.canary_share_sums.begin(),
                                         state.canary_share_sums.end());
  canary_.restore(state.canary_days, std::move(shares));
  at_list_size_->set(static_cast<double>(at_list_.size()));
}

DailyCensus Pipeline::run_day(std::uint32_t day) {
  obs::Tracer::global().set_clock(&network_.events());
  obs::Span day_span("census.day");
  day_span.set_attr("day", std::to_string(day));

  network_.set_day(day);
  DailyCensus census;
  census.day = day;
  if (config_.canary) run_canary(census);
  if (config_.ipv4) run_family(census, net::IpVersion::kV4, day);
  if (config_.ipv6) run_family(census, net::IpVersion::kV6, day);

  {
    obs::Span merge_span("census.merge");
    // Feed GCD-confirmed prefixes back into the persistent AT list.
    extend_at_list(census.gcd_confirmed_prefixes());
    for (auto& [prefix, rec] : census.records) {
      rec.partial_anycast = partial_.contains(prefix);
    }
    for (const auto& [prefix, rec] : census.records) {
      for (const auto& [proto, obs_rec] : rec.anycast_based) {
        (void)proto;
        classified_anycast_[static_cast<std::size_t>(obs_rec.verdict)]->add();
      }
      if (rec.gcd_verdict) {
        classified_gcd_[static_cast<std::size_t>(*rec.gcd_verdict)]->add();
      }
    }
    finish_stage(merge_span, stage_merge_);
  }

  days_total_->add();
  at_list_size_->set(static_cast<double>(at_list_.size()));
  if (census.degraded) {
    degraded_days_->add();
    day_span.set_attr("degraded", "true");
    obs::FlightRecorder::global().record(
        obs::FrEvent::kDayDegraded, 0, day,
        static_cast<std::uint32_t>(census.lost_sites));
  } else {
    obs::FlightRecorder::global().record(
        obs::FrEvent::kDayComplete, 0, day,
        static_cast<std::uint32_t>(census.records.size()));
  }
  lost_sites_total_->add(census.lost_sites);
  finish_stage(day_span, stage_day_);
  return census;
}

SimDuration Pipeline::deadline_for(double rate, std::size_t targets) const {
  const double stream_s =
      rate > 0.0 ? static_cast<double>(targets) / rate : 0.0;
  const std::size_t workers = session_.worker_count();
  const double fanout_s =
      config_.worker_offset.to_seconds() *
      static_cast<double>(workers > 0 ? workers - 1 : 0);
  // Streaming + staggered starts + response drain; doubled, plus margin.
  return SimDuration::from_seconds(2.0 * (stream_s + fanout_s + 4.0) + 30.0);
}

void Pipeline::run_canary(DailyCensus& census) {
  const auto& hl = config_.ipv4 ? ping_v4_ : ping_v6_;
  auto addrs = hl.addresses();
  if (addrs.size() > config_.canary_targets) {
    addrs.resize(config_.canary_targets);
  }
  if (addrs.empty()) return;

  obs::Span canary_span("census.canary");
  core::MeasurementSpec spec;
  spec.id = next_measurement_++;
  spec.protocol = net::Protocol::kIcmp;
  spec.version = config_.ipv4 ? net::IpVersion::kV4 : net::IpVersion::kV6;
  spec.mode = core::ProbeMode::kAnycast;
  spec.worker_offset = config_.worker_offset;
  spec.targets_per_second = config_.targets_per_second;
  spec.deadline = deadline_for(config_.targets_per_second, addrs.size());

  const auto results = session_.run(spec, addrs);
  census.anycast_probes_sent += results.probes_sent;
  census.degraded |= results.status != core::RunStatus::kCompleted;
  census.lost_sites = std::max(census.lost_sites, results.workers_lost);

  const auto alarms = canary_.observe(results);
  census.canary_alarms += static_cast<std::uint32_t>(alarms.size());
  census.degraded |= !alarms.empty();
  canary_span.end();
}

void Pipeline::run_family(DailyCensus& census, net::IpVersion version,
                          std::uint32_t day) {
  struct Stage {
    net::Protocol protocol;
    const hitlist::Hitlist* hitlist;
    bool enabled;
  };
  const Stage stages[] = {
      {net::Protocol::kIcmp, &ping_hitlist(version), config_.icmp},
      {net::Protocol::kTcp, &ping_hitlist(version), config_.tcp},
      {net::Protocol::kUdpDns, &dns_hitlist(version), config_.dns},
  };

  const char* family =
      version == net::IpVersion::kV4 ? "v4" : "v6";

  // --- Stage 1: anycast-based censuses per protocol ---
  obs::Span census_span("census.anycast_census");
  census_span.set_attr("family", family);
  std::uint64_t family_targets = 0;
  std::uint64_t family_probes = 0;
  std::unordered_set<net::Prefix, net::PrefixHash> day_ats;
  for (const auto& stage : stages) {
    if (!stage.enabled || stage.hitlist->empty()) continue;
    core::MeasurementSpec spec;
    spec.id = next_measurement_++;
    spec.protocol = stage.protocol;
    spec.version = version;
    spec.mode = core::ProbeMode::kAnycast;
    spec.worker_offset = config_.worker_offset;
    spec.targets_per_second = config_.targets_per_second;

    const auto addrs = stage.hitlist->addresses();
    spec.deadline = deadline_for(config_.targets_per_second, addrs.size());
    targets_probed_[static_cast<std::size_t>(stage.protocol)]->add(
        addrs.size());
    family_targets += addrs.size();

    const auto results = session_.run(spec, addrs);
    census.anycast_probes_sent += results.probes_sent;
    family_probes += results.probes_sent;
    census.degraded |= results.status != core::RunStatus::kCompleted;
    census.lost_sites = std::max(census.lost_sites, results.workers_lost);
    const auto classification = core::classify_anycast(results, addrs);
    for (const auto& [prefix, obs] : classification) {
      auto& rec = census.records[prefix];
      rec.prefix = prefix;
      rec.anycast_based[stage.protocol] = ProtocolObservation{
          obs.verdict, static_cast<std::uint32_t>(obs.vp_count())};
      if (obs.verdict == core::Verdict::kAnycast) day_ats.insert(prefix);
    }
  }
  probes_sent_anycast_->add(family_probes);
  record_rate(rate_configured_anycast_, rate_effective_anycast_,
              config_.targets_per_second, static_cast<double>(family_targets),
              census_span.duration());
  finish_stage(census_span, stage_census_);

  // --- Stage 2: assemble the AT list (today's + persistent feedback) ---
  obs::Span at_span("census.at_selection");
  at_span.set_attr("family", family);
  std::vector<net::Prefix> ats(day_ats.begin(), day_ats.end());
  for (const auto& p : at_list_) {
    if (p.version() == version && !day_ats.contains(p)) ats.push_back(p);
  }
  std::sort(ats.begin(), ats.end());
  for (const auto& p : ats) {
    if (p.version() == version) census.anycast_targets.push_back(p);
  }
  (version == net::IpVersion::kV4 ? anycast_targets_v4_ : anycast_targets_v6_)
      ->set(static_cast<double>(ats.size()));
  finish_stage(at_span, stage_at_);

  // --- Stage 3: GCD from Ark toward the ATs only (two orders of magnitude
  // cheaper than a full-hitlist GCD run, §4.2.2) ---
  obs::Span gcd_span("census.gcd");
  gcd_span.set_attr("family", family);
  std::vector<net::IpAddress> gcd_targets;
  gcd_targets.reserve(ats.size());
  for (const auto& p : ats) {
    if (const auto addr = representative(p)) gcd_targets.push_back(*addr);
  }
  const auto& ark = version == net::IpVersion::kV4 ? ark_v4_ : ark_v6_;
  if (!gcd_targets.empty() && !ark.vps.empty()) {
    platform::LatencyOptions opts;
    opts.protocol = config_.gcd_protocol;
    opts.targets_per_second = config_.gcd_targets_per_second;
    opts.measurement_id = next_measurement_++;
    opts.run_seed = 0xa2c0 + day + (gcd_run_counter_++ << 8);
    const auto latency =
        platform::measure_latency(network_, ark, gcd_targets, opts);
    census.gcd_probes_sent += latency.probes_sent;
    probes_sent_gcd_->add(latency.probes_sent);
    const auto analyzer = gcd::make_analyzer(ark);
    const auto gcd_cls = gcd::classify_gcd(analyzer, latency, gcd_targets);
    for (const auto& [prefix, res] : gcd_cls) {
      auto& rec = census.records[prefix];
      rec.prefix = prefix;
      rec.gcd_verdict = res.verdict;
      rec.gcd_site_count = static_cast<std::uint32_t>(res.site_count());
      rec.gcd_locations.clear();
      for (const auto& site : res.sites) {
        if (site.city) rec.gcd_locations.push_back(*site.city);
      }
    }
  }
  record_rate(rate_configured_gcd_, rate_effective_gcd_,
              config_.gcd_targets_per_second,
              static_cast<double>(gcd_targets.size()), gcd_span.duration());
  finish_stage(gcd_span, stage_gcd_);
}

}  // namespace laces::census
