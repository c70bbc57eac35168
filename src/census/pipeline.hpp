// The daily measurement pipeline of Figure 3.
//
//   anycast-based censuses (ICMP/TCP/DNS, v4+v6, from the anycast
//   deployment) -> candidate anycast targets (AT) -> GCD measurements from
//   Ark toward the ATs only -> merged daily output.
//
// The AT list is persistent and fed back (the purple arrow): prefixes found
// by GCD — including the bi-annual full-hitlist GCD_Ark runs and operator
// ground truth — stay on the list so anycast-based FNs remain covered.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "census/canary.hpp"
#include "census/census.hpp"
#include "core/session.hpp"
#include "gcd/classify.hpp"
#include "hitlist/hitlist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/latency.hpp"
#include "platform/platform.hpp"
#include "topo/network.hpp"

namespace laces::census {

/// Serializable cross-day pipeline state: everything run_day() carries
/// from one day to the next. laces_store checkpoints this (plus the sim
/// clock and longitudinal counters) so a killed census series resumes
/// bit-identically — see docs/storage.md.
struct PipelineState {
  /// Persistent AT list in insertion order (the purple feedback arrow).
  std::vector<net::Prefix> at_list;
  /// Partial-anycast flags, sorted for deterministic encoding.
  std::vector<net::Prefix> partial;
  net::MeasurementId next_measurement = 100;
  std::uint64_t gcd_run_counter = 0;
  /// Canary baseline (empty unless config.canary).
  std::size_t canary_days = 0;
  std::vector<std::pair<net::WorkerId, double>> canary_share_sums;

  bool operator==(const PipelineState&) const = default;
};

struct PipelineConfig {
  bool icmp = true;
  bool tcp = true;
  bool dns = true;
  bool ipv4 = true;
  bool ipv6 = false;
  /// Anycast-stage probing.
  double targets_per_second = 20000.0;
  SimDuration worker_offset = SimDuration::seconds(1);
  /// GCD-stage probing.
  net::Protocol gcd_protocol = net::Protocol::kIcmp;
  double gcd_targets_per_second = 4000.0;
  /// Probe a small canary target set each day and alarm on catchment-share
  /// collapses (§6 future work). Off by default: the canary adds a
  /// measurement per day, which shifts probe/trace output.
  bool canary = false;
  /// Canary stage probes the first `canary_targets` ping-hitlist entries.
  std::size_t canary_targets = 64;
};

class Pipeline {
 public:
  /// `session` wraps the anycast deployment, `ark_v4`/`ark_v6` the latency
  /// platforms (the paper's 163 production Ark nodes / 118 v6 nodes).
  Pipeline(topo::SimNetwork& network, core::Session& session,
           platform::UnicastPlatform ark_v4, platform::UnicastPlatform ark_v6,
           PipelineConfig config = {});
  /// Detaches the global tracer's clock if it still reads this network's
  /// queue (run_day points it there), so no later span reads a destroyed
  /// queue.
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Run the full pipeline for one day.
  DailyCensus run_day(std::uint32_t day);

  /// Seed the persistent AT list (GCD_Ark results, operator ground truth).
  void extend_at_list(const std::vector<net::Prefix>& prefixes);

  /// Flag prefixes as partial anycast (from the /32-granularity scan,
  /// §5.6); subsequent censuses carry the flag.
  void flag_partial_anycast(const std::vector<net::Prefix>& prefixes);

  const std::vector<net::Prefix>& persistent_at_list() const {
    return at_list_;
  }

  /// Snapshot of the cross-day state (for archive checkpoints).
  PipelineState state() const;
  /// Restores a checkpointed state; the inverse of state(). The caller is
  /// responsible for also restoring the simulated clock (the event queue)
  /// before the next run_day() so probe timestamps continue seamlessly.
  void restore_state(const PipelineState& state);

  /// Canary state (baselines across days); only fed when config.canary.
  const CanaryMonitor& canary() const { return canary_; }

  /// The hitlists the pipeline probes (rebuilt per construction).
  const hitlist::Hitlist& ping_hitlist(net::IpVersion version) const;
  const hitlist::Hitlist& dns_hitlist(net::IpVersion version) const;

 private:
  void run_family(DailyCensus& census, net::IpVersion version,
                  std::uint32_t day);
  /// Probe the canary target set and raise catchment-share alarms.
  void run_canary(DailyCensus& census);
  /// Watchdog deadline for an anycast-stage measurement: twice the expected
  /// streaming + fan-out + drain time, plus a fixed margin. A measurement
  /// that overruns it is force-completed with partial results.
  SimDuration deadline_for(double rate, std::size_t targets) const;
  /// Representative probe address for a census prefix.
  std::optional<net::IpAddress> representative(const net::Prefix& p) const;

  void register_metrics();
  /// Close `span` and record its simulated duration under the Figure-3
  /// stage histogram, so per-stage latency is scrapeable, not just
  /// traceable.
  static void finish_stage(obs::Span& span, obs::Histogram* duration);
  /// Effective pacing actually achieved by a stage, vs. the configured
  /// responsible-rate budget (§4.2).
  static void record_rate(obs::Gauge* configured_gauge,
                          obs::Gauge* effective_gauge, double configured,
                          double targets, SimDuration elapsed);

  topo::SimNetwork& network_;
  core::Session& session_;
  platform::UnicastPlatform ark_v4_;
  platform::UnicastPlatform ark_v6_;
  PipelineConfig config_;
  hitlist::Hitlist ping_v4_, ping_v6_, dns_v4_, dns_v6_;
  std::unordered_map<net::Prefix, net::IpAddress, net::PrefixHash> rep_;
  std::vector<net::Prefix> at_list_;
  std::unordered_set<net::Prefix, net::PrefixHash> at_set_;
  std::unordered_set<net::Prefix, net::PrefixHash> partial_;
  net::MeasurementId next_measurement_ = 100;
  std::uint64_t gcd_run_counter_ = 0;
  CanaryMonitor canary_;

  // Metric handles, registered once at construction so the per-record /
  // per-stage hot paths never take the registry mutex or rebuild label
  // sets (registry references stay valid across Registry::reset()).
  obs::Histogram* stage_census_ = nullptr;
  obs::Histogram* stage_at_ = nullptr;
  obs::Histogram* stage_gcd_ = nullptr;
  obs::Histogram* stage_merge_ = nullptr;
  obs::Histogram* stage_day_ = nullptr;
  obs::Gauge* rate_configured_anycast_ = nullptr;
  obs::Gauge* rate_effective_anycast_ = nullptr;
  obs::Gauge* rate_configured_gcd_ = nullptr;
  obs::Gauge* rate_effective_gcd_ = nullptr;
  /// Indexed by core::Verdict / gcd::GcdVerdict enum value.
  std::array<obs::Counter*, 3> classified_anycast_{};
  std::array<obs::Counter*, 3> classified_gcd_{};
  obs::Counter* days_total_ = nullptr;
  obs::Gauge* at_list_size_ = nullptr;
  std::array<obs::Counter*, net::kAllProtocols.size()> targets_probed_{};
  obs::Counter* probes_sent_anycast_ = nullptr;
  obs::Counter* probes_sent_gcd_ = nullptr;
  obs::Counter* degraded_days_ = nullptr;
  obs::Counter* lost_sites_total_ = nullptr;
  obs::Gauge* anycast_targets_v4_ = nullptr;
  obs::Gauge* anycast_targets_v6_ = nullptr;
};

}  // namespace laces::census
