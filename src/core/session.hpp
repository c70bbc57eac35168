// Session: wires a full MAnycastR instance onto one anycast platform.
//
// Owns the Orchestrator, one Worker per platform site, the CLI, and the
// authenticated channels between them — the whole Figure 3 control plane —
// and drives measurements to completion on the simulated event loop.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/measurement.hpp"
#include "core/orchestrator.hpp"
#include "core/worker.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "topo/network.hpp"

namespace laces::core {

struct SessionOptions {
  /// Shared channel-authentication key (R8).
  std::string key = "laces-census-key";
  SimDuration control_latency = SimDuration::millis(40);
};

class Session {
 public:
  Session(topo::SimNetwork& network, const platform::AnycastPlatform& platform,
          SessionOptions options = {});
  /// Detaches the global tracer's clock if it still reads this network's
  /// queue, so no later span reads a destroyed queue.
  ~Session();

  /// Run one measurement to completion and return the aggregated results.
  MeasurementResults run(const MeasurementSpec& spec,
                         const std::vector<net::IpAddress>& targets);

  /// Submit without pumping the event loop (async use: failure injection
  /// mid-measurement). Drive with network().run_events() and read
  /// cli().results() once cli().finished().
  void submit(const MeasurementSpec& spec,
              const std::vector<net::IpAddress>& targets);

  Worker& worker(std::size_t index) { return *workers_[index]; }
  std::size_t worker_count() const { return workers_.size(); }
  Orchestrator& orchestrator() { return *orchestrator_; }
  Cli& cli() { return *cli_; }
  topo::SimNetwork& network() { return network_; }
  const platform::AnycastPlatform& platform() const { return platform_; }

  /// Channel endpoints of worker `index`'s control link: [0] is the worker
  /// end, [1] the orchestrator end. Fault injection hooks both.
  const std::array<std::shared_ptr<Channel>, 2>& worker_link(
      std::size_t index) const {
    return worker_links_[index];
  }
  /// CLI link endpoints: [0] is the CLI end, [1] the orchestrator end.
  const std::array<std::shared_ptr<Channel>, 2>& cli_link() const {
    return cli_link_;
  }

  /// Restart worker `index`'s control link (crash-restart faults): builds a
  /// fresh channel pair with the session's key and latency, registers the
  /// orchestrator end and reconnects the worker, which resumes mid-run from
  /// its last acked chunk.
  void reconnect_worker(std::size_t index);

  // --- scenario availability regimes (forwarded to Worker) ---
  void set_worker_capability_mask(std::size_t index, std::uint8_t mask) {
    workers_[index]->set_capability_mask(mask);
  }
  void set_worker_throttle(std::size_t index, double skip_probability,
                           std::uint64_t salt) {
    workers_[index]->set_throttle(skip_probability, salt);
  }
  /// Clears every worker's throttle and capability mask (end of a
  /// scenario day).
  void clear_worker_limits() {
    for (auto& w : workers_) w->clear_scenario_limits();
  }
  /// Probes suppressed by scenario throttling/skew, summed over workers.
  std::uint64_t probes_suppressed() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->probes_suppressed();
    return total;
  }

 private:
  topo::SimNetwork& network_;
  platform::AnycastPlatform platform_;
  SessionOptions options_;
  std::unique_ptr<Orchestrator> orchestrator_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Cli> cli_;
  std::vector<std::array<std::shared_ptr<Channel>, 2>> worker_links_;
  std::array<std::shared_ptr<Channel>, 2> cli_link_;
  // Per-protocol measurement counters, registered once at construction so
  // run() never takes the registry mutex (registry references stay valid
  // across Registry::reset()).
  std::array<obs::Counter*, net::kAllProtocols.size()> measurements_total_{};
};

}  // namespace laces::core
