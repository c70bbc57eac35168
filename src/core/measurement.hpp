// Measurement definitions (what the CLI submits to the Orchestrator).
#pragma once

#include <array>
#include <cstdint>

#include "net/address.hpp"
#include "net/probe.hpp"
#include "net/protocol.hpp"
#include "util/simtime.hpp"

namespace laces::core {

/// Source-address policy for probes.
enum class ProbeMode : std::uint8_t {
  /// Probe from the shared anycast address: the anycast-based census
  /// (responses land at the catchment-nearest worker).
  kAnycast,
  /// Probe from each worker's unicast address: latency/GCD measurements
  /// (every worker sees only its own responses, with precise RTTs).
  kUnicast,
};

inline constexpr std::array<ProbeMode, 2> kAllProbeModes = {
    ProbeMode::kAnycast, ProbeMode::kUnicast};

/// A complete measurement definition.
///
/// `worker_offset` is the interval between successive workers probing the
/// same target. MAnycastR's synchronized probing uses 1 s (a normal ping
/// cadence); 0 s sends all probes back-to-back; the MAnycast^2 baseline is
/// the same schedule with a 1- or 13-minute offset (§5.1.5, Figure 4).
struct MeasurementSpec {
  net::MeasurementId id = 1;
  net::Protocol protocol = net::Protocol::kIcmp;
  net::IpVersion version = net::IpVersion::kV4;
  ProbeMode mode = ProbeMode::kAnycast;
  SimDuration worker_offset = SimDuration::seconds(1);
  /// Hitlist streaming rate (targets per second across the deployment).
  double targets_per_second = 4000.0;
  /// When false, all workers emit byte-identical probes (the §5.1.4
  /// load-balancer ablation).
  bool vary_payload = true;
  /// When true, UDP probes are TXT/CHAOS queries (RFC 4892) instead of
  /// census A queries.
  bool chaos = false;
  /// 0 = all connected workers participate. A positive value enlists only
  /// the first N workers — the responsiveness pre-check of §6 probes with
  /// one worker before spending the whole deployment's probing budget.
  std::uint16_t max_participants = 0;
  /// Watchdog deadline measured from measurement start; 0 = no deadline.
  /// When it fires, the Orchestrator aborts stragglers and completes the
  /// measurement with whatever results arrived (status kDegraded).
  SimDuration deadline = SimDuration::seconds(0);

  bool operator==(const MeasurementSpec&) const = default;
};

}  // namespace laces::core
