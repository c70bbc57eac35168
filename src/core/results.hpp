// Probe results: what workers stream back and the CLI aggregates.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.hpp"
#include "net/probe.hpp"
#include "net/protocol.hpp"
#include "util/simtime.hpp"

namespace laces::core {

/// One captured response, annotated with receive-side context.
struct ProbeRecord {
  net::IpAddress target;      // the responding (probed) address
  net::Protocol protocol = net::Protocol::kIcmp;
  net::WorkerId rx_worker = 0;
  /// Sending worker, decoded from the echoed probe fields (absent for
  /// static probes, which carry no worker identity).
  std::optional<net::WorkerId> tx_worker;
  SimTime rx_time;
  /// Round-trip time, available when the receiving worker also sent the
  /// probe (unicast/GCD mode keeps precise local transmit state).
  std::optional<SimDuration> rtt;
  /// CHAOS TXT site identity, when the probe asked for one.
  std::optional<std::string> txt;

  bool operator==(const ProbeRecord&) const = default;
};

/// How a measurement ended (paper R5: failure is an outcome, not a hang).
enum class RunStatus : std::uint8_t {
  /// Never completed: CLI abort, watchdog give-up or a dead control plane.
  kAborted = 0,
  /// Every enlisted worker finished.
  kCompleted = 1,
  /// Completed, but with lost workers or truncated by the run deadline —
  /// results are valid yet partial.
  kDegraded = 2,
};

inline constexpr std::array<RunStatus, 3> kAllRunStatuses = {
    RunStatus::kAborted, RunStatus::kCompleted, RunStatus::kDegraded};

inline std::string_view to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kCompleted: return "completed";
    case RunStatus::kDegraded: return "degraded";
    case RunStatus::kAborted: break;
  }
  return "aborted";
}

/// Aggregated output of one measurement (the single file of §4.1.2).
struct MeasurementResults {
  net::MeasurementId measurement = 0;
  std::vector<ProbeRecord> records;
  /// Workers that participated (ids as assigned by the Orchestrator).
  std::vector<net::WorkerId> workers;
  /// Probes sent across all workers (probing-cost accounting, Table 5).
  std::uint64_t probes_sent = 0;
  SimTime started;
  SimTime finished;
  /// Completion status as reported by the Orchestrator (kAborted until a
  /// MeasurementComplete arrives).
  RunStatus status = RunStatus::kAborted;
  /// Sites enlisted at start vs. sites lost mid-run (previously tracked by
  /// the Orchestrator but invisible to callers).
  std::uint16_t workers_participated = 0;
  std::uint16_t workers_lost = 0;
};

}  // namespace laces::core
