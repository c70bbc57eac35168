// Control-plane messages between CLI, Orchestrator and Workers.
//
// Every message serializes to bytes because the channel authenticates
// frames with HMAC-SHA256 over the encoded payload (paper R8). Each
// message's fields() is its wire layout (net/codec.hpp); a std::variant
// keeps dispatch typed on the receive side.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/measurement.hpp"
#include "core/results.hpp"
#include "net/address.hpp"
#include "net/codec.hpp"

namespace laces::core {

// Wire layouts of the measurement types the messages carry.

void fields(auto& io, codec::Is<MeasurementSpec> auto& s) {
  io(s.id, codec::one_of(s.protocol, net::kAllProtocols),
     codec::one_of(s.version, net::kAllIpVersions),
     codec::one_of(s.mode, kAllProbeModes), s.worker_offset,
     s.targets_per_second, s.vary_payload, s.chaos, s.max_participants,
     s.deadline);
}

void fields(auto& io, codec::Is<ProbeRecord> auto& r) {
  io(r.target, codec::one_of(r.protocol, net::kAllProtocols), r.rx_worker,
     r.tx_worker, r.rx_time, r.rtt, r.txt);
}

/// Worker -> Orchestrator: first message on a fresh channel.
struct WorkerHello {
  std::string worker_name;
  bool operator==(const WorkerHello&) const = default;
};
void fields(auto& io, codec::Is<WorkerHello> auto& m) { io(m.worker_name); }

/// Orchestrator -> Worker: registration accepted.
struct HelloAck {
  net::WorkerId worker_id = 0;
  bool operator==(const HelloAck&) const = default;
};
void fields(auto& io, codec::Is<HelloAck> auto& m) { io(m.worker_id); }

/// Orchestrator -> Worker: a measurement starts. Carries the worker's
/// participant index (its probe-offset slot) and the probe source address
/// for anycast mode.
struct StartMeasurement {
  MeasurementSpec spec;
  std::uint16_t participant_index = 0;
  std::uint16_t participant_count = 0;
  net::IpAddress anycast_source;
  SimTime start_time;
  /// First chunk sequence the worker should expect. 0 on a fresh start; a
  /// reconnecting worker resumes from its last acked chunk instead of
  /// re-receiving the whole hitlist.
  std::uint64_t resume_from = 0;
  bool operator==(const StartMeasurement&) const = default;
};
void fields(auto& io, codec::Is<StartMeasurement> auto& m) {
  io(m.spec, m.participant_index, m.participant_count, m.anycast_source,
     m.start_time, m.resume_from);
}

/// CLI -> Orchestrator: submit a measurement (hitlist follows in chunks).
struct SubmitMeasurement {
  MeasurementSpec spec;
  bool operator==(const SubmitMeasurement&) const = default;
};
void fields(auto& io, codec::Is<SubmitMeasurement> auto& m) { io(m.spec); }

/// CLI -> Orchestrator (hitlist upload) and Orchestrator -> Worker
/// (paced streaming): a run of consecutive hitlist targets.
struct TargetChunk {
  net::MeasurementId measurement = 0;
  std::uint64_t base_index = 0;
  std::vector<net::IpAddress> targets;
  /// Chunk sequence number within the stream (0-based, contiguous). The
  /// receiver acks `next expected seq`, enabling retransmission and
  /// reconnect-and-resume without duplicate probing.
  std::uint64_t seq = 0;
  bool operator==(const TargetChunk&) const = default;
};
void fields(auto& io, codec::Is<TargetChunk> auto& m) {
  io(m.measurement, m.base_index, codec::u32_list(m.targets), m.seq);
}

/// End of the hitlist stream.
struct EndOfTargets {
  net::MeasurementId measurement = 0;
  /// Sequence slot of the end marker: equals the total number of chunks,
  /// so a receiver buffering out-of-order chunks knows when it is done.
  std::uint64_t seq = 0;
  bool operator==(const EndOfTargets&) const = default;
};
void fields(auto& io, codec::Is<EndOfTargets> auto& m) {
  io(m.measurement, m.seq);
}

/// Worker -> Orchestrator -> CLI: captured results, streamed immediately
/// (workers store nothing, R10).
struct ResultBatch {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  std::vector<ProbeRecord> records;
  std::uint64_t probes_sent = 0;  // delta since the last batch
  /// Monotonic per-worker batch number (survives reconnects), letting the
  /// CLI drop duplicated control frames without discarding real records.
  std::uint64_t batch_seq = 0;
  bool operator==(const ResultBatch&) const = default;
};
void fields(auto& io, codec::Is<ResultBatch> auto& m) {
  io(m.measurement, m.worker, codec::u32_list(m.records), m.probes_sent,
     m.batch_seq);
}

/// Worker -> Orchestrator: probing and capture drained.
struct WorkerDone {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  bool operator==(const WorkerDone&) const = default;
};
void fields(auto& io, codec::Is<WorkerDone> auto& m) {
  io(m.measurement, m.worker);
}

/// Orchestrator -> CLI: all (remaining) workers finished.
struct MeasurementComplete {
  net::MeasurementId measurement = 0;
  std::uint16_t workers_participated = 0;
  std::uint16_t workers_lost = 0;
  /// RunStatus as a wire byte (kCompleted / kDegraded / kAborted).
  std::uint8_t status = static_cast<std::uint8_t>(RunStatus::kCompleted);
  bool operator==(const MeasurementComplete&) const = default;
};
void fields(auto& io, codec::Is<MeasurementComplete> auto& m) {
  io(m.measurement, m.workers_participated, m.workers_lost,
     codec::one_of(m.status, kAllRunStatuses));
}

/// CLI -> Orchestrator: abort a misconfigured measurement (R3).
struct Abort {
  net::MeasurementId measurement = 0;
  bool operator==(const Abort&) const = default;
};
void fields(auto& io, codec::Is<Abort> auto& m) { io(m.measurement); }

/// Liveness beacon (both directions on the worker link; strictly one-way —
/// a heartbeat never generates a reply, so it cannot extend the timeline).
struct Heartbeat {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  bool operator==(const Heartbeat&) const = default;
};
void fields(auto& io, codec::Is<Heartbeat> auto& m) {
  io(m.measurement, m.worker);
}

/// Cumulative ack for the sequenced hitlist stream: "I have consumed every
/// chunk with seq < next_seq". Sent Worker -> Orchestrator and
/// Orchestrator -> CLI.
struct ChunkAck {
  net::MeasurementId measurement = 0;
  net::WorkerId worker = 0;
  std::uint64_t next_seq = 0;
  bool operator==(const ChunkAck&) const = default;
};
void fields(auto& io, codec::Is<ChunkAck> auto& m) {
  io(m.measurement, m.worker, m.next_seq);
}

using Message =
    std::variant<WorkerHello, HelloAck, StartMeasurement, SubmitMeasurement,
                 TargetChunk, EndOfTargets, ResultBatch, WorkerDone,
                 MeasurementComplete, Abort, Heartbeat, ChunkAck>;

/// Serializes a message (tag = variant index + 1, then its fields).
std::vector<std::uint8_t> encode_message(const Message& msg);

/// Parses bytes back into a message. Throws DecodeError on malformed input.
Message decode_message(std::span<const std::uint8_t> bytes);

}  // namespace laces::core
