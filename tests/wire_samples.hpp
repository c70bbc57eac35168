// One non-default sample of every wire message, shared by the golden
// wire-bytes test and the codec property test.
//
// sample(Kind<T>{}) has one overload per alternative of core::Message,
// serve::Request, serve::Response and mesh::MeshMessage. samples<V>()
// instantiates it for every alternative of V, so a message added to a
// variant without a sample here fails to compile.
#pragma once

#include <cstddef>
#include <utility>
#include <variant>
#include <vector>

#include "core/messages.hpp"
#include "mesh/wire.hpp"
#include "serve/protocol.hpp"

namespace laces::wire_samples {

template <class T>
struct Kind {};

inline net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t len = 24) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), len);
}

inline net::Prefix v6(std::uint64_t hi, std::uint8_t len = 48) {
  return net::Ipv6Prefix(net::Ipv6Address(hi, 0), len);
}

// --- core::Message ---

inline core::MeasurementSpec spec() {
  core::MeasurementSpec s;
  s.id = 0xdeadbeef;
  s.protocol = net::Protocol::kUdpDns;
  s.version = net::IpVersion::kV6;
  s.mode = core::ProbeMode::kUnicast;
  s.worker_offset = SimDuration::minutes(13);
  s.targets_per_second = 1234.5;
  s.vary_payload = false;
  s.chaos = true;
  s.max_participants = 5;
  s.deadline = SimDuration::seconds(90);
  return s;
}

inline core::WorkerHello sample(Kind<core::WorkerHello>) {
  return {"ams-worker"};
}

inline core::HelloAck sample(Kind<core::HelloAck>) { return {42}; }

inline core::StartMeasurement sample(Kind<core::StartMeasurement>) {
  core::StartMeasurement m;
  m.spec = spec();
  m.participant_index = 7;
  m.participant_count = 32;
  m.anycast_source = net::Ipv6Address(0x3fff, 1);
  m.start_time = SimTime(987654321);
  m.resume_from = 17;
  return m;
}

inline core::SubmitMeasurement sample(Kind<core::SubmitMeasurement>) {
  core::SubmitMeasurement m{spec()};
  m.spec.id = 5;
  m.spec.protocol = net::Protocol::kTcp;
  m.spec.version = net::IpVersion::kV4;
  m.spec.mode = core::ProbeMode::kAnycast;
  return m;
}

inline core::TargetChunk sample(Kind<core::TargetChunk>) {
  core::TargetChunk m;
  m.measurement = 9;
  m.base_index = 512;
  m.targets = {net::Ipv4Address(1, 2, 3, 4), net::Ipv6Address(5, 6)};
  m.seq = 0xabcdef01;
  return m;
}

inline core::EndOfTargets sample(Kind<core::EndOfTargets>) { return {77, 41}; }

inline core::ResultBatch sample(Kind<core::ResultBatch>) {
  core::ProbeRecord full;
  full.target = net::Ipv4Address(9, 8, 7, 6);
  full.protocol = net::Protocol::kTcp;
  full.rx_worker = 12;
  full.tx_worker = 3;
  full.rx_time = SimTime(111);
  full.rtt = SimDuration::millis(42);
  full.txt = "site-a";
  core::ProbeRecord sparse;
  sparse.target = net::Ipv6Address(1, 2);
  sparse.protocol = net::Protocol::kUdpDns;
  sparse.rx_worker = 4;
  sparse.rx_time = SimTime(222);
  core::ResultBatch m;
  m.measurement = 3;
  m.worker = 12;
  m.records = {full, sparse};
  m.probes_sent = 4096;
  m.batch_seq = 0x1234567890ULL;
  return m;
}

inline core::WorkerDone sample(Kind<core::WorkerDone>) { return {8, 3}; }

inline core::MeasurementComplete sample(Kind<core::MeasurementComplete>) {
  return {6, 32, 2, static_cast<std::uint8_t>(core::RunStatus::kDegraded)};
}

inline core::Abort sample(Kind<core::Abort>) { return {4}; }

inline core::Heartbeat sample(Kind<core::Heartbeat>) { return {9, 21}; }

inline core::ChunkAck sample(Kind<core::ChunkAck>) { return {7, 3, 0xfeed}; }

// --- serve::Request ---

inline serve::SummaryRequest sample(Kind<serve::SummaryRequest>) {
  return {};
}

inline serve::StabilityRequest sample(Kind<serve::StabilityRequest>) {
  return {};
}

inline serve::HistoryRequest sample(Kind<serve::HistoryRequest>) {
  return {v6(0x20010db800010000ull)};
}

inline serve::IntermittentRequest sample(Kind<serve::IntermittentRequest>) {
  return {};
}

inline serve::ExportDayRequest sample(Kind<serve::ExportDayRequest>) {
  return {42};
}

inline serve::StatsRequest sample(Kind<serve::StatsRequest>) { return {}; }

inline serve::LatencyRequest sample(Kind<serve::LatencyRequest>) { return {}; }

inline serve::TraceTailRequest sample(Kind<serve::TraceTailRequest>) {
  return {64};
}

inline serve::FlightRecTailRequest sample(Kind<serve::FlightRecTailRequest>) {
  return {128};
}

inline serve::MeshStatsRequest sample(Kind<serve::MeshStatsRequest>) {
  return {};
}

// --- serve::Response ---

inline serve::ErrorResponse sample(Kind<serve::ErrorResponse>) {
  return {serve::ErrorCode::kOverloaded, "queue full", 50};
}

inline serve::SummaryResponse sample(Kind<serve::SummaryResponse>) {
  serve::SummaryResponse m;
  m.summary.days = 3;
  m.summary.degraded_days = 1;
  m.summary.first_day = 1;
  m.summary.last_day = 3;
  m.summary.records_total = 300;
  m.summary.segment_bytes = 999;
  m.summary.csv_bytes = 4000;
  m.summary.compression_ratio = 0.25;
  m.summary.anycast_daily_mean = 4.0;
  m.summary.gcd_daily_mean = 2.0;
  return m;
}

inline serve::StabilityResponse sample(Kind<serve::StabilityResponse>) {
  serve::StabilityResponse m;
  m.report.anycast_based = {3, 0, 5, 4, 4.5};
  m.report.gcd = {3, 1, 2, 1, 1.5};
  m.report.from_checkpoint = true;
  return m;
}

inline serve::HistoryResponse sample(Kind<serve::HistoryResponse>) {
  serve::HistoryResponse m;
  m.prefix = v4(10, 0, 0);
  m.days = {{1, false, true, true, false, 7, 0},
            {2, true, false, false, false, 0, 0},
            {3, false, true, true, true, 200, 4}};
  return m;
}

inline serve::IntermittentResponse sample(Kind<serve::IntermittentResponse>) {
  return {{v4(10, 0, 1), v6(0x20010db800020000ull)}, {v4(10, 0, 2)}};
}

inline serve::ExportDayResponse sample(Kind<serve::ExportDayResponse>) {
  return {7, "prefix,verdict\n10.0.0.0/24,anycast\n"};
}

inline serve::StatsResponse sample(Kind<serve::StatsResponse>) {
  serve::StatsResponse m;
  auto& s = m.stats;
  s.requests_executed = 101;
  s.requests_shed = 7;
  s.auth_failures = 3;
  s.response_cache_hits = 55;
  s.response_cache_misses = 44;
  s.response_cache_evictions = 2;
  s.response_cache_entries = 42;
  s.negative_cache_hits = 6;
  s.negative_cache_entries = 1;
  s.segment_cache_hits = 9;
  s.segment_cache_misses = 1;
  s.flightrec_recorded = 1u << 20;
  s.flightrec_overwritten = 12;
  s.workers = 4;
  s.queue_depth = 17;
  s.queue_capacity = 256;
  s.active_spans = 5;
  s.draining = true;
  return m;
}

inline serve::LatencyResponse sample(Kind<serve::LatencyResponse>) {
  return {{{"queue_wait", 1000, 1.5, 9.25, 40.0, 51.5},
           {"total", 1000, 3.0, 20.0, 90.0, 120.0}}};
}

inline serve::TraceTailResponse sample(Kind<serve::TraceTailResponse>) {
  return {{{7, 1, "census.day", 100, 900}}, 4};
}

inline serve::FlightRecTailResponse sample(
    Kind<serve::FlightRecTailResponse>) {
  serve::FlightEvent e;
  e.wall_ns = 1'700'000'000'000'000'000;
  e.sim_ns = 86'400'000'000'000;
  e.a = 42;
  e.seq = 9001;
  e.b = 17;
  e.ring = 3;
  e.code = 2;
  e.kind = 5;
  return {{e}};
}

inline serve::MeshStatsResponse sample(Kind<serve::MeshStatsResponse>) {
  serve::MeshStatsResponse m;
  m.node_id = 0x0102030405060708ull;
  m.name = "relay-a";
  m.feed_day = 12;
  m.feed_seq = 3;
  m.deltas_published = 40;
  m.deltas_forwarded = 160;
  m.deltas_dropped = 2;
  m.duplicate_deltas = 1;
  m.forwards_seen = 9;
  m.forward_dups_suppressed = 4;
  m.forwards_answered = 5;
  m.negative_cache_hits = 6;
  m.peers = {{77, "relay-b", 2, 10, 11, 12, 13}};
  m.subscriptions = {{5, "relay-b", 6, 2, 1, 11, 3, 1, 30, 1}};
  return m;
}

// --- mesh::MeshMessage ---

inline mesh::Hello sample(Kind<mesh::Hello>) {
  return {7, "origin", 1, 2, true};
}

inline mesh::Welcome sample(Kind<mesh::Welcome>) {
  return {9, "relay-9", 2, true};
}

inline mesh::Reject sample(Kind<mesh::Reject>) {
  return {serve::ErrorCode::kVersionMismatch, "no overlap"};
}

inline mesh::Forward sample(Kind<mesh::Forward>) {
  return {(7ull << 48) | 3, 7, 4, {1, 2, 3, 4}};
}

inline mesh::ForwardReply sample(Kind<mesh::ForwardReply>) {
  return {(7ull << 48) | 3, {9, 8, 7}};
}

inline mesh::Subscribe sample(Kind<mesh::Subscribe>) {
  return {5, 4, 2, {v4(10, 0, 0), v6(0x20010db800000000ull)}, true,
          mesh::Cursor{3, 1}};
}

inline mesh::SubAck sample(Kind<mesh::SubAck>) {
  return {5, true, "cursor predates the delta log"};
}

inline mesh::DeltaChunk sample(Kind<mesh::DeltaChunk>) {
  mesh::DeltaChunk m;
  m.day = 12;
  m.seq = 2;
  m.last = true;
  m.degraded = true;
  m.lost_sites = 3;
  m.canary_alarms = 1;
  m.upserts = {{v4(10, 1, 2), "10.1.2.0/24,anycast,..."},
               {v6(0x20010db8000000ffull), "v6 line"}};
  m.removals = {v4(10, 9, 9)};
  return m;
}

inline mesh::DeltaAck sample(Kind<mesh::DeltaAck>) {
  return {5, mesh::Cursor{12, 2}};
}

/// One sample per alternative of `V`, in variant-index order.
template <class V>
std::vector<V> samples() {
  return []<std::size_t... I>(std::index_sequence<I...>) {
    return std::vector<V>{V(std::in_place_index<I>,
                            sample(Kind<std::variant_alternative_t<I, V>>{}))...};
  }(std::make_index_sequence<std::variant_size_v<V>>{});
}

}  // namespace laces::wire_samples
