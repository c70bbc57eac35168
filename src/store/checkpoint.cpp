#include "store/checkpoint.hpp"

namespace laces::store {
namespace {

/// Distinguishes checkpoint files from segments sharing the magic.
constexpr std::uint16_t kCheckpointKind = 0xC0;

void put_count_map(ByteWriter& w,
                   const std::vector<std::pair<net::Prefix, std::uint32_t>>&
                       counts) {
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(counts.size());
  for (const auto& [prefix, n] : counts) prefixes.push_back(prefix);
  put_prefix_list(w, prefixes);
  for (const auto& [prefix, n] : counts) w.varint(n);
}

std::vector<std::pair<net::Prefix, std::uint32_t>> get_count_map(
    ByteReader& r) {
  const auto prefixes = get_prefix_list(r);
  std::vector<std::pair<net::Prefix, std::uint32_t>> out;
  out.reserve(prefixes.size());
  for (const auto& prefix : prefixes) {
    out.emplace_back(prefix, 0);
  }
  for (auto& [prefix, n] : out) n = static_cast<std::uint32_t>(r.varint());
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& cp) {
  ByteWriter w;
  w.u32(kMagic);
  w.u16(kFormatVersion);
  w.u16(kCheckpointKind);
  w.u32(cp.last_day);
  w.i64(cp.sim_time_ns);
  w.varint(cp.next_span_id);

  w.varint(cp.pipeline.next_measurement);
  w.varint(cp.pipeline.gcd_run_counter);
  put_prefix_list(w, cp.pipeline.at_list);
  put_prefix_list(w, cp.pipeline.partial);
  w.varint(cp.pipeline.canary_days);
  w.varint(cp.pipeline.canary_share_sums.size());
  for (const auto& [worker, share] : cp.pipeline.canary_share_sums) {
    w.varint(worker);
    w.f64(share);
  }

  w.varint(cp.longitudinal.days);
  w.varint(cp.longitudinal.degraded_days);
  w.varint(cp.longitudinal.anycast_total);
  w.varint(cp.longitudinal.gcd_total);
  w.varint(cp.longitudinal.anycast_every_day);
  w.varint(cp.longitudinal.gcd_every_day);
  put_count_map(w, cp.longitudinal.anycast_counts);
  put_count_map(w, cp.longitudinal.gcd_counts);

  w.varint(cp.worker_rng.size());
  for (const auto& state : cp.worker_rng) {
    for (const auto word : state) w.u64(word);
  }

  w.str(cp.run_config);

  put_sha256_footer(w);
  return w.take();
}

Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  const auto payload = checked_payload(bytes, "checkpoint");
  try {
    ByteReader r(payload);
    if (r.u32() != kMagic) throw ArchiveError("checkpoint: bad magic");
    const std::uint16_t version = r.u16();
    if (version != kFormatVersion) {
      throw ArchiveError("checkpoint: unsupported format version " +
                         std::to_string(version));
    }
    if (r.u16() != kCheckpointKind) {
      throw ArchiveError("checkpoint: not a checkpoint file");
    }

    Checkpoint cp;
    cp.last_day = r.u32();
    cp.sim_time_ns = r.i64();
    cp.next_span_id = r.varint();

    cp.pipeline.next_measurement =
        static_cast<net::MeasurementId>(r.varint());
    cp.pipeline.gcd_run_counter = r.varint();
    cp.pipeline.at_list = get_prefix_list(r);
    cp.pipeline.partial = get_prefix_list(r);
    cp.pipeline.canary_days = r.varint();
    // Each entry is a varint worker id and an f64 share.
    const std::uint64_t canary_entries = get_count(r, 9, "checkpoint canary");
    cp.pipeline.canary_share_sums.reserve(canary_entries);
    for (std::uint64_t i = 0; i < canary_entries; ++i) {
      const auto worker = static_cast<net::WorkerId>(r.varint());
      const double share = r.f64();
      cp.pipeline.canary_share_sums.emplace_back(worker, share);
    }

    cp.longitudinal.days = r.varint();
    cp.longitudinal.degraded_days = r.varint();
    cp.longitudinal.anycast_total = r.varint();
    cp.longitudinal.gcd_total = r.varint();
    cp.longitudinal.anycast_every_day = r.varint();
    cp.longitudinal.gcd_every_day = r.varint();
    cp.longitudinal.anycast_counts = get_count_map(r);
    cp.longitudinal.gcd_counts = get_count_map(r);

    const std::uint64_t workers = get_count(r, 32, "checkpoint worker RNG");
    cp.worker_rng.reserve(workers);
    for (std::uint64_t i = 0; i < workers; ++i) {
      std::array<std::uint64_t, 4> state{};
      for (auto& word : state) word = r.u64();
      cp.worker_rng.push_back(state);
    }

    cp.run_config = r.str();

    if (!r.done()) {
      throw ArchiveError("checkpoint: " + std::to_string(r.remaining()) +
                         " trailing bytes");
    }
    return cp;
  } catch (const DecodeError& e) {
    throw ArchiveError(std::string("checkpoint: ") + e.what());
  }
}

}  // namespace laces::store
