// Relay: one node of the peered census mesh.
//
// A relay speaks the authenticated mesh plane (mesh/wire.hpp) to its
// peers and the v1 data plane to clients. Three roles compose in one
// class, each optional:
//
//   origin      attach_publisher() hangs the relay off an ArchiveWriter's
//               day-commit hook. The hook hands over the publication rows
//               the commit rendered once (store::render_rows); the origin
//               merges them with the previous day's rows, which it keeps
//               as its diff base (store::diff_rows), moves the changed
//               rows into chunks and pushes those to subscribers. Attached
//               to an archive that already holds days, it renders the last
//               archived day's rows once as its first diff base. The
//               origin replays arbitrarily old cursors from the archive
//               itself (store::compute_day_delta per archived day).
//   server      a co-located serve::Server answers client and forwarded
//               queries from its cache or archive, and the relay registers
//               itself as the server's MeshStats provider. Day commits
//               clear the server's response cache (positive and negative)
//               — a new day changes summary/stability answers and
//               un-falsifies cached unknown-day errors.
//   relay       everything else: asks its feed upstream to answer client
//               queries, re-publishes its upstream feed to downstream
//               subscribers from a bounded in-memory delta log, and keeps
//               per-peer / per-subscription counters for `laces stat`.
//
// The mesh has one routing structure: the subscription tree. A feed-less
// relay subscribes to the first peer that has a feed and keeps that
// single upstream. Deltas flow down the tree edges; queries flow up them
// until a relay with a server answers.
//
// Transport is in-process: peers hold pointers to each other and hand
// over signed frames by direct call. Two delivery disciplines coexist:
//
//   down        deliver(): a delta push calls the subscriber's deliver()
//               while holding the pusher's lock, so every subscriber sees
//               its feed in exact (day, seq) order and a true return IS
//               the ack (the publisher advances the subscription cursor on
//               it — no ack frame can be lost or reordered). The lock
//               chain follows tree edges parent -> child only. A chunk's
//               frame is written once: the origin builds it on first need
//               and hands the same bytes to every peer that gets the chunk
//               whole (no filter, or one that drops no row), and a relay
//               passes the bytes it received on to such peers unchanged.
//               That is valid because a push frame is request_id 0 at
//               kMeshProtocolVersion under the one key the handshake
//               forces on every link, so re-writing it would give the
//               same bytes. A relay forwards only a frame it verified and
//               decoded, never a duplicate, and only within the deliver()
//               call that lent it the bytes; its replay log keeps decoded
//               chunks. A peer whose filter drops rows gets its own frame.
//   up          request(): a Forward or Subscribe is a call whose return
//               value is the ForwardReply or SubAck, as accept_hello()
//               returns Welcome or Reject. The caller holds no lock while
//               it waits. A Forward's callee locks only to count; a
//               Subscribe's callee replays the backlog down to the caller
//               under its own lock, parent -> child like any push.
//
// Cyclic meshes: peering may form any graph, but subscriptions are meant
// to form a tree. On a cycle a push would deadlock on its own lock chain
// and a query would circle. A relay keeps one upstream and refuses a
// Subscribe from that upstream, which rules out two-relay cycles. Longer
// cycles can still form when a subtree loses its upstream and re-peers
// inside itself, so a query carries a hop budget (kForwardHopBudget) and
// such a cycle answers it with kUnreachable.
//
// Invariants the tests pin:
//   - a subscriber that joined at day 0 and applied every chunk renders
//     any completed day byte-identically to census::write_census;
//   - disconnect/reconnect resumes from the subscriber's cursor with no
//     duplicate and no lost chunk (dedup is (day, seq) <= latest);
//   - every query is answered exactly once — one call goes up per hop,
//     one return comes down — for 2 mesh frames per hop.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mesh/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "store/delta.hpp"

namespace laces::mesh {

struct RelayConfig {
  /// Mesh-unique node id; also the high bits of forward ids.
  std::uint64_t node_id = 1;
  std::string name = "relay";
  /// HMAC key for both planes; peers and clients must share it.
  std::string key = "laces-serve";
  /// Advertised protocol range. Pinning version_max below
  /// kMeshProtocolVersion makes every handshake fail with a typed
  /// kVersionMismatch — the version-skew regime in relay form.
  std::uint8_t version_min = serve::kProtocolVersionMin;
  std::uint8_t version_max = serve::kProtocolVersionMax;
  /// Rows (upserts + removals) per delta chunk.
  std::size_t max_rows_per_chunk = 2048;
  /// Bounded replay log (chunks). A cursor older than the log resorts to
  /// the archive (origin) or a failed SubAck (pure relay).
  std::size_t delta_log_chunks = 4096;
};

/// Hops a client query's Forward may climb: it starts here and each relay
/// that passes it up spends one. A query from depth d of a tree spends
/// fewer than d, so the budget only binds on a subscription cycle (see
/// the header). 255 is the most the wire's hops_left byte holds.
inline constexpr std::uint8_t kForwardHopBudget = 255;

/// Handshake outcome of connect().
struct ConnectResult {
  bool ok = false;
  serve::ErrorCode code = serve::ErrorCode::kBadRequest;
  std::string message;
  std::uint8_t version = 0;  // negotiated frame version when ok
};

/// Local subscription filter (the in-process form of wire::Subscribe).
struct SubscriptionSpec {
  std::uint8_t family = 0;  // 0 = both, 4, 6
  std::uint8_t priority = 0;
  std::vector<net::Prefix> prefixes;  // empty = all
};

class Relay {
 public:
  /// `server` (nullable) answers queries locally; `archive_dir` (empty =
  /// none) enables archive replay for cursors older than the delta log.
  Relay(RelayConfig config, serve::Server* server = nullptr,
        std::filesystem::path archive_dir = {});
  ~Relay();

  Relay(const Relay&) = delete;
  Relay& operator=(const Relay&) = delete;

  /// Makes this relay the feed origin: every ArchiveWriter::append()
  /// publishes the day's delta to subscribers, and cursors older than the
  /// delta log replay from the writer's archive. Call before connecting
  /// peers (feed advertisement rides the handshake). The hook runs on
  /// the appending thread.
  void attach_publisher(store::ArchiveWriter& writer);

  /// Client entry point: a signed request frame in, a signed response
  /// frame out. Answered by the co-located server when there is one,
  /// otherwise by the feed upstream (which asks its own, and so on up the
  /// tree). No upstream, or none that can answer, -> a typed kUnreachable
  /// error frame, returned as soon as the walk ends; there is no timeout.
  std::vector<std::uint8_t> query(std::span<const std::uint8_t> frame);

  /// Registers an in-process subscriber. `sink` is invoked under the
  /// relay lock (it must not call back into any Relay) for every
  /// filtered chunk, in exact feed order, starting with a replay of the
  /// feed from its beginning. Returns the subscription id.
  std::uint64_t subscribe_local(const SubscriptionSpec& spec,
                                std::function<void(const DeltaChunk&)> sink);
  void unsubscribe_local(std::uint64_t subscription_id);

  /// Live per-peer / per-subscription snapshot (the MeshStatsResponse a
  /// co-located server answers in-band). Thread-safe.
  serve::MeshStatsResponse stats() const;

  const RelayConfig& config() const { return config_; }
  std::uint64_t node_id() const { return config_.node_id; }
  const std::string& name() const { return config_.name; }

  /// True when this relay originates or relays a delta feed.
  bool has_feed() const;
  /// Newest feed position this relay has applied (meaningless until the
  /// first chunk).
  Cursor feed_cursor() const;
  /// Total kMesh frames this relay has sent, replies included (a query
  /// costs 2 per hop of its upstream walk; test_mesh_relay counts them).
  std::uint64_t frames_sent() const;
  /// DeltaChunk frames this relay has written for peer subscribers: one
  /// per chunk for all peers that get it whole, none when it forwards the
  /// frame it received, plus one per peer whose filter drops rows.
  std::uint64_t push_frames_built() const;

  /// Peer-to-peer transport, downward: `from` pushes one signed
  /// DeltaChunk frame. True means applied (or a duplicate) — the ack.
  /// False means dropped: unknown peer, undecodable, not a DeltaChunk.
  /// Public only because peers call it; not an API for clients.
  bool deliver(Relay* from, std::span<const std::uint8_t> frame);
  /// Peer-to-peer transport, upward: `from` sends one signed Forward or
  /// Subscribe frame; the return value is the signed ForwardReply or
  /// SubAck. Empty when dropped (unknown peer, undecodable, other kind).
  std::vector<std::uint8_t> request(Relay* from,
                                    std::span<const std::uint8_t> frame);

  friend ConnectResult connect(Relay& a, Relay& b);
  friend void disconnect(Relay& a, Relay& b);

 private:
  struct Peer {
    Relay* remote = nullptr;
    std::uint64_t node_id = 0;
    std::string name;
    std::uint8_t version = 0;
    bool has_feed = false;
    std::uint64_t forwards_sent = 0;
    std::uint64_t forwards_received = 0;
    std::uint64_t deltas_sent = 0;
    std::uint64_t deltas_received = 0;
  };

  struct Subscription {
    std::uint64_t id = 0;
    Relay* peer = nullptr;  // nullptr = local sink
    std::string subscriber;
    SubscriptionSpec spec;
    bool started = false;  // acked is meaningful
    Cursor acked;
    std::uint64_t chunks_pushed = 0;
    std::uint64_t chunks_dropped = 0;
    std::function<void(const DeltaChunk&)> sink;
  };

  /// One chunk's frame, shared by every peer subscription that gets the
  /// chunk whole: the verified bytes this relay received, else built from
  /// the chunk on first need. Lives no longer than the push.
  struct SharedFrame {
    std::span<const std::uint8_t> bytes;  // empty until received or built
    std::vector<std::uint8_t> built;
  };

  /// Handshake acceptor (responder side). Returns the encoded Welcome or
  /// Reject frame.
  std::vector<std::uint8_t> accept_hello(Relay* remote,
                                         std::span<const std::uint8_t> frame);
  void finish_connect(Relay* remote, const Welcome& welcome);
  /// Subscribes to `remote`'s feed if we lack one (initial connect and
  /// reconnection resume share this path).
  void maybe_subscribe_to(Relay* remote);
  void drop_peer(Relay* remote);

  /// Decodes a signed peer frame; nullopt when it is not a valid kMesh
  /// frame under our key.
  std::optional<MeshMessage> open(std::span<const std::uint8_t> frame) const;

  /// Answers a peer's Forward: from the co-located server, else by
  /// spending one hop to ask our upstream (kUnreachable once none is
  /// left). Runs without mu_ held.
  std::vector<std::uint8_t> handle_forward(Relay* from, Forward fwd);
  /// Sends `fwd` to the feed upstream and returns its canonical response
  /// body, or a kUnreachable error body when no upstream answers. Runs
  /// without mu_ held (see "up" in the header comment).
  std::vector<std::uint8_t> ask_upstream(const Forward& fwd);
  /// Pub/sub handlers; run with mu_ held. A subscribe replays the
  /// backlog down to the subscriber before its SubAck returns.
  SubAck handle_subscribe(Peer& from, Subscribe sub);
  /// Applies, fans out and logs one chunk, which arrived as the verified
  /// `frame`; a duplicate is only counted.
  void handle_delta(Peer& from, DeltaChunk chunk,
                    std::span<const std::uint8_t> frame);

  /// Commit-hook body: diff `rows` against the previous day's, keep them
  /// as the next diff base, chunk, fan out, log.
  void publish_day(const census::DailyCensus& census,
                   std::vector<store::DeltaRow> rows);
  /// Fans one chunk to every subscription (priority desc, id asc) with
  /// per-subscription filtering; synchronous, mu_ held. `received` is
  /// the chunk's verified frame when it came from a peer, else empty.
  void push_chunk(const DeltaChunk& chunk,
                  std::span<const std::uint8_t> received = {});
  /// Pushes chunks after `sub.acked` (or the whole feed) to one
  /// subscription, from the log or (origin) the archive; synchronous,
  /// mu_ held. Returns false when the cursor predates both.
  bool replay_to(Subscription& sub);
  /// One filtered chunk to one subscription: one whose filter keeps every
  /// row gets `chunk` itself and, if a peer, `frame`; synchronous, mu_
  /// held.
  void push_to(Subscription& sub, const DeltaChunk& chunk, SharedFrame& frame);
  /// chunk_frame under our key in `storage`, counted in push_frames_built_.
  std::vector<std::uint8_t> build_push_frame(
      const DeltaChunk& chunk, std::vector<std::uint8_t> storage = {});
  void append_log(DeltaChunk chunk);

  /// Answers a forwarded canonical request body via the local server.
  std::vector<std::uint8_t> answer_locally(
      const std::vector<std::uint8_t>& canonical);

  std::vector<std::uint8_t> mesh_frame(const MeshMessage& message) const;
  std::vector<std::uint8_t> response_frame(
      std::uint64_t request_id, const std::vector<std::uint8_t>& body) const;
  Peer* find_peer(Relay* remote);
  bool has_feed_locked() const {
    return publisher_attached_ || upstream_active_;
  }

  RelayConfig config_;
  serve::Server* server_;
  std::filesystem::path archive_dir_;
  std::shared_ptr<serve::Connection> conn_;  // local server handle

  mutable std::mutex mu_;
  std::vector<Peer> peers_;
  std::vector<Subscription> subs_;

  // Feed state.
  bool publisher_attached_ = false;
  bool feed_started_ = false;  // latest_ is meaningful
  Cursor latest_;              // newest applied/published position
  std::deque<DeltaChunk> delta_log_;  // bounded replay window
  bool log_complete_ = true;   // log still holds the feed from its start
  /// Origin diff base: the last committed day's publication rows. Only
  /// the appending thread touches it (ArchiveWriter's append discipline).
  std::vector<store::DeltaRow> prev_rows_;
  /// The shared frame's buffer, kept from push to push. A commit's frame
  /// is ~0.5 MB: freeing that much each commit lets the allocator hand
  /// the top of the heap back, and the next commit faults it in again.
  std::vector<std::uint8_t> push_buffer_;
  std::uint64_t upstream_node_ = 0;  // whom we subscribe to (0 = nobody yet)
  bool upstream_active_ = false;
  std::uint64_t upstream_sub_id_ = 0;

  std::uint64_t next_forward_ = 1;
  std::uint64_t next_sub_ = 1;

  // Counters (mirrored into MeshStatsResponse).
  std::uint64_t deltas_published_ = 0;
  std::uint64_t deltas_forwarded_ = 0;
  std::uint64_t deltas_dropped_ = 0;
  std::uint64_t duplicate_deltas_ = 0;
  std::uint64_t forwards_seen_ = 0;
  std::uint64_t forward_dups_suppressed_ = 0;  // refused at the hop budget
  std::uint64_t forwards_answered_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t push_frames_built_ = 0;

  obs::Counter* published_counter_ = nullptr;
  obs::Counter* pushed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* forwards_counter_ = nullptr;
};

/// Bidirectional handshake: `a` sends Hello, `b` answers Welcome or a
/// typed Reject (kVersionMismatch when the version ranges don't overlap
/// at or above the mesh floor; kBadRequest when authentication fails or
/// both sides have one node id, as when `a` and `b` are the same relay).
/// On success each side records the peer, and a feed-less side
/// auto-subscribes to the other's feed — resuming from its cursor when
/// this is a reconnection.
ConnectResult connect(Relay& a, Relay& b);

/// Severs the link (both directions) and drops b's subscriptions at a and
/// vice versa. Subscriber-side cursors survive for resumption.
void disconnect(Relay& a, Relay& b);

/// A leaf subscriber: applies a relay's census feed through a
/// store::DeltaFollower and snapshots every completed day's publication
/// bytes — the mesh-side half of the byte-identity contract.
class CensusFollower {
 public:
  explicit CensusFollower(Relay& relay, SubscriptionSpec spec = {});
  ~CensusFollower();

  bool has_day(std::uint32_t day) const;
  /// Publication CSV of a completed day (throws if unseen).
  std::string day_csv(std::uint32_t day) const;
  /// The day's CSV wrapped exactly like a served ExportDayResponse —
  /// byte-identical to `laces query --json export-day`.
  std::string day_json(std::uint32_t day) const;
  std::size_t days() const;
  Cursor cursor() const;

 private:
  Relay& relay_;
  std::uint64_t sub_id_ = 0;
  mutable std::mutex mu_;
  Cursor cursor_;
  store::DeltaFollower follower_;
  std::map<std::uint32_t, std::string> days_;
};

}  // namespace laces::mesh
