#include "mesh/relay.hpp"

#include <algorithm>
#include <utility>

#include "obs/flightrec.hpp"
#include "serve/json.hpp"

namespace laces::mesh {
namespace {

using serve::ErrorCode;
using serve::FrameKind;
using serve::ProtocolError;

/// Internal cursor-seq sentinel: "this day fully applied". Used when a
/// publisher attaches to an already-populated archive — the feed resumes
/// after the last archived day without knowing how it would have chunked.
constexpr std::uint32_t kDayDone = 0xffffffff;

std::vector<std::uint8_t> error_body(ErrorCode code, std::string message) {
  return serve::encode_response(
      serve::Response{serve::ErrorResponse{code, std::move(message), 0}});
}

}  // namespace

Relay::Relay(RelayConfig config, serve::Server* server,
             std::filesystem::path archive_dir)
    : config_(std::move(config)),
      server_(server),
      archive_dir_(std::move(archive_dir)) {
  if (server_) {
    conn_ = server_->connect();
    server_->set_mesh_stats_provider([this] { return stats(); });
  }
  auto& registry = obs::Registry::global();
  published_counter_ = &registry.counter("laces_mesh_deltas_published_total",
                                         {{"relay", config_.name}});
  pushed_counter_ = &registry.counter("laces_mesh_deltas_pushed_total",
                                      {{"relay", config_.name}});
  dropped_counter_ = &registry.counter("laces_mesh_deltas_dropped_total",
                                       {{"relay", config_.name}});
  forwards_counter_ = &registry.counter("laces_mesh_forwards_total",
                                        {{"relay", config_.name}});
}

Relay::~Relay() {
  // Sever every link so no peer keeps a dangling pointer to us, and
  // detach the stats provider (it captures `this`).
  std::vector<Relay*> remotes;
  {
    std::lock_guard lk(mu_);
    for (const Peer& p : peers_) remotes.push_back(p.remote);
  }
  for (Relay* remote : remotes) {
    remote->drop_peer(this);
    drop_peer(remote);
  }
  if (server_) server_->set_mesh_stats_provider({});
}

void Relay::attach_publisher(store::ArchiveWriter& writer) {
  archive_dir_ = writer.dir();
  {
    std::lock_guard lk(mu_);
    publisher_attached_ = true;
    if (!writer.manifest().entries.empty()) {
      // Reopened archive: the feed resumes after the last archived day;
      // older cursors replay from the archive, not the log.
      store::ArchiveReader reader(archive_dir_, 1);
      const std::uint32_t day = reader.manifest().last_day();
      prev_rows_ = store::render_rows(*reader.load_day(day));
      feed_started_ = true;
      latest_ = Cursor{day, kDayDone};
      log_complete_ = false;
    }
  }
  writer.set_commit_hook([this](const store::ManifestEntry&,
                                const census::DailyCensus& census,
                                std::vector<store::DeltaRow> rows) {
    publish_day(census, std::move(rows));
  });
}

// --- framing helpers ---

std::vector<std::uint8_t> Relay::mesh_frame(const MeshMessage& message) const {
  return serve::write_frame(config_.key, FrameKind::kMesh, 0, message,
                            serve::kMeshProtocolVersion);
}

std::vector<std::uint8_t> Relay::response_frame(
    std::uint64_t request_id, const std::vector<std::uint8_t>& body) const {
  return serve::encode_frame(config_.key, FrameKind::kResponse, request_id,
                             body);
}

std::optional<MeshMessage> Relay::open(
    std::span<const std::uint8_t> frame) const {
  try {
    const serve::FrameView f =
        serve::read_frame(config_.key, frame, config_.version_max);
    if (f.kind != FrameKind::kMesh) return std::nullopt;
    return decode_mesh(f.payload);
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

Relay::Peer* Relay::find_peer(Relay* remote) {
  for (Peer& p : peers_) {
    if (p.remote == remote) return &p;
  }
  return nullptr;
}

// --- handshake ---

std::vector<std::uint8_t> Relay::accept_hello(
    Relay* remote, std::span<const std::uint8_t> frame) {
  Hello hello;
  try {
    // Handshake frames are decoded at the structural maximum: version
    // *negotiation* rides in the Hello payload, so even a pinned relay
    // can read the offer and refuse it in a well-formed Reject.
    const serve::Frame f = serve::decode_frame(config_.key, frame);
    if (f.kind != FrameKind::kMesh) throw ProtocolError("mesh: not a mesh frame");
    auto message = decode_mesh(f.payload);
    auto* h = std::get_if<Hello>(&message);
    if (!h) throw ProtocolError("mesh: expected hello");
    hello = std::move(*h);
  } catch (const ProtocolError&) {
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(MeshMessage{
        Reject{ErrorCode::kBadRequest, "peer authentication failed"}});
  }
  if (hello.node_id == config_.node_id) {
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(
        MeshMessage{Reject{ErrorCode::kBadRequest, "duplicate node id"}});
  }
  const std::uint8_t version = std::min(hello.version_max, config_.version_max);
  const std::uint8_t floor = std::max(
      {hello.version_min, config_.version_min, serve::kMeshProtocolVersion});
  if (version < floor) {
    obs::FlightRecorder::global().record(
        obs::FrEvent::kPeerRejected,
        static_cast<std::uint16_t>(ErrorCode::kVersionMismatch),
        hello.node_id);
    std::lock_guard lk(mu_);
    ++frames_sent_;
    return mesh_frame(MeshMessage{Reject{
        ErrorCode::kVersionMismatch,
        "no shared protocol version at or above the mesh floor"}});
  }
  Welcome welcome;
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p) {
      peers_.emplace_back();
      p = &peers_.back();
    }
    p->remote = remote;
    p->node_id = hello.node_id;
    p->name = hello.name;
    p->version = version;
    p->has_feed = hello.has_feed;
    welcome =
        Welcome{config_.node_id, config_.name, version, has_feed_locked()};
    ++frames_sent_;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerConnected, 0,
                                       hello.node_id, version);
  return mesh_frame(MeshMessage{welcome});
}

void Relay::finish_connect(Relay* remote, const Welcome& welcome) {
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p) {
      peers_.emplace_back();
      p = &peers_.back();
    }
    p->remote = remote;
    p->node_id = welcome.node_id;
    p->name = welcome.name;
    p->version = welcome.version;
    p->has_feed = welcome.has_feed;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerConnected, 0,
                                       welcome.node_id, welcome.version);
}

void Relay::maybe_subscribe_to(Relay* remote) {
  std::vector<std::uint8_t> frame;
  std::uint64_t node = 0;
  {
    std::lock_guard lk(mu_);
    Peer* p = find_peer(remote);
    if (!p || !p->has_feed) return;
    if (publisher_attached_ || upstream_active_) return;
    node = upstream_node_ = p->node_id;
    upstream_active_ = true;
    if (upstream_sub_id_ == 0) upstream_sub_id_ = next_sub_++;
    // Resume from our cursor when we have one — the reconnection path.
    Subscribe sub{upstream_sub_id_, 0, 0, {}, feed_started_, latest_};
    frame = mesh_frame(MeshMessage{std::move(sub)});
    ++frames_sent_;
  }
  // The backlog has been replayed to us by the time the SubAck returns.
  const auto reply = open(remote->request(this, frame));
  const auto* ack = reply ? std::get_if<SubAck>(&*reply) : nullptr;
  if (ack != nullptr && ack->ok) return;
  std::lock_guard lk(mu_);
  if (upstream_node_ == node) upstream_active_ = false;  // refused
}

void Relay::drop_peer(Relay* remote) {
  std::uint64_t gone = 0;
  {
    std::lock_guard lk(mu_);
    auto it = std::find_if(peers_.begin(), peers_.end(),
                           [remote](const Peer& p) { return p.remote == remote; });
    if (it == peers_.end()) return;
    gone = it->node_id;
    peers_.erase(it);
    std::erase_if(subs_,
                  [remote](const Subscription& s) { return s.peer == remote; });
    if (upstream_active_ && upstream_node_ == gone) upstream_active_ = false;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kPeerDisconnected, 0,
                                       gone);
}

ConnectResult connect(Relay& a, Relay& b) {
  Hello hello;
  {
    std::lock_guard lk(a.mu_);
    if (Relay::Peer* existing = a.find_peer(&b)) {
      return {true, ErrorCode::kBadRequest, "already connected",
              existing->version};
    }
    hello = Hello{a.config_.node_id, a.config_.name, a.config_.version_min,
                  a.config_.version_max, a.has_feed_locked()};
    ++a.frames_sent_;
  }
  const auto response = b.accept_hello(&a, a.mesh_frame(MeshMessage{hello}));
  try {
    const serve::Frame f = serve::decode_frame(a.config_.key, response);
    auto message = decode_mesh(f.payload);
    if (auto* reject = std::get_if<Reject>(&message)) {
      obs::FlightRecorder::global().record(
          obs::FrEvent::kPeerRejected,
          static_cast<std::uint16_t>(reject->code), b.node_id());
      return {false, reject->code, reject->message, 0};
    }
    auto* welcome = std::get_if<Welcome>(&message);
    if (!welcome) throw ProtocolError("mesh: expected welcome");
    a.finish_connect(&b, *welcome);
    // Feed auto-subscription: whichever side lacks a feed follows the
    // other. Ordered after both registrations so the Subscribe frame is
    // deliverable in either direction.
    a.maybe_subscribe_to(&b);
    b.maybe_subscribe_to(&a);
    return {true, ErrorCode::kBadRequest, "", welcome->version};
  } catch (const ProtocolError&) {
    return {false, ErrorCode::kBadRequest, "peer authentication failed", 0};
  }
}

void disconnect(Relay& a, Relay& b) {
  a.drop_peer(&b);
  b.drop_peer(&a);
}

// --- delivery & dispatch ---

bool Relay::deliver(Relay* from, std::span<const std::uint8_t> frame) {
  auto message = open(frame);
  auto* chunk = message ? std::get_if<DeltaChunk>(&*message) : nullptr;
  if (chunk == nullptr) return false;
  std::lock_guard lk(mu_);
  Peer* peer = find_peer(from);
  if (!peer) return false;  // stale frame after disconnect
  handle_delta(*peer, std::move(*chunk), frame);
  return true;
}

std::vector<std::uint8_t> Relay::request(Relay* from,
                                         std::span<const std::uint8_t> frame) {
  auto message = open(frame);
  if (!message) return {};
  if (auto* fwd = std::get_if<Forward>(&*message)) {
    return handle_forward(from, std::move(*fwd));
  }
  auto* sub = std::get_if<Subscribe>(&*message);
  if (sub == nullptr) return {};
  std::lock_guard lk(mu_);
  Peer* peer = find_peer(from);
  if (!peer) return {};
  ++frames_sent_;
  return mesh_frame(MeshMessage{handle_subscribe(*peer, std::move(*sub))});
}

std::vector<std::uint8_t> Relay::handle_forward(Relay* from, Forward fwd) {
  const bool exhausted = server_ == nullptr && fwd.hops_left == 0;
  {
    std::lock_guard lk(mu_);
    Peer* peer = find_peer(from);
    if (!peer) return {};
    ++forwards_seen_;
    ++peer->forwards_received;
    ++frames_sent_;  // the ForwardReply returned below
    if (server_) ++forwards_answered_;
    if (exhausted) ++forward_dups_suppressed_;
  }
  std::vector<std::uint8_t> response;
  if (server_) {
    response = answer_locally(fwd.request);
  } else if (exhausted) {
    // Only a subscription cycle climbs this far (see the header comment).
    response = error_body(ErrorCode::kUnreachable,
                          "forward hop budget exhausted");
  } else {
    --fwd.hops_left;
    response = ask_upstream(fwd);
  }
  return mesh_frame(
      MeshMessage{ForwardReply{fwd.forward_id, std::move(response)}});
}

std::vector<std::uint8_t> Relay::ask_upstream(const Forward& fwd) {
  Relay* upstream = nullptr;
  {
    std::lock_guard lk(mu_);
    for (Peer& p : peers_) {
      if (upstream_active_ && p.node_id == upstream_node_) {
        upstream = p.remote;
        ++p.forwards_sent;
        ++frames_sent_;
      }
    }
  }
  std::optional<MeshMessage> reply;
  if (upstream != nullptr) {
    forwards_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kForwarded, 0,
                                         fwd.forward_id, fwd.hops_left);
    reply = open(upstream->request(this, mesh_frame(MeshMessage{fwd})));
  }
  if (auto* r = reply ? std::get_if<ForwardReply>(&*reply) : nullptr) {
    return std::move(r->response);
  }
  return error_body(ErrorCode::kUnreachable, "no upstream relay answered");
}

std::vector<std::uint8_t> Relay::answer_locally(
    const std::vector<std::uint8_t>& canonical) {
  auto frame =
      serve::encode_frame(config_.key, FrameKind::kRequest, 0, canonical);
  const auto response = conn_->call(std::move(frame));
  try {
    return serve::decode_frame(config_.key, response).payload;
  } catch (const ProtocolError&) {
    return error_body(ErrorCode::kBadRequest,
                      "relay could not decode local answer");
  }
}

std::vector<std::uint8_t> Relay::query(std::span<const std::uint8_t> frame) {
  serve::Frame f;
  try {
    f = serve::decode_frame(config_.key, frame);
  } catch (const ProtocolError&) {
    return response_frame(
        0, error_body(ErrorCode::kBadRequest, "bad request frame"));
  }
  if (f.kind != FrameKind::kRequest) {
    return response_frame(f.request_id, error_body(ErrorCode::kBadRequest,
                                                   "not a request frame"));
  }
  try {
    (void)serve::decode_request(f.payload);
  } catch (const ProtocolError&) {
    return response_frame(f.request_id, error_body(ErrorCode::kBadRequest,
                                                   "malformed request body"));
  }
  if (server_) {
    return conn_->call(std::vector<std::uint8_t>(frame.begin(), frame.end()));
  }
  std::uint64_t forward_id = 0;
  {
    std::lock_guard lk(mu_);
    forward_id =
        (config_.node_id << 48) | (next_forward_++ & 0xffffffffffffULL);
  }
  return response_frame(
      f.request_id, ask_upstream(Forward{forward_id, config_.node_id,
                                         kForwardHopBudget,
                                         std::move(f.payload)}));
}

// --- pub/sub ---

void Relay::append_log(DeltaChunk chunk) {
  delta_log_.push_back(std::move(chunk));
  while (delta_log_.size() > config_.delta_log_chunks) {
    delta_log_.pop_front();
    log_complete_ = false;
  }
}

std::vector<std::uint8_t> Relay::build_push_frame(
    const DeltaChunk& chunk, std::vector<std::uint8_t> storage) {
  ++push_frames_built_;
  return chunk_frame(config_.key, chunk, std::move(storage));
}

void Relay::push_to(Subscription& sub, const DeltaChunk& chunk,
                    SharedFrame& frame) {
  const Cursor c{chunk.day, chunk.seq};
  if (sub.started && c <= sub.acked) return;  // already delivered
  // A filter that keeps every row would only copy the chunk.
  std::optional<DeltaChunk> scoped;
  if (!keeps_every_row(chunk, sub.spec.family, sub.spec.prefixes)) {
    scoped = filter_chunk(chunk, sub.spec.family, sub.spec.prefixes);
  }
  ++sub.chunks_pushed;
  ++deltas_forwarded_;
  pushed_counter_->add();
  obs::FlightRecorder::global().record(obs::FrEvent::kDeltaPushed, 0,
                                       chunk.day, chunk.seq);
  bool delivered = true;
  if (sub.peer != nullptr) {
    Peer* p = find_peer(sub.peer);
    ++frames_sent_;
    if (p) ++p->deltas_sent;
    std::vector<std::uint8_t> own;  // a filter that drops rows
    if (scoped) {
      own = build_push_frame(*scoped);
    } else if (frame.bytes.empty()) {
      frame.built = build_push_frame(chunk, std::move(frame.built));
      frame.bytes = frame.built;
    }
    delivered = sub.peer->deliver(
        this, scoped ? std::span<const std::uint8_t>(own) : frame.bytes);
  } else if (sub.sink) {
    sub.sink(scoped ? *scoped : chunk);
  }
  if (delivered) {
    // In-process delivery is the ack: the subscriber applied the chunk
    // before deliver() returned, so the cursor advances durably.
    sub.started = true;
    sub.acked = c;
  } else {
    ++sub.chunks_dropped;
    ++deltas_dropped_;
    dropped_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kDeltaDropped, 0,
                                         sub.id);
  }
}

void Relay::push_chunk(const DeltaChunk& chunk,
                       std::span<const std::uint8_t> received) {
  // Priority classes flush high-priority subscribers first; ties break by
  // subscription id so the order is total and deterministic.
  std::vector<std::size_t> order(subs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t x, std::size_t y) {
    if (subs_[x].spec.priority != subs_[y].spec.priority) {
      return subs_[x].spec.priority > subs_[y].spec.priority;
    }
    return subs_[x].id < subs_[y].id;
  });
  SharedFrame frame{received, std::move(push_buffer_)};
  for (const std::size_t i : order) push_to(subs_[i], chunk, frame);
  push_buffer_ = std::move(frame.built);
}

bool Relay::replay_to(Subscription& sub) {
  if (!feed_started_) return true;  // nothing to replay yet
  const bool have_cursor = sub.started;
  const Cursor cursor = sub.acked;  // meaningful only when have_cursor
  if (have_cursor && !(cursor < latest_)) return true;  // already caught up
  bool log_covers = log_complete_;
  if (!log_covers && have_cursor && !delta_log_.empty()) {
    const Cursor front{delta_log_.front().day, delta_log_.front().seq};
    log_covers = front <= cursor;
  }
  if (log_covers) {
    for (const DeltaChunk& chunk : delta_log_) {
      SharedFrame frame;
      push_to(sub, chunk, frame);
    }
    return true;
  }
  if (archive_dir_.empty()) return false;  // pure relay, log evicted
  // Origin fallback: recompute the feed from the archive itself. Runs
  // under mu_ — subscription replay serializes against publishing, which
  // is exactly what keeps the subscriber's chunk order exact.
  store::ArchiveReader reader(archive_dir_, 2);
  const auto& entries = reader.manifest().entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint32_t day = entries[i].day;
    // Days before the cursor's are skipped unread; push_to drops the
    // cursor day's chunks the subscriber already has.
    if (have_cursor && day < cursor.day) continue;
    const auto prev = i > 0 ? reader.load_day(entries[i - 1].day) : nullptr;
    const auto cur = reader.load_day(day);
    const auto chunks = chunk_delta(store::compute_day_delta(prev.get(), *cur),
                                    config_.max_rows_per_chunk);
    for (const DeltaChunk& chunk : chunks) {
      SharedFrame frame;
      push_to(sub, chunk, frame);
    }
  }
  return true;
}

SubAck Relay::handle_subscribe(Peer& from, Subscribe sub) {
  const std::uint64_t id = sub.subscription_id;
  if (upstream_active_ && from.node_id == upstream_node_) {
    // Our own upstream subscribing to us would close a feed cycle (and a
    // lock cycle with it) — the subscription graph must stay a tree.
    return SubAck{id, false, "subscription loop refused"};
  }
  Subscription* s = nullptr;
  for (Subscription& existing : subs_) {
    if (existing.peer == from.remote && existing.id == id) {
      s = &existing;
      break;
    }
  }
  if (s == nullptr) {
    subs_.emplace_back();
    s = &subs_.back();
    s->id = sub.subscription_id;
    s->peer = from.remote;
  }
  s->subscriber = from.name;
  s->spec = SubscriptionSpec{sub.family, sub.priority, std::move(sub.prefixes)};
  s->started = sub.resume;
  if (sub.resume) s->acked = sub.cursor;
  if (replay_to(*s)) return SubAck{id, true, ""};
  std::erase_if(subs_, [&](const Subscription& x) {
    return x.peer == from.remote && x.id == id;
  });
  return SubAck{id, false, "cursor predates the delta log"};
}

void Relay::handle_delta(Peer& from, DeltaChunk chunk,
                         std::span<const std::uint8_t> frame) {
  ++from.deltas_received;
  const Cursor c{chunk.day, chunk.seq};
  if (feed_started_ && c <= latest_) {
    // At-or-below our cursor: a replay overlap, still acked by deliver()
    // so the upstream cursor advances.
    ++duplicate_deltas_;
    return;
  }
  feed_started_ = true;
  latest_ = c;
  push_chunk(chunk, frame);  // fan through to our own subscribers
  if (chunk.last && server_ != nullptr) {
    // A completed day changes every longitudinal answer and un-falsifies
    // cached unknown-day errors.
    server_->cache_mut().clear();
  }
  append_log(std::move(chunk));
}

void Relay::publish_day(const census::DailyCensus& census,
                        std::vector<store::DeltaRow> rows) {
  // Diff outside the lock: prev_rows_ is only ever touched by the
  // (single) appending thread, per ArchiveWriter's append discipline.
  auto chunks =
      chunk_delta(store::diff_rows(prev_rows_, census, rows),
                  config_.max_rows_per_chunk);
  prev_rows_ = std::move(rows);
  std::lock_guard lk(mu_);
  for (DeltaChunk& chunk : chunks) {
    feed_started_ = true;
    latest_ = Cursor{chunk.day, chunk.seq};
    ++deltas_published_;
    published_counter_->add();
    obs::FlightRecorder::global().record(obs::FrEvent::kDeltaPublished, 0,
                                         chunk.day, chunk.seq);
    push_chunk(chunk);
    append_log(std::move(chunk));
  }
  if (server_ != nullptr) server_->cache_mut().clear();
}

std::uint64_t Relay::subscribe_local(
    const SubscriptionSpec& spec, std::function<void(const DeltaChunk&)> sink) {
  std::lock_guard lk(mu_);
  subs_.emplace_back();
  Subscription& s = subs_.back();
  s.id = next_sub_++;
  s.subscriber = "local";
  s.spec = spec;
  s.sink = std::move(sink);
  replay_to(s);
  return s.id;
}

void Relay::unsubscribe_local(std::uint64_t subscription_id) {
  std::lock_guard lk(mu_);
  std::erase_if(subs_, [subscription_id](const Subscription& s) {
    return s.peer == nullptr && s.id == subscription_id;
  });
}

// --- introspection ---

bool Relay::has_feed() const {
  std::lock_guard lk(mu_);
  return publisher_attached_ || upstream_active_;
}

Cursor Relay::feed_cursor() const {
  std::lock_guard lk(mu_);
  return latest_;
}

std::uint64_t Relay::frames_sent() const {
  std::lock_guard lk(mu_);
  return frames_sent_;
}

std::uint64_t Relay::push_frames_built() const {
  std::lock_guard lk(mu_);
  return push_frames_built_;
}

serve::MeshStatsResponse Relay::stats() const {
  std::lock_guard lk(mu_);
  serve::MeshStatsResponse s;
  s.node_id = config_.node_id;
  s.name = config_.name;
  if (feed_started_) {
    s.feed_day = latest_.day;
    s.feed_seq = latest_.seq == kDayDone ? 0 : latest_.seq;
  }
  s.deltas_published = deltas_published_;
  s.deltas_forwarded = deltas_forwarded_;
  s.deltas_dropped = deltas_dropped_;
  s.duplicate_deltas = duplicate_deltas_;
  s.forwards_seen = forwards_seen_;
  s.forward_dups_suppressed = forward_dups_suppressed_;
  s.forwards_answered = forwards_answered_;
  s.negative_cache_hits = server_ != nullptr ? server_->cache().negative_hits() : 0;
  for (const Peer& p : peers_) {
    serve::MeshPeerInfo info;
    info.node_id = p.node_id;
    info.name = p.name;
    info.version = p.version;
    info.forwards_sent = p.forwards_sent;
    info.forwards_received = p.forwards_received;
    info.deltas_sent = p.deltas_sent;
    info.deltas_received = p.deltas_received;
    s.peers.push_back(std::move(info));
  }
  for (const Subscription& sub : subs_) {
    serve::MeshSubscriptionInfo info;
    info.id = sub.id;
    info.subscriber = sub.subscriber;
    info.family = sub.spec.family;
    info.priority = sub.spec.priority;
    info.prefix_count = static_cast<std::uint32_t>(sub.spec.prefixes.size());
    if (sub.started) {
      info.acked_day = sub.acked.day;
      info.acked_seq = sub.acked.seq;
    }
    if (feed_started_) {
      const std::uint32_t base = sub.started ? sub.acked.day : 0;
      info.lag_days = latest_.day > base ? latest_.day - base : 0;
    }
    info.chunks_pushed = sub.chunks_pushed;
    info.chunks_dropped = sub.chunks_dropped;
    s.subscriptions.push_back(std::move(info));
  }
  return s;
}

// --- CensusFollower ---

CensusFollower::CensusFollower(Relay& relay, SubscriptionSpec spec)
    : relay_(relay) {
  sub_id_ = relay_.subscribe_local(spec, [this](const DeltaChunk& chunk) {
    std::lock_guard lk(mu_);
    // The relay hands each (day, seq) over once, in order.
    cursor_ = Cursor{chunk.day, chunk.seq};
    follower_.apply(chunk);
    if (chunk.last) days_[chunk.day] = follower_.render();
  });
}

CensusFollower::~CensusFollower() { relay_.unsubscribe_local(sub_id_); }

bool CensusFollower::has_day(std::uint32_t day) const {
  std::lock_guard lk(mu_);
  return days_.contains(day);
}

std::string CensusFollower::day_csv(std::uint32_t day) const {
  std::lock_guard lk(mu_);
  return days_.at(day);
}

std::string CensusFollower::day_json(std::uint32_t day) const {
  return serve::json_response(
      serve::Response{serve::ExportDayResponse{day, day_csv(day)}});
}

std::size_t CensusFollower::days() const {
  std::lock_guard lk(mu_);
  return days_.size();
}

Cursor CensusFollower::cursor() const {
  std::lock_guard lk(mu_);
  return cursor_;
}

}  // namespace laces::mesh
