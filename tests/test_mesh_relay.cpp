// Relay plane: peer handshake with per-peer authentication and version
// negotiation (the scenario DSL's version-skew regime picks the pinned
// node), typed unreachability, and tree routing: a query climbs the
// subscription tree to the server and is answered exactly once for two
// mesh frames per hop, on a randomized cyclic peering graph, along a long
// chain, and — as a typed refusal — inside a stranded subscription ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mesh/relay.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"

namespace laces::mesh {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("laces_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

net::Prefix v4(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return net::Ipv4Prefix(net::Ipv4Address(a, b, c, 0), 24);
}

census::DailyCensus make_day(std::uint32_t day, std::uint32_t spread = 4) {
  census::DailyCensus census;
  census.day = day;
  census.anycast_probes_sent = 1000 + day;
  for (std::uint32_t i = 0; i < spread; ++i) {
    census::PrefixRecord rec;
    rec.prefix = v4(10, 0, static_cast<std::uint8_t>(i));
    rec.anycast_based[net::Protocol::kIcmp] = {core::Verdict::kAnycast,
                                               3 + (day + i) % 4};
    census.anycast_targets.push_back(rec.prefix);
    census.records.emplace(rec.prefix, rec);
  }
  return census;
}

fs::path build_archive(const std::string& name, std::uint32_t days) {
  const auto dir = fresh_dir(name);
  store::ArchiveWriter writer(dir);
  for (std::uint32_t day = 1; day <= days; ++day) {
    writer.append(make_day(day));
  }
  return dir;
}

RelayConfig relay_config(std::uint64_t node_id) {
  RelayConfig config;
  config.node_id = node_id;
  config.name = "relay-" + std::to_string(node_id);
  return config;
}

std::vector<std::uint8_t> summary_frame(const std::string& key,
                                        std::uint64_t id) {
  return serve::encode_frame(
      key, serve::FrameKind::kRequest, id,
      serve::encode_request(serve::Request{serve::SummaryRequest{}}));
}

serve::Response unwrap(const std::string& key,
                       const std::vector<std::uint8_t>& frame) {
  return serve::decode_response(serve::decode_frame(key, frame).payload);
}

/// The error code of a response, or nullopt when it is not an error.
std::optional<serve::ErrorCode> error_code(const serve::Response& response) {
  const auto* error = std::get_if<serve::ErrorResponse>(&response);
  if (error == nullptr) return std::nullopt;
  return error->code;
}

std::uint64_t total_frames(const std::vector<std::unique_ptr<Relay>>& relays) {
  std::uint64_t total = 0;
  for (const auto& relay : relays) total += relay->frames_sent();
  return total;
}

/// A two-day archive behind a server, with a publisher relay (node 1,
/// the only server) attached to its writer.
struct Origin {
  explicit Origin(const std::string& name)
      : dir(fresh_dir(name)), writer(dir) {
    writer.append(make_day(1));
    writer.append(make_day(2));
    reader = std::make_unique<store::ArchiveReader>(dir);
    serve::ServerConfig server_config;
    server_config.threads = 2;
    server = std::make_unique<serve::Server>(*reader, server_config);
    relay = std::make_unique<Relay>(relay_config(1), server.get(), dir);
    relay->attach_publisher(writer);
  }
  ~Origin() { server->drain(); }

  fs::path dir;
  store::ArchiveWriter writer;
  std::unique_ptr<store::ArchiveReader> reader;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Relay> relay;  // declared last: detaches first
};

TEST(MeshRelay, HandshakeNegotiatesVersionAndRecordsPeers) {
  Relay a(relay_config(1));
  Relay b(relay_config(2));
  const auto result = connect(a, b);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(result.version, serve::kMeshProtocolVersion);

  const auto sa = a.stats();
  ASSERT_EQ(sa.peers.size(), 1u);
  EXPECT_EQ(sa.peers[0].node_id, 2u);
  EXPECT_EQ(sa.peers[0].name, "relay-2");
  EXPECT_EQ(sa.peers[0].version, serve::kMeshProtocolVersion);
  ASSERT_EQ(b.stats().peers.size(), 1u);
  EXPECT_EQ(b.stats().peers[0].node_id, 1u);

  // Reconnecting an already-connected pair is a no-op success.
  EXPECT_TRUE(connect(a, b).ok);
  EXPECT_EQ(a.stats().peers.size(), 1u);

  disconnect(a, b);
  EXPECT_TRUE(a.stats().peers.empty());
  EXPECT_TRUE(b.stats().peers.empty());
  disconnect(a, b);  // already apart: a no-op

  // A relay cannot peer with itself, nor with another that has its id.
  Relay twin(relay_config(1));
  for (Relay* other : {&a, &twin}) {
    const auto refused = connect(a, *other);
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.code, serve::ErrorCode::kBadRequest);
  }
  EXPECT_TRUE(a.stats().peers.empty());
  EXPECT_TRUE(twin.stats().peers.empty());
}

TEST(MeshRelay, RejectsPeerWithWrongKeyTyped) {
  Relay a(relay_config(1));
  auto config = relay_config(2);
  config.key = "some-other-key";
  Relay b(config);
  const auto result = connect(a, b);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.code, serve::ErrorCode::kBadRequest);
  EXPECT_NE(result.message.find("authentication"), std::string::npos);
  EXPECT_TRUE(a.stats().peers.empty());
  EXPECT_TRUE(b.stats().peers.empty());
}

TEST(MeshRelay, VersionSkewRefusedWithTypedMismatch) {
  // The scenario DSL's version-skew regime nominates the old-firmware
  // node; the mesh translation of "cannot speak protocol X" is a pinned
  // version_max below the mesh floor.
  const auto scenario =
      scenario::Scenario::parse("skew@0s:site=1,proto=icmp+dns", 9);
  ASSERT_EQ(scenario.regimes.size(), 1u);
  const auto& regime = scenario.regimes.front();
  ASSERT_EQ(regime.kind, scenario::RegimeKind::kSkew);
  const auto pinned_site = static_cast<std::uint64_t>(regime.site);

  std::vector<std::unique_ptr<Relay>> relays;
  for (std::uint64_t node = 0; node < 3; ++node) {
    auto config = relay_config(node + 1);
    if (node == pinned_site) {
      config.version_max = serve::kProtocolVersionMin;  // pre-mesh firmware
    }
    relays.push_back(std::make_unique<Relay>(config));
  }

  // Both directions refuse with the typed code — and return (no hang).
  for (std::uint64_t node = 0; node < 3; ++node) {
    if (node == pinned_site) continue;
    const auto forward = connect(*relays[pinned_site], *relays[node]);
    EXPECT_FALSE(forward.ok);
    EXPECT_EQ(forward.code, serve::ErrorCode::kVersionMismatch);
    const auto backward = connect(*relays[node], *relays[pinned_site]);
    EXPECT_FALSE(backward.ok);
    EXPECT_EQ(backward.code, serve::ErrorCode::kVersionMismatch);
    EXPECT_TRUE(relays[node]->stats().peers.empty());
  }
  EXPECT_TRUE(relays[pinned_site]->stats().peers.empty());

  // Modern nodes still interconnect.
  std::vector<std::uint64_t> modern;
  for (std::uint64_t node = 0; node < 3; ++node) {
    if (node != pinned_site) modern.push_back(node);
  }
  EXPECT_TRUE(connect(*relays[modern[0]], *relays[modern[1]]).ok);
}

TEST(MeshRelay, UnreachableIsTypedNotAHang) {
  const auto config = relay_config(1);
  Relay lonely(config);
  // No peers at all: immediate typed refusal.
  EXPECT_EQ(error_code(unwrap(config.key,
                              lonely.query(summary_frame(config.key, 1)))),
            serve::ErrorCode::kUnreachable);

  // Peered, but neither side has a feed, so there is no upstream to ask:
  // the same typed refusal, at once. No Forward leaves the relay, so
  // there is nothing to wait for.
  Relay deaf(relay_config(2));
  ASSERT_TRUE(connect(lonely, deaf).ok);
  const auto frames_before = lonely.frames_sent();
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_EQ(error_code(unwrap(config.key,
                              lonely.query(summary_frame(config.key, 2)))),
            serve::ErrorCode::kUnreachable);
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(200));
  EXPECT_EQ(lonely.frames_sent(), frames_before);
  EXPECT_EQ(deaf.stats().forwards_seen, 0u);

  // An upstream that has no server and no upstream of its own refuses
  // in its ForwardReply, and the refusal comes back typed.
  const auto dir = build_archive("mesh_unreachable", 1);
  store::ArchiveWriter writer(dir);
  Relay publisher(relay_config(3), nullptr, dir);
  publisher.attach_publisher(writer);
  Relay follower(relay_config(4));
  ASSERT_TRUE(connect(publisher, follower).ok);
  ASSERT_TRUE(follower.has_feed());
  EXPECT_EQ(error_code(unwrap(config.key,
                              follower.query(summary_frame(config.key, 3)))),
            serve::ErrorCode::kUnreachable);
  EXPECT_EQ(publisher.stats().forwards_seen, 1u);
  EXPECT_EQ(publisher.stats().forwards_answered, 0u);

  // Malformed client input — a frame that fails authentication, a frame
  // that is not a request, a request body that does not decode: typed
  // bad-request, not a forward.
  const std::vector<std::uint8_t> junk_body{0xff};
  const std::vector<std::vector<std::uint8_t>> malformed = {
      {1, 2, 3},
      serve::encode_frame(config.key, serve::FrameKind::kResponse, 4,
                          junk_body),
      serve::encode_frame(config.key, serve::FrameKind::kRequest, 5,
                          junk_body)};
  for (const auto& frame : malformed) {
    EXPECT_EQ(error_code(unwrap(config.key, follower.query(frame))),
              serve::ErrorCode::kBadRequest);
  }
  EXPECT_EQ(publisher.stats().forwards_seen, 1u);
}

TEST(MeshRelay, ServerKeyMismatchAnswersTypedBadRequest) {
  // The origin's server signs with a key its relay does not share: the
  // relay cannot read the answer, and says so in a typed error instead
  // of passing on bytes the client cannot verify.
  const auto dir = build_archive("mesh_keys", 1);
  store::ArchiveWriter writer(dir);
  store::ArchiveReader reader(dir);
  serve::ServerConfig server_config;
  server_config.threads = 1;
  server_config.key = "another-key";
  serve::Server server(reader, server_config);
  Relay origin(relay_config(1), &server, dir);
  origin.attach_publisher(writer);
  Relay b(relay_config(2));
  ASSERT_TRUE(connect(origin, b).ok);
  const auto& key = b.config().key;
  EXPECT_EQ(error_code(unwrap(key, b.query(summary_frame(key, 1)))),
            serve::ErrorCode::kBadRequest);
  EXPECT_EQ(origin.stats().forwards_answered, 1u);
  server.drain();
}

TEST(MeshRelay, PeerEntryPointsDropWhatTheyCannotTrust) {
  const auto dir = build_archive("mesh_entry", 1);
  store::ArchiveWriter writer(dir);
  Relay origin(relay_config(1), nullptr, dir);
  origin.attach_publisher(writer);
  Relay b(relay_config(2));
  Relay stranger(relay_config(3));
  ASSERT_TRUE(connect(origin, b).ok);
  ASSERT_EQ(b.feed_cursor(), (Cursor{1, 0}));

  const auto& key = b.config().key;
  const auto frame = [&key](const MeshMessage& message) {
    return serve::encode_frame(key, serve::FrameKind::kMesh, 0,
                               encode_mesh(message),
                               serve::kMeshProtocolVersion);
  };
  const auto old_chunk = frame(MeshMessage{DeltaChunk{.day = 1,
                                                      .seq = 0,
                                                      .last = true,
                                                      .degraded = false,
                                                      .lost_sites = 0,
                                                      .canary_alarms = 0,
                                                      .upserts = {},
                                                      .removals = {}}});
  const auto forward = frame(MeshMessage{Forward{
      1, 3, 1, serve::encode_request(serve::Request{serve::SummaryRequest{}})}});
  const auto subscribe = frame(MeshMessage{Subscribe{.subscription_id = 1,
                                                     .family = 0,
                                                     .priority = 0,
                                                     .prefixes = {},
                                                     .resume = false,
                                                     .cursor = {}}});
  const std::vector<std::uint8_t> garbage{1, 2, 3};
  const auto not_mesh = serve::encode_frame(
      key, serve::FrameKind::kRequest, 0,
      serve::encode_request(serve::Request{serve::SummaryRequest{}}));

  // deliver() takes delta chunks from known peers only...
  EXPECT_FALSE(b.deliver(&stranger, old_chunk));
  EXPECT_FALSE(b.deliver(&origin, garbage));
  EXPECT_FALSE(b.deliver(&origin, not_mesh));
  EXPECT_FALSE(b.deliver(&origin, forward));
  // ...and request() Forwards and Subscribes from known peers only.
  EXPECT_TRUE(b.request(&origin, old_chunk).empty());
  EXPECT_TRUE(b.request(&origin, garbage).empty());
  EXPECT_TRUE(b.request(&stranger, forward).empty());
  EXPECT_TRUE(b.request(&stranger, subscribe).empty());
  EXPECT_EQ(b.stats().forwards_seen, 0u);
  EXPECT_TRUE(b.stats().subscriptions.empty());
  EXPECT_EQ(b.stats().duplicate_deltas, 0u);

  // A chunk at or below the cursor is acked but not applied again.
  EXPECT_TRUE(b.deliver(&origin, old_chunk));
  EXPECT_EQ(b.stats().duplicate_deltas, 1u);
  EXPECT_EQ(b.feed_cursor(), (Cursor{1, 0}));
}

TEST(MeshRelay, LoopSuppressionOnRandomizedCyclicMesh) {
  // Node 0 publishes and is the only server; the others follow its feed
  // over whichever peer handed it to them first.
  Origin origin("mesh_loop");
  constexpr std::size_t kNodes = 5;
  std::vector<std::unique_ptr<Relay>> relays;
  relays.push_back(std::move(origin.relay));
  for (std::size_t i = 1; i < kNodes; ++i) {
    relays.push_back(std::make_unique<Relay>(relay_config(i + 1)));
  }

  // A ring plus two random chords: guaranteed cyclic, seeded so the
  // failure reproduces.
  std::set<std::pair<std::size_t, std::size_t>> links;
  for (std::size_t i = 0; i < kNodes; ++i) {
    links.insert(std::minmax(i, (i + 1) % kNodes));
  }
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<std::size_t> pick(0, kNodes - 1);
  while (links.size() < kNodes + 2) {
    const std::size_t x = pick(rng);
    const std::size_t y = pick(rng);
    if (x != y) links.insert(std::minmax(x, y));
  }
  for (const auto& [x, y] : links) {
    ASSERT_TRUE(connect(*relays[x], *relays[y]).ok);
  }

  // The subscription tree, read back from each relay's subscription
  // table: a peer subscribed to relay r has r as its upstream.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < kNodes; ++i) index[relays[i]->name()] = i;
  std::vector<std::size_t> parent(kNodes, kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (const auto& sub : relays[i]->stats().subscriptions) {
      parent[index.at(sub.subscriber)] = i;
    }
  }
  std::vector<std::uint64_t> depth(kNodes, 0);
  for (std::size_t i = 1; i < kNodes; ++i) {
    for (std::size_t n = i; n != 0; n = parent[n]) {
      ASSERT_LT(parent[n], kNodes) << "node " << n << " has no upstream";
      ASSERT_LT(++depth[i], kNodes) << "subscription cycle at node " << i;
    }
  }
  // The chords leave some node two hops down: a query crosses a relay
  // that only passes it on.
  EXPECT_GE(*std::max_element(depth.begin(), depth.end()), 2u);

  // Every node's query is answered exactly once — one well-formed
  // response with the right content — by one call per tree hop up and
  // one return per hop down: 2 mesh frames per hop, whatever the chords.
  const std::string& key = relays[0]->config().key;
  std::uint64_t request_id = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto before = total_frames(relays);
    const auto response = unwrap(
        key, relays[i]->query(summary_frame(key, ++request_id)));
    ASSERT_TRUE(std::holds_alternative<serve::SummaryResponse>(response))
        << "node " << i;
    EXPECT_EQ(std::get<serve::SummaryResponse>(response).summary.days, 2u);
    EXPECT_EQ(total_frames(relays) - before, 2 * depth[i]) << "node " << i;
  }

  std::uint64_t refused = 0;
  std::uint64_t answered = 0;
  for (const auto& relay : relays) {
    const auto stats = relay->stats();
    refused += stats.forward_dups_suppressed;
    answered += stats.forwards_answered;
  }
  // A tree never spends the hop budget.
  EXPECT_EQ(refused, 0u);
  // Node 0 answered the four remote queries (its own went to the local
  // server directly, not through the mesh).
  EXPECT_EQ(answered, kNodes - 1);
}

TEST(MeshRelay, LongChainAnswersAtItsTailWithDefaults) {
  Origin origin("mesh_chain");
  constexpr std::size_t kRelays = 10;
  std::vector<std::unique_ptr<Relay>> chain;
  chain.push_back(std::move(origin.relay));
  for (std::size_t i = 1; i < kRelays; ++i) {
    chain.push_back(std::make_unique<Relay>(relay_config(i + 1)));
    ASSERT_TRUE(connect(*chain[i - 1], *chain[i]).ok);
  }
  const std::string& key = chain[0]->config().key;
  const auto before = total_frames(chain);
  const auto response = unwrap(key, chain.back()->query(summary_frame(key, 1)));
  ASSERT_TRUE(std::holds_alternative<serve::SummaryResponse>(response));
  EXPECT_EQ(std::get<serve::SummaryResponse>(response).summary.days, 2u);
  EXPECT_EQ(total_frames(chain) - before, 2 * (kRelays - 1));
  for (const auto& relay : chain) {
    EXPECT_EQ(relay->stats().forwards_seen, relay == chain.back() ? 0u : 1u)
        << relay->name();
  }
  EXPECT_EQ(chain[0]->stats().forwards_answered, 1u);
}

TEST(MeshRelay, StrandedSubscriptionRingAnswersUnreachable) {
  // O - A - B - C, then O loses A and A re-peers with C: A follows C, C
  // follows B, B follows A. The ring reports a feed everywhere but has no
  // way back to O's server.
  Origin origin("mesh_stranded");
  Relay& o = *origin.relay;
  Relay a(relay_config(2));
  Relay b(relay_config(3));
  Relay c(relay_config(4));
  ASSERT_TRUE(connect(o, a).ok);
  ASSERT_TRUE(connect(a, b).ok);
  ASSERT_TRUE(connect(b, c).ok);
  disconnect(o, a);
  ASSERT_TRUE(connect(a, c).ok);
  EXPECT_TRUE(a.has_feed());
  EXPECT_TRUE(b.has_feed());
  EXPECT_TRUE(c.has_feed());
  // O is a direct peer of A again, but A's upstream walk never visits it.
  ASSERT_TRUE(connect(o, a).ok);

  const std::string& key = o.config().key;
  const auto response = unwrap(key, a.query(summary_frame(key, 1)));
  EXPECT_EQ(error_code(response), serve::ErrorCode::kUnreachable);

  // The query went round the ring until its hop budget ran out: every
  // hop from 255 down to 0 was received once, and exactly one relay
  // refused it.
  std::uint64_t seen = 0;
  std::uint64_t refused = 0;
  for (const Relay* relay : {&a, &b, &c}) {
    seen += relay->stats().forwards_seen;
    refused += relay->stats().forward_dups_suppressed;
  }
  EXPECT_EQ(seen, kForwardHopBudget + 1u);
  EXPECT_EQ(refused, 1u);
  EXPECT_EQ(o.stats().forwards_seen, 0u);

  // O itself still answers from its server.
  const auto direct = unwrap(key, o.query(summary_frame(key, 2)));
  EXPECT_TRUE(std::holds_alternative<serve::SummaryResponse>(direct));
}

}  // namespace
}  // namespace laces::mesh
