#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "census/longitudinal.hpp"
#include "census/output.hpp"
#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "mesh/relay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/platform.hpp"
#include "serve/server.hpp"
#include "store/archive.hpp"
#include "store/delta.hpp"
#include "store/segment.hpp"
#include "topo/network.hpp"
#include "topo/world.hpp"
#include "util/event_queue.hpp"
#include "util/sha256.hpp"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using namespace laces;

// ---------------------------------------------------------------------------
// Fixed workload settings. Changing any of them changes what the benchmark
// measures, so they are constants, not flags.

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 3;
/// census and feed do a fixed amount of work sized from --seconds, not
/// "as much as fits": days differ in work by day number and commits slow
/// as the archive grows, so a time-bounded loop would compare different
/// work between runs. census times one day per 1.6 s of --seconds (9 at
/// 15 s, 14-23 s of days on a 4-core host: host speed drifts over tens of
/// seconds, and more days average more of it), at least 3; feed makes 20
/// commits per second of --seconds (~14 s at 15 s).
constexpr double kCensusDaySeconds = 1.6;
constexpr std::uint32_t kMinCensusDays = 3;
constexpr double kFeedCommitsPerSecond = 20.0;
/// feed's commit latencies are summarised per window of this many
/// commits (median of the windows' tails), as query's requests are.
constexpr std::size_t kCommitWindow = 100;
/// Days in the query workload's archive: more than the reader's 8-day
/// segment cache (the `laces serve --reader-cache` default).
constexpr std::uint32_t kQueryArchiveDays = 9;
constexpr std::size_t kReaderCache = 8;
/// Generator threads and server workers; together within a 4-core host.
constexpr std::size_t kGenerators = 2;
constexpr std::size_t kServerWorkers = 2;

std::string fmt(const char* format, double a = 0, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c, d);
  return buf;
}

/// The `laces census` default world (--scale 8): every population count
/// divided by eight.
topo::WorldConfig world_config(std::uint64_t seed) {
  topo::WorldConfig cfg;
  cfg.seed = seed;
  constexpr std::size_t s = 8;
  cfg.v4_unicast /= s;
  cfg.v4_unresponsive /= s;
  cfg.v4_medium_anycast_orgs /= s;
  cfg.v4_regional_anycast /= s;
  cfg.v4_global_bgp_unicast /= s;
  cfg.v4_temporary_anycast /= s;
  cfg.v4_partial_anycast /= s;
  cfg.v6_unicast /= s;
  cfg.v6_unresponsive /= s;
  cfg.v6_medium_anycast_orgs /= s;
  cfg.v6_regional_anycast /= s;
  cfg.v6_backing_anycast /= s;
  cfg.as_graph.stub_count /= s;
  return cfg;
}

/// ICMP+TCP+DNS over IPv4 at 30k targets/s, one event-loop shard.
census::PipelineConfig pipeline_config() {
  census::PipelineConfig config;
  config.icmp = config.tcp = config.dns = true;
  config.ipv4 = true;
  config.ipv6 = false;
  config.targets_per_second = 30000.0;
  return config;
}

/// World, simulated network, anycast deployment and the daily pipeline.
struct Sim {
  explicit Sim(std::uint64_t seed)
      : world(topo::World::generate(world_config(seed))),
        network(world, events),
        session(network, platform::make_production_deployment(world)),
        pipeline(network, session, platform::make_ark(world, 80, 0x163),
                 platform::make_ark(world, 40, 0x118), pipeline_config()) {}

  topo::World world;
  EventQueue events;
  topo::SimNetwork network;
  core::Session session;
  census::Pipeline pipeline;
};

store::Checkpoint checkpoint_of(Sim& sim,
                                const census::LongitudinalStore& longitudinal,
                                std::uint32_t day) {
  store::Checkpoint cp;
  cp.last_day = day;
  cp.sim_time_ns = sim.events.now().ns();
  cp.next_span_id = obs::Tracer::global().next_id();
  cp.pipeline = sim.pipeline.state();
  cp.longitudinal = longitudinal.snapshot();
  cp.run_config = "e2ebench";
  for (std::size_t i = 0; i < sim.session.worker_count(); ++i) {
    cp.worker_rng.push_back(sim.session.worker(i).rng_state());
  }
  return cp;
}

std::uint64_t probes_of(const census::DailyCensus& day) {
  return day.anycast_probes_sent + day.gcd_probes_sent;
}

/// A census day relabelled as another day number (feed and query replay
/// two real days as a long series).
census::DailyCensus relabelled(const census::DailyCensus& real,
                               std::uint32_t day) {
  census::DailyCensus out = real;
  out.day = day;
  return out;
}

double registry_value(const obs::MetricsSnapshot& snap, const char* name) {
  double total = 0.0;
  for (const auto& s : snap.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// Program counters read at the timed window's edges.
struct Counters {
  double catchment_hits = 0, catchment_misses = 0;
  double delay_hits = 0, delay_misses = 0;
  double retransmits = 0, watchdog_fires = 0;

  static Counters read() {
    const auto snap = obs::Registry::global().snapshot();
    Counters c;
    c.catchment_hits =
        registry_value(snap, "laces_routing_catchment_cache_hits_total");
    c.catchment_misses =
        registry_value(snap, "laces_routing_catchment_cache_misses_total");
    c.delay_hits = registry_value(snap, "laces_routing_delay_cache_hits_total");
    c.delay_misses =
        registry_value(snap, "laces_routing_delay_cache_misses_total");
    c.retransmits =
        registry_value(snap, "laces_orchestrator_chunks_retransmitted_total");
    c.watchdog_fires =
        registry_value(snap, "laces_orchestrator_watchdog_fires_total");
    return c;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// The mesh side of a commit: origin (publisher) -> mid -> leaf, with a
// CensusFollower at the leaf, an unfiltered timing sink at the origin and,
// for `feed`, a few filtered subscribers.

class Chain {
 public:
  Chain(store::ArchiveWriter& writer, serve::Server* server,
        const std::vector<net::Prefix>& fanout_prefixes)
      : origin_(config(1, "origin"), server, writer.dir()),
        mid_(config(2, "mid")),
        leaf_(config(3, "leaf")) {
    origin_.attach_publisher(writer);
    if (!mesh::connect(origin_, mid_).ok || !mesh::connect(mid_, leaf_).ok) {
      throw std::runtime_error("mesh chain handshake failed");
    }
    follower_ = std::make_unique<mesh::CensusFollower>(leaf_);
    // Highest priority, so it sees each chunk before any other subscriber.
    origin_.subscribe_local(mesh::SubscriptionSpec{0, 255, {}},
                            [this](const mesh::DeltaChunk& chunk) {
                              on_origin_chunk(chunk);
                            });
    if (!fanout_prefixes.empty()) {
      mesh::SubscriptionSpec v4_only{4, 1, {}};
      mesh::SubscriptionSpec some_prefixes{
          0, 0,
          std::vector<net::Prefix>(
              fanout_prefixes.begin(),
              fanout_prefixes.begin() +
                  std::min<std::size_t>(64, fanout_prefixes.size()))};
      mesh::SubscriptionSpec v6_only{6, 0, {}};
      add_fanout(origin_, v4_only);
      add_fanout(mid_, some_prefixes);
      add_fanout(leaf_, v6_only);
    }
  }

  // The origin sink captures `this`.
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  /// Starts timing one commit of `day`.
  void arm(std::uint32_t day, std::uint64_t published_rows) {
    armed_day_ = day;
    first_chunk_seen_ = false;
    rows_published_ += published_rows;
  }
  Clock::time_point first_chunk() const { return first_chunk_; }
  bool first_chunk_seen() const { return first_chunk_seen_; }
  const mesh::CensusFollower& follower() const { return *follower_; }
  std::uint64_t rows_pushed() const { return rows_pushed_; }
  std::uint64_t rows_published() const { return rows_published_; }
  std::uint64_t chunks() const { return chunks_; }

  /// Days every filtered subscriber has seen close (last chunk).
  bool fanout_saw(std::uint32_t day) const {
    for (const auto& days : fanout_days_) {
      if (days->count(day) == 0) return false;
    }
    return true;
  }

  /// Waits until the leaf follower holds `day`. Delivery is synchronous
  /// today, so this returns at once after append(); the wait keeps the
  /// measurement honest if delivery ever becomes asynchronous.
  bool wait_visible(std::uint32_t day) const {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!follower_->has_day(day)) {
      if (Clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

 private:
  static mesh::RelayConfig config(std::uint64_t id, const char* name) {
    mesh::RelayConfig c;
    c.node_id = id;
    c.name = name;
    return c;
  }

  void add_fanout(mesh::Relay& relay, const mesh::SubscriptionSpec& spec) {
    auto days = std::make_shared<std::set<std::uint32_t>>();
    relay.subscribe_local(spec, [days](const mesh::DeltaChunk& chunk) {
      if (chunk.last) days->insert(chunk.day);
    });
    fanout_days_.push_back(std::move(days));
  }

  // Runs under the origin relay's lock on the appending thread.
  void on_origin_chunk(const mesh::DeltaChunk& chunk) {
    if (chunk.day != armed_day_) return;  // replay of older days
    if (!first_chunk_seen_) {
      first_chunk_ = Clock::now();
      first_chunk_seen_ = true;
    }
    ++chunks_;
    rows_pushed_ += chunk.upserts.size() + chunk.removals.size();
  }

  mesh::Relay origin_;
  mesh::Relay mid_;
  mesh::Relay leaf_;
  std::unique_ptr<mesh::CensusFollower> follower_;
  /// Per filtered subscriber, the days whose last chunk it has seen.
  std::vector<std::shared_ptr<std::set<std::uint32_t>>> fanout_days_;
  std::uint32_t armed_day_ = 0;
  bool first_chunk_seen_ = false;
  Clock::time_point first_chunk_;
  std::uint64_t rows_pushed_ = 0;
  std::uint64_t rows_published_ = 0;
  std::uint64_t chunks_ = 0;
};

/// Timings of one day commit (the per-day tail shared by census and feed).
struct CommitTiming {
  double append_ms = 0, checkpoint_ms = 0, visible_ms = 0, first_chunk_ms = 0;
  std::uint64_t segment_bytes = 0, csv_bytes = 0;
  bool visible = true;
};

/// longitudinal add -> append (mesh push through the chain) -> leaf
/// visible -> checkpoint, each call recorded as a span under `parent`.
CommitTiming commit_day(Sim& sim, store::ArchiveWriter& writer, Chain* chain,
                        census::LongitudinalStore& longitudinal,
                        const census::DailyCensus& day, SpanRecorder& spans,
                        std::uint64_t parent) {
  CommitTiming t;
  auto t0 = Clock::now();
  longitudinal.add(day);
  auto t1 = Clock::now();
  spans.record("census.longitudinal_add", t0, t1, parent, day.day);

  if (chain) chain->arm(day.day, day.published_prefixes().size());
  const auto append_start = Clock::now();
  const store::ManifestEntry& entry = writer.append(day);
  const auto append_end = Clock::now();
  const auto append_id =
      spans.record("store.append", append_start, append_end, parent, day.day);
  t.append_ms = ms_between(append_start, append_end);
  t.segment_bytes = entry.segment_bytes;
  t.csv_bytes = entry.csv_bytes;
  if (chain) {
    t.visible = chain->wait_visible(day.day);
    const auto visible_at = Clock::now();
    spans.record("mesh.leaf_wait", append_end, visible_at, parent, day.day);
    t.visible_ms = ms_between(append_start, visible_at);
    if (chain->first_chunk_seen()) {
      spans.record("mesh.first_chunk", append_start, chain->first_chunk(),
                   append_id, day.day);
      t.first_chunk_ms = ms_between(append_start, chain->first_chunk());
    }
  }
  t0 = Clock::now();
  writer.write_checkpoint(checkpoint_of(sim, longitudinal, day.day));
  t1 = Clock::now();
  spans.record("store.checkpoint", t0, t1, parent, day.day);
  t.checkpoint_ms = ms_between(t0, t1);
  return t;
}

/// Per-commit samples gathered over the timed window.
struct CommitSamples {
  std::vector<double> append_ms, checkpoint_ms, visible_ms, first_chunk_ms;
  std::vector<double> segment_bytes, csv_bytes;

  void add(const CommitTiming& t) {
    append_ms.push_back(t.append_ms);
    checkpoint_ms.push_back(t.checkpoint_ms);
    visible_ms.push_back(t.visible_ms);
    first_chunk_ms.push_back(t.first_chunk_ms);
    segment_bytes.push_back(static_cast<double>(t.segment_bytes));
    csv_bytes.push_back(static_cast<double>(t.csv_bytes));
  }
};

// ---------------------------------------------------------------------------
// Shared metric assembly.

void add_metric(std::vector<Metric>& to, const std::string& name, double value,
                const std::string& unit) {
  to.push_back(Metric{name, value, unit});
}

std::string tail_line(const char* name, const Tail& t, const char* what) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s = %.3f ms (p%.1f of %zu %s; p50 %.3f ms)", name, t.value,
                t.percentile, t.samples, what, t.p50);
  return buf;
}

/// Probe timings of single public calls on one real day: column encode,
/// SHA-256, CSV render, day delta, and a segment load through a
/// capacity-1 reader (always a miss). Traced runs only.
void probe_layers(RunResult& result, SpanRecorder& spans,
                  const census::DailyCensus& prev,
                  const census::DailyCensus& cur, const fs::path& archive,
                  std::uint32_t day_a, std::uint32_t day_b) {
  constexpr int kReps = 7;
  std::vector<double> encode, sha, render, delta, load;
  std::vector<std::uint8_t> segment;
  for (int i = 0; i < kReps; ++i) {
    auto t0 = Clock::now();
    segment = store::encode_segment(cur);
    auto t1 = Clock::now();
    spans.record("store.encode", t0, t1, 0, cur.day);
    encode.push_back(ms_between(t0, t1));

    t0 = Clock::now();
    const Sha256Digest digest = Sha256::hash(segment);
    t1 = Clock::now();
    spans.record("store.sha256", t0, t1, 0, cur.day);
    sha.push_back(ms_between(t0, t1));

    t0 = Clock::now();
    const std::string csv = census::render_census(cur);
    t1 = Clock::now();
    spans.record("census.render_csv", t0, t1, 0, cur.day);
    render.push_back(ms_between(t0, t1));

    t0 = Clock::now();
    const auto d = store::compute_day_delta(&prev, cur);
    t1 = Clock::now();
    spans.record("store.day_delta", t0, t1, 0, cur.day);
    delta.push_back(ms_between(t0, t1));
    if (csv.empty() || d.day != cur.day || digest == Sha256Digest{}) {
      result.ledger.fail("probe_output", /*wrong_output=*/true);
    }
  }
  store::ArchiveReader reader(archive, 1);
  for (int i = 0; i < kReps; ++i) {
    const std::uint32_t day = i % 2 == 0 ? day_a : day_b;
    const auto t0 = Clock::now();
    const auto loaded = reader.load_day(day);
    const auto t1 = Clock::now();
    spans.record("store.load_day_miss", t0, t1, 0, day);
    load.push_back(ms_between(t0, t1));
    if (loaded->day != day) result.ledger.fail("probe_load", true);
  }
  auto& l = result.layers;
  add_metric(l, "store.encode_ms", median(encode), "ms");
  add_metric(l, "store.sha256_ms", median(sha), "ms");
  add_metric(l, "census.render_csv_ms", median(render), "ms");
  add_metric(l, "store.day_delta_ms", median(delta), "ms");
  add_metric(l, "store.load_day_miss_ms", median(load), "ms");
}

/// Layer metrics every workload reports, from the timed window's spans and
/// counters. Layers a workload does not drive read 0.
struct LayerInputs {
  Clock::time_point from, to;
  Counters before, after;
  std::vector<double> packets_per_day;
  CommitSamples commits;
  Chain* chain = nullptr;
  std::uint64_t chunks_before = 0;
  std::size_t commit_count = 0;
};

void common_layers(RunResult& result, const SpanRecorder& spans,
                   const LayerInputs& in) {
  auto& l = result.layers;
  add_metric(l, "census.run_day_ms",
             median(spans.durations_ms("census.run_day", in.from, in.to)),
             "ms");
  add_metric(l, "topo.packets_per_day", median(in.packets_per_day),
             "packets");
  add_metric(l, "topo.catchment_cache_hit_ratio",
             ratio(in.after.catchment_hits - in.before.catchment_hits,
                   in.after.catchment_hits - in.before.catchment_hits +
                       in.after.catchment_misses - in.before.catchment_misses),
             "ratio");
  add_metric(l, "topo.delay_cache_hit_ratio",
             ratio(in.after.delay_hits - in.before.delay_hits,
                   in.after.delay_hits - in.before.delay_hits +
                       in.after.delay_misses - in.before.delay_misses),
             "ratio");
  add_metric(l, "core.retransmits",
             in.after.retransmits - in.before.retransmits, "count");
  add_metric(l, "core.watchdog_fires",
             in.after.watchdog_fires - in.before.watchdog_fires, "count");
  add_metric(l, "store.append_ms", median(in.commits.append_ms), "ms");
  add_metric(l, "store.checkpoint_ms", median(in.commits.checkpoint_ms), "ms");
  add_metric(l, "store.segment_bytes", median(in.commits.segment_bytes),
             "bytes");
  add_metric(l, "store.csv_bytes", median(in.commits.csv_bytes), "bytes");
  add_metric(l, "mesh.first_chunk_ms", median(in.commits.first_chunk_ms),
             "ms");
  add_metric(l, "mesh.leaf_visible_ms", median(in.commits.visible_ms), "ms");
  const double chunks =
      in.chain ? static_cast<double>(in.chain->chunks() - in.chunks_before)
               : 0.0;
  add_metric(l, "mesh.chunks_per_commit",
             ratio(chunks, static_cast<double>(in.commit_count)), "count");
  add_metric(l, "mesh.delta_ratio",
             in.chain ? ratio(static_cast<double>(in.chain->rows_pushed()),
                              static_cast<double>(in.chain->rows_published()))
                      : 0.0,
             "ratio");
}

/// Serve-side layer metrics; `server` may be null (feed has none).
struct ServeInputs {
  const serve::Server* server = nullptr;
  std::uint64_t cache_hits = 0, cache_misses = 0;  // window deltas
  std::uint64_t seg_hits = 0, seg_misses = 0;
  std::uint64_t requests = 0, inline_answers = 0;
  std::uint64_t shed = 0, errors = 0;
  std::uint64_t abandoned = 0;
  double late_max_ms = 0;
  double backlog_max = 0;
  std::map<std::string, std::vector<double>> class_ms;
};

void serve_layers(RunResult& result, const ServeInputs& in) {
  auto& l = result.layers;
  add_metric(l, "serve.hit_ratio",
             ratio(static_cast<double>(in.cache_hits),
                   static_cast<double>(in.cache_hits + in.cache_misses)),
             "ratio");
  add_metric(l, "serve.inline_ratio",
             ratio(static_cast<double>(in.inline_answers),
                   static_cast<double>(in.requests)),
             "ratio");
  add_metric(l, "store.segment_hit_ratio",
             ratio(static_cast<double>(in.seg_hits),
                   static_cast<double>(in.seg_hits + in.seg_misses)),
             "ratio");
  add_metric(l, "store.segments_loaded_per_request",
             ratio(static_cast<double>(in.seg_misses),
                   static_cast<double>(in.requests)),
             "count");
  double queue_wait = 0, execute = 0, render = 0;
  if (in.server) {
    for (const auto& s : in.server->latency_stages()) {
      if (s.stage == "queue_wait") queue_wait = s.p99_us;
      if (s.stage == "archive_read") execute = s.p99_us;
      if (s.stage == "render") render = s.p99_us;
    }
  }
  add_metric(l, "serve.queue_wait_p99_us", queue_wait, "us");
  add_metric(l, "serve.execute_p99_us", execute, "us");
  add_metric(l, "serve.render_p99_us", render, "us");
  for (const char* cls :
       {"summary", "stability", "history", "intermittent", "export_day"}) {
    const auto it = in.class_ms.find(cls);
    const Tail t = it == in.class_ms.end() ? Tail{} : tail_of(it->second);
    add_metric(l, std::string("serve.") + cls + "_p50_ms", t.p50, "ms");
    add_metric(l, std::string("serve.") + cls + "_tail_ms", t.value, "ms");
  }
  add_metric(l, "serve.shed", static_cast<double>(in.shed), "count");
  add_metric(l, "serve.errors", static_cast<double>(in.errors), "count");
  add_metric(l, "loadgen.abandoned", static_cast<double>(in.abandoned),
             "count");
  add_metric(l, "loadgen.late_max_ms", in.late_max_ms, "ms");
  add_metric(l, "loadgen.backlog_max", in.backlog_max, "count");
}

std::string class_of(const serve::Request& request) {
  std::string label(serve::request_label(request));
  std::replace(label.begin(), label.end(), '-', '_');
  return label;
}

/// Runs `build` kSetups times, timing each; keeps the last state.
template <typename State, typename Build>
std::unique_ptr<State> repeated_setup(Build build, std::vector<double>& secs) {
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = build(i);
    secs.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return state;
}

void finish_e2e(RunResult& result, const std::vector<double>& setup_secs,
                const Tail& latency, double throughput, double probes) {
  auto& e = result.e2e;
  add_metric(e, "setup_s", median(setup_secs), "s");
  add_metric(e, "peak_rss_mb", peak_rss_mb(), "MB");
  add_metric(e, "latency_p50_ms", latency.p50, "ms");
  add_metric(e, "latency_tail_ms", latency.value, "ms");
  add_metric(e, "throughput_per_s", throughput, "1/s");
  add_metric(e, "census_probes_per_day", probes, "probes");
  result.report.push_back(fmt("setup_s = %.3f s (median of %.0f set-ups)",
                              median(setup_secs),
                              static_cast<double>(setup_secs.size())));
  result.report.push_back(fmt("peak_rss_mb = %.1f MB", peak_rss_mb()));
  result.report.push_back(fmt("census_probes_per_day = %.0f probes", probes));
}

void verify_archive(Ledger& ledger, const fs::path& dir) {
  store::ArchiveReader reader(dir, 2);
  for (const auto& problem : reader.verify()) {
    std::fprintf(stderr, "e2ebench: verify: %s\n", problem.c_str());
    ledger.correct = false;
  }
}

fs::path setup_dir(const Options& options, int i) {
  const fs::path dir = options.work_dir / ("setup-" + std::to_string(i));
  fs::remove_all(dir);
  return dir;
}

}  // namespace

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ===========================================================================
// census: the daily census as an operator runs it. Set-up simulates and
// commits day 1 (an archive must exist before a reader, and so a server,
// can open); every timed day is a closed loop run_day -> add -> append
// (mesh push to the 2-hop follower) -> checkpoint -> served ExportDay.

namespace {

struct CensusState {
  fs::path dir;
  std::unique_ptr<Sim> sim;
  std::unique_ptr<store::ArchiveWriter> writer;
  census::LongitudinalStore longitudinal;
  census::DailyCensus first_day;
  std::unique_ptr<store::ArchiveReader> reader;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Chain> chain;
  std::shared_ptr<serve::Connection> connection;

  ~CensusState() {
    connection.reset();
    chain.reset();
    server.reset();
    reader.reset();
    writer.reset();
    sim.reset();
    fs::remove_all(dir);
  }
};

}  // namespace

RunResult run_census(const Options& options, SpanRecorder& spans) {
  RunResult result;
  std::vector<double> setup_secs;
  auto state = repeated_setup<CensusState>(
      [&](int i) {
        auto s = std::make_unique<CensusState>();
        s->dir = setup_dir(options, i);
        s->sim = std::make_unique<Sim>(options.seed);
        s->writer = std::make_unique<store::ArchiveWriter>(s->dir);
        s->first_day = s->sim->pipeline.run_day(1);
        s->longitudinal.add(s->first_day);
        s->writer->append(s->first_day);
        s->writer->write_checkpoint(
            checkpoint_of(*s->sim, s->longitudinal, 1));
        s->reader =
            std::make_unique<store::ArchiveReader>(s->dir, kReaderCache);
        serve::ServerConfig config;
        config.threads = kServerWorkers;
        s->server = std::make_unique<serve::Server>(*s->reader, config);
        s->chain = std::make_unique<Chain>(*s->writer, s->server.get(),
                                           std::vector<net::Prefix>{});
        s->connection = s->server->connect();
        return s;
      },
      setup_secs);
  auto& st = *state;
  // The follower replayed day 1 from the archive during set-up.
  check_follower_day(result.ledger, st.chain->follower(), 1,
                     census::render_census(st.first_day));

  struct Served {
    std::uint32_t day;
    std::vector<std::uint8_t> frame;
  };
  std::vector<census::DailyCensus> days;
  std::vector<Served> served;
  std::vector<double> day_ms, probes;
  LayerInputs layers;
  layers.chain = st.chain.get();
  layers.chunks_before = st.chain->chunks();
  const std::uint64_t seg_hits0 = st.reader->cache_hits();
  const std::uint64_t seg_misses0 = st.reader->cache_misses();
  const std::uint64_t hits0 = st.server->cache().hits();
  const std::uint64_t misses0 = st.server->cache().misses();

  const auto timed_days = std::max(
      kMinCensusDays,
      static_cast<std::uint32_t>(std::lround(options.seconds /
                                             kCensusDaySeconds)));
  layers.before = Counters::read();
  const auto start = Clock::now();
  for (std::uint32_t day = 2; day < 2 + timed_days; ++day) {
    const auto group = spans.reserve_id();
    const auto t0 = Clock::now();
    const auto packets0 = st.sim->network.packets_sent();
    census::DailyCensus daily = st.sim->pipeline.run_day(day);
    const auto t1 = Clock::now();
    spans.record("census.run_day", t0, t1, group, day);
    layers.packets_per_day.push_back(
        static_cast<double>(st.sim->network.packets_sent() - packets0));

    const CommitTiming commit = commit_day(*st.sim, *st.writer, st.chain.get(),
                                           st.longitudinal, daily, spans,
                                           group);
    layers.commits.add(commit);

    const auto q0 = Clock::now();
    const auto request = serve::Request{serve::ExportDayRequest{day}};
    auto reply = st.connection
                     ->submit(serve::encode_frame(
                         st.server->config().key, serve::FrameKind::kRequest,
                         day, serve::encode_request(request)))
                     .get();
    const auto t2 = Clock::now();
    spans.record("serve.export_day", q0, t2, group, day);
    spans.record("bench.day", t0, t2, 0, day, group);

    day_ms.push_back(ms_between(t0, t2));
    probes.push_back(static_cast<double>(probes_of(daily)));
    if (daily.degraded) {
      result.ledger.fail("degraded_day");
    } else {
      result.ledger.ok();
    }
    if (!commit.visible) result.ledger.fail("leaf_not_visible");
    served.push_back(Served{day, std::move(reply)});
    days.push_back(std::move(daily));
  }
  const auto end = Clock::now();
  layers.after = Counters::read();
  layers.from = start;
  layers.to = end;
  layers.commit_count = days.size();

  // Outputs are checked after the timed window.
  std::map<std::uint32_t, std::string> expected;
  expected[1] = census::render_census(st.first_day);
  for (const auto& d : days) expected[d.day] = census::render_census(d);
  const ExportLookup lookup = [&expected](std::uint32_t d) {
    const auto it = expected.find(d);
    return it == expected.end() ? nullptr : &it->second;
  };
  ServeInputs serve_in;
  serve_in.server = st.server.get();
  for (const auto& d : days) {
    check_follower_day(result.ledger, st.chain->follower(), d.day,
                       expected[d.day]);
  }
  for (const auto& s : served) {
    const Outcome outcome = account_response(
        result.ledger,
        classify_response(st.server->config().key, s.frame,
                          serve::Request{serve::ExportDayRequest{s.day}},
                          lookup));
    if (outcome == Outcome::kShed) ++serve_in.shed;
    if (outcome != Outcome::kOk && outcome != Outcome::kShed) {
      ++serve_in.errors;
    }
  }
  verify_archive(result.ledger, st.dir);

  const Tail day_tail = tail_of(day_ms);
  const double wall_s = ms_between(start, end) / 1000.0;
  finish_e2e(result, setup_secs, day_tail,
             static_cast<double>(days.size()) / wall_s, median(probes));
  result.report.push_back(fmt("census_day_s = %.4f s (median of %.0f days "
                              "after the first)",
                              day_tail.p50 / 1000.0,
                              static_cast<double>(days.size())));
  result.report.push_back(
      tail_line("commit_visible (census days)", tail_of(layers.commits.visible_ms),
                "commits"));

  if (spans.on()) {
    common_layers(result, spans, layers);
    serve_in.requests = served.size();
    serve_in.cache_hits = st.server->cache().hits() - hits0;
    serve_in.cache_misses = st.server->cache().misses() - misses0;
    serve_in.seg_hits = st.reader->cache_hits() - seg_hits0;
    serve_in.seg_misses = st.reader->cache_misses() - seg_misses0;
    serve_in.class_ms["export_day"] =
        spans.durations_ms("serve.export_day", start, end);
    serve_layers(result, serve_in);
    probe_layers(result, spans, days[days.size() - 2], days.back(), st.dir,
                 days[days.size() - 2].day, days.back().day);
    add_metric(result.layers, "bench.self_ms", spans.uncovered_ms(start, end),
               "ms");
  }
  return result;
}

// ===========================================================================
// feed: commit and fan-out with no simulation while timing runs. Set-up
// simulates two real days and commits them; the timed loop commits the
// two alternately, relabelled with increasing day numbers, through the
// 2-hop chain plus a few filtered subscribers.

namespace {

struct FeedState {
  fs::path dir;
  std::unique_ptr<Sim> sim;
  std::unique_ptr<store::ArchiveWriter> writer;
  census::LongitudinalStore longitudinal;
  census::DailyCensus real[2];
  std::unique_ptr<Chain> chain;

  ~FeedState() {
    chain.reset();
    writer.reset();
    sim.reset();
    fs::remove_all(dir);
  }
};

std::vector<net::Prefix> published_v4(const census::DailyCensus& day) {
  std::vector<net::Prefix> out;
  for (const auto& p : day.published_prefixes()) {
    if (p.version() == net::IpVersion::kV4) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

RunResult run_feed(const Options& options, SpanRecorder& spans) {
  RunResult result;
  std::vector<double> setup_secs;
  SpanRecorder setup_spans(false);
  auto state = repeated_setup<FeedState>(
      [&](int i) {
        auto s = std::make_unique<FeedState>();
        s->dir = setup_dir(options, i);
        s->sim = std::make_unique<Sim>(options.seed);
        s->writer = std::make_unique<store::ArchiveWriter>(s->dir);
        s->real[0] = s->sim->pipeline.run_day(1);
        s->chain = std::make_unique<Chain>(*s->writer, nullptr,
                                           published_v4(s->real[0]));
        commit_day(*s->sim, *s->writer, s->chain.get(), s->longitudinal,
                   s->real[0], setup_spans, 0);
        s->real[1] = s->sim->pipeline.run_day(2);
        commit_day(*s->sim, *s->writer, s->chain.get(), s->longitudinal,
                   s->real[1], setup_spans, 0);
        return s;
      },
      setup_secs);
  auto& st = *state;

  LayerInputs layers;
  layers.chain = st.chain.get();
  layers.chunks_before = st.chain->chunks();
  std::vector<std::uint32_t> committed;
  layers.before = Counters::read();
  // No simulator call may run while timing: the window's packet count
  // is its single packets-per-day sample and must stay 0.
  const auto packets0 = st.sim->network.packets_sent();
  const auto commits = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::lround(options.seconds * kFeedCommitsPerSecond)));
  const auto start = Clock::now();
  for (std::uint32_t day = 3; day < 3 + commits; ++day) {
    census::DailyCensus& src = st.real[(day + 1) % 2];
    src.day = day;  // relabel in place: day 3 is real day 1's content, ...
    const auto group = spans.reserve_id();
    const auto t0 = Clock::now();
    const CommitTiming commit = commit_day(*st.sim, *st.writer, st.chain.get(),
                                           st.longitudinal, src, spans, group);
    spans.record("bench.commit", t0, Clock::now(), 0, day, group);
    layers.commits.add(commit);
    result.ledger.ok();  // the commit itself
    if (!commit.visible) result.ledger.fail("leaf_not_visible");
    committed.push_back(day);
  }
  const auto end = Clock::now();
  layers.after = Counters::read();
  layers.packets_per_day.push_back(
      static_cast<double>(st.sim->network.packets_sent() - packets0));
  layers.from = start;
  layers.to = end;
  layers.commit_count = committed.size();

  for (const std::uint32_t d : committed) {
    const census::DailyCensus& real = st.real[(d + 1) % 2];
    check_follower_day(result.ledger, st.chain->follower(), d,
                       census::render_census(relabelled(real, d)));
    if (!st.chain->fanout_saw(d)) result.ledger.fail("fanout_missing_day");
  }
  verify_archive(result.ledger, st.dir);

  const Tail visible = windowed_tail(layers.commits.visible_ms, kCommitWindow);
  const double wall_s = ms_between(start, end) / 1000.0;
  const double commits_per_s = static_cast<double>(committed.size()) / wall_s;
  finish_e2e(result, setup_secs, visible, commits_per_s,
             static_cast<double>(probes_of(st.real[1])));
  result.report.push_back(
      tail_line("commit_visible_p50_ms / commit_visible_tail_ms", visible,
                "commits"));
  result.report.push_back(fmt("commits_per_s = %.3f 1/s (%.0f commits)",
                              commits_per_s,
                              static_cast<double>(committed.size())));

  if (spans.on()) {
    common_layers(result, spans, layers);
    serve_layers(result, ServeInputs{});
    const std::uint32_t last = committed.back();
    probe_layers(result, spans, relabelled(st.real[last % 2], last - 1),
                 relabelled(st.real[(last + 1) % 2], last), st.dir, last - 1,
                 last);
    add_metric(result.layers, "bench.self_ms", spans.uncovered_ms(start, end),
               "ms");
  }
  return result;
}

// ===========================================================================
// query: independent users querying a long-lived server. Set-up simulates
// two real days, archives kQueryArchiveDays days from them, opens a server
// with default cache geometry and warms it. The timed window offers seeded
// open-loop Poisson load at a nominal rate (latency), probes the server's
// saturation capacity closed-loop, then walks a ladder of open-loop rates
// anchored on that capacity for the highest one that meets the latency
// limit without a growing backlog.

namespace {

/// The nominal rate is half to four fifths of the measured capacity of
/// this 9-day archive with two workers (124-205 req/s, see README.md), so
/// it stays below the knee on a slow host. Its phase
/// (kNominalShare of a 15 s window) gathers about 900 requests: nine
/// windows of kLatencyWindow, each with ten samples beyond its tail.
constexpr double kNominalRate = 100.0;
constexpr double kNominalShare = 0.6;
constexpr double kLatencyLimitMs = 250.0;
/// A stream stops offering load once this many of its requests are
/// outstanding: the rung has failed, and going on would only hit the
/// server's per-connection in-flight cap (64) and shed. Arrivals left
/// unsent are counted as abandoned.
constexpr std::size_t kAbortBacklog = 48;
/// Requests each generator keeps outstanding in the capacity probe (below
/// the per-connection cap, so nothing is shed), the probe's batch size and
/// the fixed stream its requests are drawn from.
constexpr std::size_t kSaturationDepth = 16;
constexpr std::size_t kSaturationBatch = 300;
/// The probe runs this many times; capacity is every batch's requests over
/// the time the batches took.
constexpr int kSaturationRounds = 5;
constexpr std::uint64_t kSaturationStream = 0xca9ac17ULL;
/// Ladder rungs as fractions of the measured capacity, tried from the top
/// until one passes.
constexpr double kLadder[] = {0.8, 0.6};
/// Latency summaries are medians over windows of this many requests (in
/// due order), each window's tail having ten samples beyond it.
constexpr std::size_t kLatencyWindow = 100;
/// Warm-up: closed-loop requests per generator before timing.
constexpr std::size_t kWarmupPerClient = 500;

struct QueryState {
  fs::path dir;
  std::unique_ptr<Sim> sim;
  census::DailyCensus real[2];
  std::unique_ptr<store::ArchiveReader> reader;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<RequestSource> source;
  std::map<std::uint32_t, std::string> expected_csv;

  ~QueryState() {
    server.reset();
    reader.reset();
    sim.reset();
    fs::remove_all(dir);
  }
};

/// One answered request. The reply is kept (ready) and checked after the
/// rung, so decoding answers never delays the generator.
struct Completed {
  std::uint64_t id = 0;
  serve::Request request;
  Clock::time_point due, submitted, done;
  bool inline_answer = false;
  std::future<std::vector<std::uint8_t>> reply;
  Outcome outcome = Outcome::kOk;
};

struct RungResult {
  double rate = 0;
  std::vector<Completed> done;
  std::size_t backlog_max = 0;
  bool aborted = false;
  std::size_t abandoned = 0;  // scheduled arrivals never submitted
  bool backlog_growing = false;
  Tail latency;
  std::uint64_t failed = 0;
  bool pass() const {
    return !aborted && !backlog_growing && failed == 0 &&
           latency.value <= kLatencyLimitMs;
  }
};

/// Submits `request` and files it as pending or (answered inline) done.
struct Stream {
  explicit Stream(serve::Server& s) : server(s), connection(s.connect()) {}

  serve::Server& server;
  std::shared_ptr<serve::Connection> connection;
  std::vector<Completed> pending;
  std::vector<Completed> done;

  void submit(serve::Request request, std::uint64_t id,
              Clock::time_point due) {
    Completed c;
    c.id = id;
    c.due = due;
    c.submitted = Clock::now();
    c.reply = connection->submit(serve::encode_frame(
        server.config().key, serve::FrameKind::kRequest, id,
        serve::encode_request(request)));
    c.request = std::move(request);
    if (c.reply.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      c.done = Clock::now();
      c.inline_answer = true;
      done.push_back(std::move(c));
    } else {
      pending.push_back(std::move(c));
    }
  }

  /// Timestamps every pending answer that is ready now, in any order, so a
  /// hit never inherits a queued miss's wait.
  void reap() {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].reply.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        pending[i].done = now;
        done.push_back(std::move(pending[i]));
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }

  void drain() {
    while (!pending.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(250));
      reap();
    }
  }
};

constexpr auto kPoll = std::chrono::microseconds(250);
constexpr auto kSpin = std::chrono::milliseconds(1);

/// One open-loop generator thread: submits its arrivals at their due times
/// without waiting for answers.
void generate(serve::Server& server, const std::vector<Arrival>& arrivals,
              Clock::time_point start, std::uint64_t id_base, RungResult& out,
              std::vector<std::size_t>& backlog_samples) {
  Stream stream(server);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     arrivals[i].due_s));
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      stream.reap();
      // Sleep in short slices (answers are timestamped between them), and
      // spin through the last stretch so the request leaves on time.
      if (due - now > kSpin) {
        std::this_thread::sleep_until(std::min(due - kSpin, now + kPoll));
      }
    }
    stream.submit(arrivals[i].request, id_base + i, due);
    out.backlog_max = std::max(out.backlog_max, stream.pending.size());
    backlog_samples.push_back(stream.pending.size());
    if (stream.pending.size() >= kAbortBacklog) {
      out.aborted = true;
      out.abandoned = arrivals.size() - i - 1;
      break;
    }
  }
  stream.drain();
  out.done = std::move(stream.done);
}

/// Checks every answer of a phase and books it.
void check_answers(std::vector<Completed>& done, const std::string& key,
                   const ExportLookup& lookup, std::uint64_t& failed) {
  for (auto& c : done) {
    const auto frame = c.reply.get();
    c.outcome = classify_response(key, frame, c.request, lookup);
    if (c.outcome != Outcome::kOk) ++failed;
  }
}

void record_requests(SpanRecorder& spans, const std::vector<Completed>& done,
                     std::uint64_t group) {
  for (const auto& c : done) {
    spans.record("serve.request", c.submitted, c.done, group, c.id);
  }
}

RungResult run_rung(serve::Server& server, const RequestSource& source,
                    double rate, double duration_s, std::uint64_t seed,
                    std::uint64_t id_base, const ExportLookup& lookup,
                    SpanRecorder& spans) {
  const auto schedule =
      poisson_schedule(source, rate, duration_s, kGenerators, seed);
  std::vector<RungResult> parts(kGenerators);
  std::vector<std::vector<std::size_t>> backlog(kGenerators);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      generate(server, schedule[g], start, id_base + (g << 24), parts[g],
               backlog[g]);
    });
  }
  for (auto& t : threads) t.join();
  const auto group = spans.reserve_id();
  RungResult r;
  r.rate = rate;
  std::vector<std::pair<Clock::time_point, double>> latencies;
  Clock::time_point last = start;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    r.aborted = r.aborted || parts[g].aborted;
    r.abandoned += parts[g].abandoned;
    r.backlog_max += parts[g].backlog_max;
    // Growing backlog: the last quarter of the stream's submissions saw
    // clearly more outstanding requests than the first quarter.
    const auto& b = backlog[g];
    if (b.size() >= 8) {
      const std::size_t q = b.size() / 4;
      double first = 0, final_q = 0;
      for (std::size_t i = 0; i < q; ++i) first += static_cast<double>(b[i]);
      for (std::size_t i = b.size() - q; i < b.size(); ++i) {
        final_q += static_cast<double>(b[i]);
      }
      first /= static_cast<double>(q);
      final_q /= static_cast<double>(q);
      if (final_q > 2.0 * first + 4.0) r.backlog_growing = true;
    }
    check_answers(parts[g].done, server.config().key, lookup, r.failed);
    record_requests(spans, parts[g].done, group);
    for (auto& c : parts[g].done) {
      latencies.emplace_back(c.due, ms_between(c.due, c.done));
      last = std::max(last, c.done);
      r.done.push_back(std::move(c));
    }
  }
  std::sort(latencies.begin(), latencies.end());
  std::vector<double> in_due_order;
  for (const auto& [due, ms] : latencies) in_due_order.push_back(ms);
  spans.record("bench.rung", start, last, 0, static_cast<std::uint64_t>(rate),
               group);
  r.latency = windowed_tail(in_due_order, kLatencyWindow);
  return r;
}

/// Closed-loop capacity probe after a day roll: the response cache is
/// cleared (as a relay does on every committed day), then the generators
/// serve a fixed batch of requests kSaturationDepth deep each; capacity is
/// the batch over the time it took. The batch's request ranks come from a
/// fixed stream, so every run serves the same number of distinct keys —
/// the misses that bound throughput — and only service time varies.
RungResult saturate(serve::Server& server, const RequestSource& source,
                    std::uint64_t id_base, const ExportLookup& lookup,
                    SpanRecorder& spans) {
  std::vector<RungResult> parts(kGenerators);
  server.cache_mut().clear();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    threads.emplace_back([&, g] {
      Stream stream(server);
      Rng rng(kSaturationStream + g);
      for (std::size_t n = 0; n < kSaturationBatch / kGenerators; ++n) {
        while (stream.pending.size() >= kSaturationDepth) {
          std::this_thread::sleep_for(kPoll);
          stream.reap();
        }
        stream.submit(source.draw(rng), id_base + (g << 24) + n,
                      Clock::now());
      }
      stream.drain();
      parts[g].done = std::move(stream.done);
    });
  }
  for (auto& t : threads) t.join();
  const auto group = spans.reserve_id();
  RungResult r;
  Clock::time_point last = start;
  for (auto& part : parts) {
    check_answers(part.done, server.config().key, lookup, r.failed);
    record_requests(spans, part.done, group);
    for (auto& c : part.done) {
      last = std::max(last, c.done);
      r.done.push_back(std::move(c));
    }
  }
  spans.record("bench.saturate", start, last, 0, 0, group);
  r.rate = static_cast<double>(r.done.size()) /
           (ms_between(start, last) / 1000.0);
  return r;
}

/// Closed-loop warm-up with the workload's own request mix (a different
/// random stream from the timed one).
void warm_up(serve::Server& server, const RequestSource& source,
             std::uint64_t seed) {
  std::vector<std::thread> clients;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    clients.emplace_back([&server, &source, seed, g] {
      const auto connection = server.connect();
      Rng rng(seed * 0x51ed27ULL + 0x77 + g);
      for (std::size_t i = 0; i < kWarmupPerClient; ++i) {
        connection->call(serve::encode_frame(
            server.config().key, serve::FrameKind::kRequest,
            (std::uint64_t{0xfeed} << 32) | (g << 24) | i,
            serve::encode_request(source.draw(rng))));
      }
    });
  }
  for (auto& c : clients) c.join();
}

std::vector<net::Prefix> census_v4_prefixes(const topo::World& world) {
  std::vector<net::Prefix> out;
  for (const auto& addr : world.representatives(net::IpVersion::kV4)) {
    out.push_back(net::Prefix::of(addr));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string rung_line(const RungResult& rung) {
  return fmt("rung %.1f req/s: ", rung.rate) +
         tail_line("latency", rung.latency, "requests") +
         (rung.aborted ? fmt(" ABORTED(backlog, %.0f arrivals abandoned)",
                             static_cast<double>(rung.abandoned))
                       : std::string()) +
         (rung.backlog_growing ? " BACKLOG-GROWING" : "") +
         (rung.failed ? fmt(" %.0f failed", static_cast<double>(rung.failed))
                      : std::string()) +
         (rung.pass() ? " pass" : " FAIL");
}

}  // namespace

RunResult run_query(const Options& options, SpanRecorder& spans) {
  RunResult result;
  std::vector<double> setup_secs;
  auto state = repeated_setup<QueryState>(
      [&](int i) {
        auto s = std::make_unique<QueryState>();
        s->dir = setup_dir(options, i);
        s->sim = std::make_unique<Sim>(options.seed);
        s->real[0] = s->sim->pipeline.run_day(1);
        s->real[1] = s->sim->pipeline.run_day(2);
        {
          store::ArchiveWriter writer(s->dir);
          census::LongitudinalStore longitudinal;
          for (std::uint32_t d = 1; d <= kQueryArchiveDays; ++d) {
            const auto day = relabelled(s->real[(d + 1) % 2], d);
            longitudinal.add(day);
            writer.append(day);
            writer.write_checkpoint(checkpoint_of(*s->sim, longitudinal, d));
            s->expected_csv[d] = census::render_census(day);
          }
        }
        s->reader =
            std::make_unique<store::ArchiveReader>(s->dir, kReaderCache);
        serve::ServerConfig config;
        config.threads = kServerWorkers;
        s->server = std::make_unique<serve::Server>(*s->reader, config);
        std::vector<std::uint32_t> days;
        for (std::uint32_t d = 1; d <= kQueryArchiveDays; ++d) {
          days.push_back(d);
        }
        s->source = std::make_unique<RequestSource>(
            census_v4_prefixes(s->sim->world), days, options.seed);
        warm_up(*s->server, *s->source, options.seed);
        return s;
      },
      setup_secs);
  auto& st = *state;
  const ExportLookup lookup = [&st](std::uint32_t d) -> const std::string* {
    const auto it = st.expected_csv.find(d);
    return it == st.expected_csv.end() ? nullptr : &it->second;
  };

  const std::uint64_t hits0 = st.server->cache().hits();
  const std::uint64_t misses0 = st.server->cache().misses();
  const std::uint64_t seg_hits0 = st.reader->cache_hits();
  const std::uint64_t seg_misses0 = st.reader->cache_misses();
  LayerInputs layers;
  layers.before = Counters::read();
  // No simulator call may run while timing: the window's packet count
  // is its single packets-per-day sample and must stay 0.
  const auto packets0 = st.sim->network.packets_sent();

  // 60% of the window at the nominal rate, then the capacity probe
  // (kSaturationRounds fixed batches, about 10 s) and up to two ladder
  // rungs of 8% each.
  const double nominal_s = kNominalShare * options.seconds;
  const double rung_s = 0.08 * options.seconds;
  const auto start = Clock::now();
  std::vector<RungResult> phases;
  phases.push_back(run_rung(*st.server, *st.source, kNominalRate, nominal_s,
                            options.seed, 1ULL << 40, lookup, spans));
  std::vector<double> batch_rates;
  double batch_requests = 0.0, batch_seconds = 0.0;
  for (int i = 0; i < kSaturationRounds; ++i) {
    phases.push_back(saturate(*st.server, *st.source,
                              static_cast<std::uint64_t>(2 + i) << 40, lookup,
                              spans));
    const RungResult& batch = phases.back();
    batch_rates.push_back(batch.rate);
    batch_requests += static_cast<double>(batch.done.size());
    batch_seconds += static_cast<double>(batch.done.size()) / batch.rate;
  }
  // Pooled rather than a median of batch rates: two workers scanning at
  // once share or evict each other's segments, so batches of identical
  // work run in a fast or a slow mode, and a median of a few flips between
  // the modes where a pooled rate moves by one batch's share.
  const double capacity = batch_requests / batch_seconds;
  double max_rps = 0.0;
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    phases.push_back(run_rung(*st.server, *st.source, kLadder[k] * capacity,
                              rung_s, options.seed + 1000 * (k + 1),
                              (k + 8) << 40, lookup, spans));
    if (phases.back().pass()) {
      max_rps = phases.back().rate;
      break;
    }
  }
  const auto end = Clock::now();
  layers.after = Counters::read();
  layers.packets_per_day.push_back(
      static_cast<double>(st.sim->network.packets_sent() - packets0));
  layers.from = start;
  layers.to = end;

  // The nominal phase and the capacity probe are the workload's operations.
  // Ladder rungs overload the server on purpose and stay out of the
  // ledger, except that a wrong answer there is still a wrong output.
  ServeInputs serve_in;
  serve_in.server = st.server.get();
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const bool ladder = k > kSaturationRounds;
    for (const auto& c : phases[k].done) {
      if (!ladder) {
        account_response(result.ledger, c.outcome);
        if (c.outcome == Outcome::kShed) ++serve_in.shed;
        if (c.outcome != Outcome::kOk && c.outcome != Outcome::kShed) {
          ++serve_in.errors;
        }
      } else if (c.outcome == Outcome::kWrongBytes) {
        result.ledger.correct = false;
      }
      ++serve_in.requests;
      if (c.inline_answer) ++serve_in.inline_answers;
      serve_in.late_max_ms =
          std::max(serve_in.late_max_ms, ms_between(c.due, c.submitted));
    }
    serve_in.backlog_max = std::max(serve_in.backlog_max,
                                    static_cast<double>(phases[k].backlog_max));
  }
  // A server that cannot keep up with the nominal rate stops a generator;
  // each arrival it never sent is a request a user did not get answered.
  const Tail& nominal = phases[0].latency;
  for (std::size_t i = 0; i < phases[0].abandoned; ++i) {
    result.ledger.fail("abandoned");
  }
  serve_in.abandoned = phases[0].abandoned;
  verify_archive(result.ledger, st.dir);

  result.report.push_back(rung_line(phases[0]));
  result.report.push_back(
      fmt("capacity probe: %.1f req/s over %.0f batches of %.0f "
          "requests after a day roll, %.0f outstanding",
          capacity, static_cast<double>(kSaturationRounds),
          static_cast<double>(kSaturationBatch),
          static_cast<double>(kSaturationDepth * kGenerators)) +
      fmt(" (batches %.1f to %.1f req/s)",
          *std::min_element(batch_rates.begin(), batch_rates.end()),
          *std::max_element(batch_rates.begin(), batch_rates.end())));
  for (std::size_t k = 1 + kSaturationRounds; k < phases.size(); ++k) {
    result.report.push_back(rung_line(phases[k]));
  }
  finish_e2e(result, setup_secs, nominal, capacity,
             static_cast<double>(probes_of(st.real[1])));
  result.report.push_back(
      tail_line("query_p50_ms / query_tail_ms", nominal, "requests") +
      fmt(" at %.0f req/s offered", kNominalRate));
  result.report.push_back(
      fmt("query_max_rps = %.1f req/s (tail limit %.0f ms; ladder at "
          "0.8/0.6 x capacity)",
          max_rps, kLatencyLimitMs));
  result.report.push_back(fmt("query_capacity_rps = %.1f req/s", capacity));

  if (spans.on()) {
    common_layers(result, spans, layers);
    serve_in.cache_hits = st.server->cache().hits() - hits0;
    serve_in.cache_misses = st.server->cache().misses() - misses0;
    serve_in.seg_hits = st.reader->cache_hits() - seg_hits0;
    serve_in.seg_misses = st.reader->cache_misses() - seg_misses0;
    for (const auto& c : phases[0].done) {
      serve_in.class_ms[class_of(c.request)].push_back(
          ms_between(c.due, c.done));
    }
    serve_layers(result, serve_in);
    probe_layers(result, spans, relabelled(st.real[0], 1),
                 relabelled(st.real[1], 2), st.dir, 1, 2);
    add_metric(result.layers, "bench.self_ms", spans.uncovered_ms(start, end),
               "ms");
  }
  return result;
}

}  // namespace e2ebench
