#include "serve/server.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "obs/flightrec.hpp"
#include "obs/trace.hpp"

namespace laces::serve {
namespace {

double micros_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wire tag of a request (variant index + 1, as net/codec.hpp encodes it)
/// — the flight recorder's per-event request-class code.
std::uint16_t request_tag(const Request& request) {
  return static_cast<std::uint16_t>(request.index() + 1);
}

StageLatency stage_of(const char* name, const obs::LogHistogram& h) {
  StageLatency s;
  s.stage = name;
  s.count = h.count();
  s.p50_us = h.p50();
  s.p99_us = h.p99();
  s.p999_us = h.p999();
  s.max_us = h.max();
  return s;
}

}  // namespace

std::future<std::vector<std::uint8_t>> Connection::submit(
    std::vector<std::uint8_t> frame) {
  // The server keeps a shared_ptr so the connection (and its in-flight
  // counter) stays alive while the job sits in the queue.
  return server_->submit(shared_from_this(), std::move(frame));
}

Server::Server(store::ArchiveReader& reader, ServerConfig config)
    : reader_(reader),
      config_(std::move(config)),
      cache_(config_.cache_shards, config_.cache_entries_per_shard,
             config_.negative_entries_per_shard),
      engine_(reader) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.max_inflight_per_connection == 0) {
    config_.max_inflight_per_connection = 1;
  }
  auto& reg = obs::Registry::global();
  executed_counter_ = &reg.counter("laces_serve_requests_executed_total");
  shed_counter_ = &reg.counter("laces_serve_requests_shed_total");
  auth_failure_counter_ = &reg.counter("laces_serve_auth_failures_total");
  error_counter_ = &reg.counter("laces_serve_error_responses_total");
  latency_us_ = &reg.histogram("laces_serve_request_micros",
                               obs::log_buckets(10.0, 1e6, 4));
  if (config_.start_workers) start();
}

Server::~Server() { drain(); }

std::shared_ptr<Connection> Server::connect() {
  const std::uint64_t id =
      next_connection_id_.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<Connection>(new Connection(this, id));
}

void Server::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  if (started_) return;
  started_ = true;
  workers_.reserve(config_.threads);
  for (std::size_t i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  s.requests_executed = requests_executed_.load(std::memory_order_relaxed);
  s.requests_shed = requests_shed_.load(std::memory_order_relaxed);
  s.auth_failures = auth_failures_.load(std::memory_order_relaxed);
  s.response_cache_hits = cache_.hits();
  s.response_cache_misses = cache_.misses();
  s.response_cache_evictions = cache_.evictions();
  s.response_cache_entries = cache_.size();
  s.negative_cache_hits = cache_.negative_hits();
  s.negative_cache_entries = cache_.negative_size();
  s.segment_cache_hits = reader_.cache_hits();
  s.segment_cache_misses = reader_.cache_misses();
  const auto& frec = obs::FlightRecorder::global();
  s.flightrec_recorded = frec.recorded();
  s.flightrec_overwritten = frec.overwritten();
  s.workers = static_cast<std::uint32_t>(config_.threads);
  s.queue_capacity = static_cast<std::uint32_t>(config_.queue_capacity);
  s.active_spans =
      static_cast<std::uint32_t>(obs::Tracer::global().active_count());
  {
    std::lock_guard lock(queue_mutex_);
    s.queue_depth = static_cast<std::uint32_t>(queue_.size());
    s.draining = draining_;
  }
  return s;
}

std::vector<StageLatency> Server::latency_stages() const {
  return {stage_of("queue_wait", queue_wait_us_),
          stage_of("archive_read", archive_read_us_),
          stage_of("render", render_us_), stage_of("total", total_us_)};
}

Response Server::admin_response(const Request& request) const {
  if (std::holds_alternative<StatsRequest>(request)) {
    return StatsResponse{stats()};
  }
  if (std::holds_alternative<MeshStatsRequest>(request)) {
    // A plain archive server has no mesh: the empty snapshot is the honest
    // answer, and a relay-backed server delegates to its relay.
    return mesh_stats_provider_ ? mesh_stats_provider_() : MeshStatsResponse{};
  }
  if (std::holds_alternative<LatencyRequest>(request)) {
    return LatencyResponse{latency_stages()};
  }
  if (const auto* req = std::get_if<TraceTailRequest>(&request)) {
    auto& tracer = obs::Tracer::global();
    TraceTailResponse resp;
    resp.dropped = tracer.dropped();
    auto records = tracer.snapshot();
    const std::size_t keep =
        req->max == 0 ? records.size()
                      : std::min<std::size_t>(req->max, records.size());
    resp.spans.reserve(keep);
    for (std::size_t i = records.size() - keep; i < records.size(); ++i) {
      const auto& rec = records[i];
      resp.spans.push_back(
          {rec.id, rec.parent, rec.name, rec.start_ns, rec.end_ns});
    }
    return resp;
  }
  const auto* req = std::get_if<FlightRecTailRequest>(&request);
  FlightRecTailResponse resp;
  const auto tail =
      obs::FlightRecorder::global().merged_tail(req ? req->max : 0);
  resp.events.reserve(tail.size());
  for (const auto& e : tail) {
    FlightEvent out;
    out.wall_ns = e.record.wall_ns;
    out.sim_ns = e.record.sim_ns;
    out.a = e.record.a;
    out.seq = e.seq;
    out.b = e.record.b;
    out.ring = e.ring;
    out.code = e.record.code;
    out.kind = e.record.kind;
    resp.events.push_back(out);
  }
  return resp;
}

void Server::drain() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  {
    std::lock_guard lock(queue_mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
  }
  queue_cv_.notify_all();
  if (!started_) {
    // Pool never ran: fail queued jobs rather than leaving futures hanging.
    std::deque<Job> orphaned;
    {
      std::lock_guard lock(queue_mutex_);
      orphaned.swap(queue_);
    }
    for (auto& job : orphaned) {
      job.connection->inflight_.fetch_sub(1, std::memory_order_relaxed);
      job.promise.set_value(error_frame(job.request_id,
                                        ErrorCode::kShuttingDown,
                                        "server drained before start"));
    }
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  // Publish final tail latencies as gauges so run reports (and their
  // health rules) can see them after the server object is gone.
  auto& reg = obs::Registry::global();
  reg.gauge("laces_serve_total_p50_us").set(total_us_.p50());
  reg.gauge("laces_serve_total_p99_us").set(total_us_.p99());
  reg.gauge("laces_serve_total_p999_us").set(total_us_.p999());
  reg.gauge("laces_serve_queue_wait_p999_us").set(queue_wait_us_.p999());
  reg.gauge("laces_serve_archive_read_p999_us").set(archive_read_us_.p999());
  reg.gauge("laces_serve_render_p999_us").set(render_us_.p999());
}

std::size_t Server::queue_depth() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

std::vector<std::uint8_t> Server::respond(
    std::uint64_t request_id, std::span<const std::uint8_t> body) const {
  return encode_frame(config_.key, FrameKind::kResponse, request_id, body);
}

std::vector<std::uint8_t> Server::error_frame(
    std::uint64_t request_id, ErrorCode code, std::string message,
    std::uint32_t retry_after_ms) const {
  ErrorResponse error;
  error.code = code;
  error.message = std::move(message);
  error.retry_after_ms = retry_after_ms;
  error_counter_->add(1);
  return respond(request_id, encode_response(Response(std::move(error))));
}

std::future<std::vector<std::uint8_t>> Server::submit(
    std::shared_ptr<Connection> connection, std::vector<std::uint8_t> frame) {
  std::promise<std::vector<std::uint8_t>> promise;
  auto future = promise.get_future();

  // Authenticate and parse on the client thread: a forged or garbled frame
  // must never consume a queue slot or a worker.
  Frame parsed;
  try {
    parsed = decode_frame(config_.key, frame);
    if (parsed.kind != FrameKind::kRequest) {
      throw ProtocolError("frame: expected a request frame");
    }
  } catch (const ProtocolError& e) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    auth_failure_counter_->add(1);
    promise.set_value(error_frame(0, ErrorCode::kBadRequest, e.what()));
    return future;
  }

  Request request;
  try {
    request = decode_request(parsed.payload);
  } catch (const ProtocolError& e) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    auth_failure_counter_->add(1);
    obs::FlightRecorder::global().record(obs::FrEvent::kAuthFailure);
    promise.set_value(
        error_frame(parsed.request_id, ErrorCode::kBadRequest, e.what()));
    return future;
  }

  // Introspection requests are answered inline on the submitting thread,
  // before cache, admission and drain checks: they never occupy a worker
  // or a queue slot, are never cached (the answer is the current moment),
  // and stay answerable while the server drains — an overloaded or
  // shutting-down server can still be asked what is wrong with it.
  if (is_admin_request(request)) {
    promise.set_value(respond(
        parsed.request_id, encode_response(admin_response(request))));
    return future;
  }

  // Canonicalize: the cache key is our encoding of the request, not the
  // client's bytes, so equivalent requests share one entry.
  std::vector<std::uint8_t> canonical = encode_request(request);

  // Cache hits are answered right here on the client thread.
  if (auto body = cache_.lookup(canonical)) {
    obs::FlightRecorder::global().record(obs::FrEvent::kCacheHit,
                                         request_tag(request));
    promise.set_value(respond(parsed.request_id, *body));
    return future;
  }
  obs::FlightRecorder::global().record(obs::FrEvent::kCacheMiss,
                                       request_tag(request));

  // Admission control. Per-connection cap first (cheap, no lock), then the
  // bounded queue. Both failures shed with a retry-after hint.
  const std::size_t inflight =
      connection->inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (inflight > config_.max_inflight_per_connection) {
    connection->inflight_.fetch_sub(1, std::memory_order_relaxed);
    requests_shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->add(1);
    obs::FlightRecorder::global().record(obs::FrEvent::kRequestShed, 1,
                                         parsed.request_id);
    promise.set_value(error_frame(
        parsed.request_id, ErrorCode::kOverloaded,
        "connection in-flight cap reached", config_.retry_after_ms));
    return future;
  }

  Job job;
  job.connection = std::move(connection);
  job.request_id = parsed.request_id;
  job.canonical = std::move(canonical);
  job.request = std::move(request);
  job.promise = std::move(promise);
  job.submitted = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(queue_mutex_);
    if (draining_) {
      job.connection->inflight_.fetch_sub(1, std::memory_order_relaxed);
      job.promise.set_value(error_frame(job.request_id,
                                        ErrorCode::kShuttingDown,
                                        "server is draining"));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      job.connection->inflight_.fetch_sub(1, std::memory_order_relaxed);
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
      shed_counter_->add(1);
      obs::FlightRecorder::global().record(obs::FrEvent::kRequestShed, 2,
                                           job.request_id);
      job.promise.set_value(error_frame(job.request_id, ErrorCode::kOverloaded,
                                        "request queue full",
                                        config_.retry_after_ms));
      return future;
    }
    obs::FlightRecorder::global().record(
        obs::FrEvent::kRequestBegin, request_tag(job.request), job.request_id);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return future;
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
    }

    const auto t0 = std::chrono::steady_clock::now();
    queue_wait_us_.observe(
        std::chrono::duration<double, std::micro>(t0 - job.submitted).count());
    Response response = execute(job.request);
    const auto t1 = std::chrono::steady_clock::now();
    archive_read_us_.observe(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    std::vector<std::uint8_t> body = encode_response(response);

    // Only successful responses are cached positively; errors stay out so
    // a healed archive (or a drained overload) is retried at full
    // fidelity. The one exception is kUnknownDay: the day's absence is a
    // durable fact of the (immutable) manifest, so its error body goes to
    // the bounded negative arena — repeated absent-day lookups stop
    // re-walking the archive. The arena is cleared with the rest of the
    // cache when an append changes what exists (mesh relays do this on
    // day commit).
    if (!std::holds_alternative<ErrorResponse>(response)) {
      cache_.insert(job.canonical,
                    std::make_shared<const std::vector<std::uint8_t>>(body));
    } else if (std::get<ErrorResponse>(response).code ==
               ErrorCode::kUnknownDay) {
      cache_.insert_negative(
          job.canonical,
          std::make_shared<const std::vector<std::uint8_t>>(body));
    }
    render_us_.observe(micros_since(t1));
    requests_executed_.fetch_add(1, std::memory_order_relaxed);
    executed_counter_->add(1);
    latency_us_->observe(micros_since(t0));
    const double total_us = micros_since(job.submitted);
    total_us_.observe(total_us);
    std::uint16_t end_code = 0;
    if (const auto* error = std::get_if<ErrorResponse>(&response)) {
      end_code = static_cast<std::uint16_t>(error->code);
    }
    obs::FlightRecorder::global().record(
        obs::FrEvent::kRequestEnd, end_code, job.request_id,
        static_cast<std::uint32_t>(total_us));

    job.connection->inflight_.fetch_sub(1, std::memory_order_relaxed);
    job.promise.set_value(respond(job.request_id, body));
  }
}

Response Server::execute(const Request& request) {
  try {
    return std::visit(
        [this](const auto& req) -> Response {
          using T = std::decay_t<decltype(req)>;
          if constexpr (std::is_same_v<T, SummaryRequest>) {
            // Manifest-only: no segment reads, no engine state.
            return SummaryResponse{store::QueryEngine(reader_).summary()};
          } else if constexpr (std::is_same_v<T, StabilityRequest>) {
            std::lock_guard lock(engine_mutex_);
            return StabilityResponse{engine_.stability()};
          } else if constexpr (std::is_same_v<T, HistoryRequest>) {
            // History walks the (thread-safe) segment cache; the engine
            // wrapper itself is stateless for this query.
            HistoryResponse resp;
            resp.prefix = req.prefix;
            resp.days = store::QueryEngine(reader_).history(req.prefix);
            return resp;
          } else if constexpr (std::is_same_v<T, IntermittentRequest>) {
            std::lock_guard lock(engine_mutex_);
            IntermittentResponse resp;
            resp.anycast_based = engine_.intermittent_anycast_based();
            resp.gcd = engine_.intermittent_gcd();
            return resp;
          } else if constexpr (std::is_same_v<T, ExportDayRequest>) {
            if (reader_.manifest().find(req.day) == nullptr) {
              ErrorResponse error;
              error.code = ErrorCode::kUnknownDay;
              error.message =
                  "day " + std::to_string(req.day) + " is not in the archive";
              return error;
            }
            ExportDayResponse resp;
            resp.day = req.day;
            std::ostringstream csv;
            reader_.export_csv(req.day, csv);
            resp.csv = csv.str();
            return resp;
          } else {
            // Admin requests are intercepted in submit() and never reach a
            // worker; answering here too keeps execute() total over the
            // Request variant.
            return admin_response(Request(req));
          }
        },
        request);
  } catch (const store::ArchiveError& e) {
    // The same condition `laces query` reports as a line-anchored error
    // (e.g. a segment failing its SHA-256 footer check) becomes a typed
    // response here — corruption is surfaced, never silently served.
    ErrorResponse error;
    error.code = ErrorCode::kCorruptArchive;
    error.message = e.what();
    return error;
  }
}

}  // namespace laces::serve
