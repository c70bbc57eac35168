// Benchmark-side logic that does not depend on a running census: the
// tail-percentile rule, the span recorder, the seeded query schedule and
// the failure ledger. Kept apart from the workloads so the self-tests can
// exercise each piece on small inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mesh/relay.hpp"
#include "net/address.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double median(std::vector<double> xs);

/// A latency summary: the median plus the highest percentile that still
/// has at least ten samples beyond it. With fewer than 21 samples no
/// percentile above the median qualifies and the tail reports the median.
struct Tail {
  double p50 = 0.0;
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> xs);

/// The median of all samples, and as the tail the median, over
/// consecutive windows of `window` samples (in the order given), of each
/// window's tail — steadier run to run than one tail over everything,
/// whose ten samples beyond come from a few bursts. The result's `samples`
/// is the window size; a short last window is dropped. With fewer than
/// two full windows it is tail_of(xs).
Tail windowed_tail(const std::vector<double>& xs, std::size_t window);

/// One recorded span: a benchmark call into a layer, or a benchmark-level
/// grouping of such calls. `key` is the census day or the request id.
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;  // relative to the recorder's origin
  std::int64_t end_ns = 0;
};

/// In-memory span store. Off (untraced runs) it keeps nothing and every
/// call returns id 0; on, spans stay in memory until write_jsonl() at exit.
/// Thread-safe: query generator threads record concurrently.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool on);

  bool on() const { return on_; }
  Clock::time_point origin() const { return origin_; }

  /// A fresh span id, for a grouping span whose children are recorded
  /// before it ends (pass it back as `id`). 0 when off.
  std::uint64_t reserve_id();
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t key = 0, std::uint64_t id = 0);

  std::vector<SpanRecord> spans() const;
  /// Durations (ms) of every span called `name` starting inside
  /// [from, to).
  std::vector<double> durations_ms(const std::string& name,
                                   Clock::time_point from,
                                   Clock::time_point to) const;
  /// Wall time (ms) inside [from, to) that no layer span covers — the
  /// benchmark's own time around its calls (bench.self_ms). Grouping
  /// spans, named "bench.*", are not layers.
  double uncovered_ms(Clock::time_point from, Clock::time_point to) const;

  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Operation accounting. `failed` counts operations the user would see go
/// wrong (stale or shed answers, wrong bytes); `correct` turns false only
/// when an output is wrong, not when it is merely missing.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::uint64_t> failures;  // by reason

  void ok() { ++attempted; }
  void fail(const std::string& reason, bool wrong_output = false);
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Checks a follower's copy of `day` against the census rendering.
void check_follower_day(Ledger& ledger, const laces::mesh::CensusFollower& f,
                        std::uint32_t day, const std::string& expected_csv);

/// How a served answer turned out.
enum class Outcome {
  kOk,
  kShed,             // kOverloaded / kShuttingDown admission refusal
  kError,            // any other typed error
  kStale,            // kUnknownDay for a day the archive has committed
  kUnauthenticated,  // frame fails MAC or structure, or body undecodable
  kWrongBytes,       // decodes, but the content is not what was asked for
};
const char* to_string(Outcome outcome);

/// Authenticates and decodes one response frame for `request`.
/// `expected_export` returns the committed day's CSV, or nullptr when the
/// day is not committed (then kUnknownDay is the right answer).
using ExportLookup = std::function<const std::string*(std::uint32_t day)>;
Outcome classify_response(const std::string& key,
                          std::span<const std::uint8_t> frame,
                          const laces::serve::Request& request,
                          const ExportLookup& expected_export);

/// Books one served answer into the ledger (and returns it).
Outcome account_response(Ledger& ledger, Outcome outcome);

/// One scheduled request of an open-loop rung: due `due_s` seconds after
/// the rung starts.
struct Arrival {
  double due_s = 0.0;
  laces::serve::Request request;
};

/// Seeded request source: Zipf(1) over history prefixes (popularity rank
/// permuted by the seed), export days skewed to the newest week.
class RequestSource {
 public:
  RequestSource(std::vector<laces::net::Prefix> prefixes,
                std::vector<std::uint32_t> days, std::uint64_t seed);

  laces::serve::Request draw(laces::Rng& rng) const;

 private:
  std::vector<laces::net::Prefix> prefixes_;  // rank order
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> days_;  // ascending
};

/// Poisson arrivals at `rate` per second over `duration_s`, one stream per
/// generator thread (each at rate / streams), all drawn from `seed`.
std::vector<std::vector<Arrival>> poisson_schedule(const RequestSource& source,
                                                   double rate,
                                                   double duration_s,
                                                   std::size_t streams,
                                                   std::uint64_t seed);

}  // namespace e2ebench
