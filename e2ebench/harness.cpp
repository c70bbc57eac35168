#include "harness.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace e2ebench {

namespace serve = laces::serve;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : laces::percentile(xs, 50.0);
}

Tail tail_of(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  t.p50 = laces::percentile(xs, 50.0);
  t.value = t.p50;
  const std::size_t n = xs.size();
  // The order statistic at index n - 11 has exactly ten samples above it;
  // under laces::percentile's interpolation it sits at 100 * i / (n - 1).
  if (n >= 21) {
    const std::size_t i = n - 11;
    t.percentile = 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    if (t.percentile > 50.0) t.value = xs[i];
    else t.percentile = 50.0;
  }
  return t;
}

Tail windowed_tail(const std::vector<double>& xs, std::size_t window) {
  if (xs.size() < 2 * window) return tail_of(xs);
  std::vector<double> values;
  Tail t;
  for (std::size_t i = 0; i + window <= xs.size(); i += window) {
    const Tail w = tail_of(std::vector<double>(xs.begin() + i,
                                               xs.begin() + i + window));
    values.push_back(w.value);
    t.percentile = w.percentile;
  }
  // The median over every sample, not of the windows' medians: feed's
  // commits slow as the archive grows, so a median of window medians is
  // the middle window's alone and covers a third of the run.
  t.p50 = median(xs);
  t.value = median(values);
  t.samples = window;
  return t;
}

// --- spans ---

SpanRecorder::SpanRecorder(bool on) : on_(on), origin_(Clock::now()) {
  if (on_) spans_.reserve(1 << 16);
}

std::uint64_t SpanRecorder::reserve_id() {
  return on_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

std::uint64_t SpanRecorder::record(const char* name, Clock::time_point start,
                                   Clock::time_point end, std::uint64_t parent,
                                   std::uint64_t key, std::uint64_t id) {
  if (!on_) return 0;
  SpanRecord s;
  s.id = id != 0 ? id : reserve_id();
  s.name = name;
  s.parent = parent;
  s.key = key;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - origin_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - origin_).count();
  const std::uint64_t out = s.id;
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(s));
  return out;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name,
                                               Clock::time_point from,
                                               Clock::time_point to) const {
  const auto lo = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      from - origin_).count();
  const auto hi = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      to - origin_).count();
  std::vector<double> out;
  std::lock_guard lk(mu_);
  for (const auto& s : spans_) {
    if (s.name == name && s.start_ns >= lo && s.start_ns < hi) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double SpanRecorder::uncovered_ms(Clock::time_point from,
                                  Clock::time_point to) const {
  const auto lo = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      from - origin_).count();
  const auto hi = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      to - origin_).count();
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  {
    std::lock_guard lk(mu_);
    for (const auto& s : spans_) {
      if (s.name.starts_with("bench.")) continue;
      const auto a = std::max(s.start_ns, lo);
      const auto b = std::min(s.end_ns, hi);
      if (a < b) roots.emplace_back(a, b);
    }
  }
  std::sort(roots.begin(), roots.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0, cur_b = -1;
  for (const auto& [a, b] : roots) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return static_cast<double>(std::max<std::int64_t>(0, hi - lo - covered)) /
         1e6;
}

void SpanRecorder::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  std::lock_guard lk(mu_);
  for (const auto& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"key\":" << s.key << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// --- failure accounting ---

void Ledger::fail(const std::string& reason, bool wrong_output) {
  ++attempted;
  ++failed;
  ++failures[reason];
  if (wrong_output) correct = false;
}

void check_follower_day(Ledger& ledger, const laces::mesh::CensusFollower& f,
                        std::uint32_t day, const std::string& expected_csv) {
  if (!f.has_day(day)) {
    ledger.fail("follower_missing_day", /*wrong_output=*/true);
  } else if (f.day_csv(day) != expected_csv) {
    ledger.fail("follower_bytes", /*wrong_output=*/true);
  } else {
    ledger.ok();
  }
}

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kShed: return "shed";
    case Outcome::kError: return "error";
    case Outcome::kStale: return "stale_day";
    case Outcome::kUnauthenticated: return "unauthenticated";
    case Outcome::kWrongBytes: return "wrong_bytes";
  }
  return "?";
}

Outcome classify_response(const std::string& key,
                          std::span<const std::uint8_t> frame,
                          const serve::Request& request,
                          const ExportLookup& expected_export) {
  serve::Response response;
  try {
    const serve::Frame decoded = serve::decode_frame(key, frame);
    if (decoded.kind != serve::FrameKind::kResponse) {
      return Outcome::kUnauthenticated;
    }
    response = serve::decode_response(decoded.payload);
  } catch (const std::exception&) {
    return Outcome::kUnauthenticated;
  }
  const auto* export_req = std::get_if<serve::ExportDayRequest>(&request);
  if (const auto* error = std::get_if<serve::ErrorResponse>(&response)) {
    if (error->code == serve::ErrorCode::kOverloaded ||
        error->code == serve::ErrorCode::kShuttingDown) {
      return Outcome::kShed;
    }
    if (error->code == serve::ErrorCode::kUnknownDay && export_req) {
      return expected_export(export_req->day) != nullptr ? Outcome::kStale
                                                         : Outcome::kOk;
    }
    return Outcome::kError;
  }
  if (export_req) {
    const auto* got = std::get_if<serve::ExportDayResponse>(&response);
    const std::string* want = expected_export(export_req->day);
    if (got == nullptr || want == nullptr || got->day != export_req->day ||
        got->csv != *want) {
      return Outcome::kWrongBytes;
    }
    return Outcome::kOk;
  }
  if (const auto* hist = std::get_if<serve::HistoryRequest>(&request)) {
    const auto* got = std::get_if<serve::HistoryResponse>(&response);
    if (got == nullptr || got->prefix != hist->prefix) {
      return Outcome::kWrongBytes;
    }
    return Outcome::kOk;
  }
  // Summary, stability and intermittent answers only need to decode as
  // the matching response type.
  const bool matches =
      (std::holds_alternative<serve::SummaryRequest>(request) &&
       std::holds_alternative<serve::SummaryResponse>(response)) ||
      (std::holds_alternative<serve::StabilityRequest>(request) &&
       std::holds_alternative<serve::StabilityResponse>(response)) ||
      (std::holds_alternative<serve::IntermittentRequest>(request) &&
       std::holds_alternative<serve::IntermittentResponse>(response));
  return matches ? Outcome::kOk : Outcome::kWrongBytes;
}

Outcome account_response(Ledger& ledger, Outcome outcome) {
  if (outcome == Outcome::kOk) {
    ledger.ok();
  } else {
    ledger.fail(to_string(outcome), outcome == Outcome::kWrongBytes);
  }
  return outcome;
}

// --- query schedule ---

RequestSource::RequestSource(std::vector<laces::net::Prefix> prefixes,
                             std::vector<std::uint32_t> days,
                             std::uint64_t seed)
    : prefixes_(std::move(prefixes)), days_(std::move(days)) {
  if (prefixes_.empty() || days_.empty()) {
    throw std::invalid_argument("RequestSource needs prefixes and days");
  }
  std::sort(prefixes_.begin(), prefixes_.end());
  std::sort(days_.begin(), days_.end());
  // Popularity rank is a seeded permutation of the prefixes.
  laces::Rng rng(seed ^ 0x5a17f00dULL);
  for (std::size_t i = prefixes_.size() - 1; i > 0; --i) {
    std::swap(prefixes_[i], prefixes_[rng.uniform_int(0, i)]);
  }
  zipf_cdf_.resize(prefixes_.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < prefixes_.size(); ++k) {
    sum += 1.0 / static_cast<double>(k + 1);
    zipf_cdf_[k] = sum;
  }
  for (double& c : zipf_cdf_) c /= sum;
}

// The serve/loadgen interactive mix with export-day, as weights out of 16.
constexpr unsigned kSummaryWeight = 4;
constexpr unsigned kStabilityWeight = 2;
constexpr unsigned kHistoryWeight = 8;
constexpr unsigned kIntermittentWeight = 1;
constexpr unsigned kExportDayWeight = 1;

serve::Request RequestSource::draw(laces::Rng& rng) const {
  std::uint64_t pick = rng.uniform_int(
      1, kSummaryWeight + kStabilityWeight + kHistoryWeight +
             kIntermittentWeight + kExportDayWeight);
  if (pick <= kSummaryWeight) return serve::SummaryRequest{};
  pick -= kSummaryWeight;
  if (pick <= kStabilityWeight) return serve::StabilityRequest{};
  pick -= kStabilityWeight;
  if (pick <= kHistoryWeight) {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()),
        prefixes_.size() - 1);
    return serve::HistoryRequest{prefixes_[rank]};
  }
  pick -= kHistoryWeight;
  if (pick <= kIntermittentWeight) return serve::IntermittentRequest{};
  // Three in four exports ask for a day of the newest week.
  const std::size_t week = std::min<std::size_t>(7, days_.size());
  const std::size_t index =
      rng.uniform01() < 0.75
          ? days_.size() - 1 - rng.uniform_int(0, week - 1)
          : rng.uniform_int(0, days_.size() - 1);
  return serve::ExportDayRequest{days_[index]};
}

std::vector<std::vector<Arrival>> poisson_schedule(const RequestSource& source,
                                                   double rate,
                                                   double duration_s,
                                                   std::size_t streams,
                                                   std::uint64_t seed) {
  std::vector<std::vector<Arrival>> out(streams);
  const double mean_gap = static_cast<double>(streams) / rate;
  for (std::size_t s = 0; s < streams; ++s) {
    laces::Rng rng(seed * 0x9e3779b97f4a7c15ULL + s + 1);
    double t = rng.exponential(mean_gap);
    while (t < duration_s) {
      out[s].push_back(Arrival{t, source.draw(rng)});
      t += rng.exponential(mean_gap);
    }
  }
  return out;
}

}  // namespace e2ebench
