// Process-wide metrics registry (the observability substrate of laces_obs).
//
// Instruments are labeled counters, gauges and fixed-boundary histograms.
// Registration (name + label lookup) takes a mutex; the returned instrument
// references are stable for the life of the process and every update on them
// is a relaxed std::atomic operation, so the hot paths (one counter add per
// probe) never lock. snapshot() and reset() give tests and exporters a
// consistent, deterministically ordered view.
//
// Concurrency contract (relied on by laces_serve, whose worker pool and
// client threads update instruments concurrently — and checked under
// ThreadSanitizer by tests/test_obs_concurrency.cpp): every instrument
// update (Counter::add, Gauge::set/add, Histogram::observe) and read is
// safe from any thread with no external locking, and concurrent add()s
// never lose increments (fetch_add / CAS retry loops). A Histogram's
// count/sum/bucket fields are each atomic but not updated as one unit, so
// a snapshot taken mid-observe may see count without sum — totals are
// exact once writers quiesce. Counters are cache-line aligned so two hot
// counters never false-share a line between serve workers. The
// single-threaded census path is unchanged: same relaxed atomics as
// before, no new locks anywhere on the update path.
//
// Instrumentation can be switched off at runtime (set_enabled(false), used
// by the overhead bench) or compiled out entirely with -DLACES_OBS_NOOP.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace laces::obs {

/// Label set attached to one instrument, e.g. {{"protocol", "icmp"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

#ifdef LACES_OBS_NOOP
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}
}  // namespace detail
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}
#endif

/// Monotonically increasing event count. Aligned to its own cache line:
/// counters are allocated individually and updated from many threads, and
/// 64-byte alignment keeps two hot counters from false-sharing a line.
class alignas(64) Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (enabled()) value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written floating-point value (rates, list sizes).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) {
      bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
    }
  }
  void add(double delta);
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::uint64_t> bits_{0};  // bit pattern of 0.0 is all-zero
};

/// Fixed-boundary histogram. Boundaries are inclusive upper bounds in
/// ascending order; an implicit +Inf bucket catches the overflow.
class Histogram {
 public:
  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }
  /// Per-bucket (non-cumulative) counts, bounds().size() + 1 entries.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Log-spaced boundaries from `lo` up to at least `hi` with `per_decade`
/// boundaries per factor of 10 — the RTT/latency bucket shape.
std::vector<double> log_buckets(double lo, double hi, int per_decade = 4);

/// Default buckets for millisecond RTTs (0.5 ms .. ~1 s, log-spaced).
std::vector<double> rtt_ms_buckets();

/// Default buckets for simulated stage durations in seconds.
std::vector<double> stage_seconds_buckets();

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricKind k);

/// One instrument's state at snapshot time.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter / gauge value
  // Histogram-only fields:
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // non-cumulative
};

/// Deterministically ordered (name, then serialized labels) snapshot.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* find(std::string_view name, const Labels& labels = {}) const;
  /// Counter/gauge value, or histogram count; 0 when absent.
  double value(std::string_view name, const Labels& labels = {}) const;
};

class Registry {
 public:
  /// The process-wide registry all instrumentation points use.
  static Registry& global();

  /// Get-or-register. Re-requesting the same name+labels returns the same
  /// instrument; requesting it with a different kind is a contract violation.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {});

  MetricsSnapshot snapshot() const;

  /// Zero every instrument's value; registrations (and handed-out
  /// references) stay valid.
  void reset();

  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// The entry for (name, labels), created with its instrument on first
  /// use; `bounds` are a new histogram's bucket bounds.
  Entry& entry_for(std::string_view name, Labels&& labels, MetricKind kind,
                   std::vector<double> bounds = {});

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::size_t> index_;  // key -> entries_ slot
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace laces::obs
