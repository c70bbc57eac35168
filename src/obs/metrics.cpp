#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace laces::obs {
namespace {

/// Stable registry key: name plus sorted label pairs.
std::string make_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

void Gauge::add(double delta) {
  if (!enabled()) return;
  std::uint64_t old_bits = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      old_bits, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old_bits) + delta),
      std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  expects(std::is_sorted(bounds_.begin(), bounds_.end()),
          "histogram bounds ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto slot = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[slot].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      old_bits, std::bit_cast<std::uint64_t>(std::bit_cast<double>(old_bits) + v),
      std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> log_buckets(double lo, double hi, int per_decade) {
  expects(lo > 0.0 && hi > lo, "log bucket range positive and increasing");
  expects(per_decade >= 1, "at least one boundary per decade");
  std::vector<double> bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  double b = lo;
  while (b < hi * step) {
    bounds.push_back(b);
    b *= step;
  }
  return bounds;
}

std::vector<double> rtt_ms_buckets() { return log_buckets(0.5, 1000.0, 4); }

std::vector<double> stage_seconds_buckets() {
  return log_buckets(0.01, 10000.0, 2);
}

std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  const Labels wanted = sorted_labels(labels);
  for (const auto& s : samples) {
    if (s.name == name && s.labels == wanted) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value(std::string_view name, const Labels& labels) const {
  const auto* s = find(name, labels);
  if (!s) return 0.0;
  return s->kind == MetricKind::kHistogram ? static_cast<double>(s->count)
                                           : s->value;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::entry_for(std::string_view name, Labels&& labels,
                                     MetricKind kind,
                                     std::vector<double> bounds) {
  Labels sorted = sorted_labels(std::move(labels));
  const std::string key = make_key(name, sorted);
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = *entries_[it->second];
    expects(entry.kind == kind, "metric re-registered with the same kind");
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::move(sorted);
  entry->kind = kind;
  // Created under the lock, so racing first registrations share one
  // instrument instead of replacing each other's.
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter.reset(new Counter());
      break;
    case MetricKind::kGauge:
      entry->gauge.reset(new Gauge());
      break;
    case MetricKind::kHistogram:
      entry->histogram.reset(new Histogram(std::move(bounds)));
      break;
  }
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *entry_for(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *entry_for(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::vector<double> bounds,
                               Labels labels) {
  return *entry_for(name, std::move(labels), MetricKind::kHistogram,
                    std::move(bounds))
              .histogram;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.samples.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSample s;
      s.name = entry->name;
      s.labels = entry->labels;
      s.kind = entry->kind;
      switch (entry->kind) {
        case MetricKind::kCounter:
          s.value = static_cast<double>(entry->counter->value());
          break;
        case MetricKind::kGauge:
          s.value = entry->gauge->value();
          break;
        case MetricKind::kHistogram:
          s.count = entry->histogram->count();
          s.sum = entry->histogram->sum();
          s.bounds = entry->histogram->bounds();
          s.bucket_counts = entry->histogram->bucket_counts();
          break;
      }
      snap.samples.push_back(std::move(s));
    }
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case MetricKind::kCounter:
        entry->counter->value_.store(0, std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        entry->gauge->bits_.store(0, std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        auto& h = *entry->histogram;
        for (std::size_t i = 0; i <= h.bounds_.size(); ++i) h.buckets_[i] = 0;
        h.count_.store(0, std::memory_order_relaxed);
        h.sum_bits_.store(0, std::memory_order_relaxed);
        break;
      }
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace laces::obs
