#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace autoem {
namespace obs {

namespace internal {

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

}  // namespace internal

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), row_width_(bounds_.size() + 1) {
  bucket_counts_.reset(new std::atomic<uint64_t>[kMetricShards * row_width_]);
  sums_.reset(new std::atomic<double>[kMetricShards]);
  for (size_t i = 0; i < kMetricShards * row_width_; ++i) {
    bucket_counts_[i].store(0, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kMetricShards; ++i) {
    sums_[i].store(0.0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  // lower_bound: first bound >= value, i.e. Prometheus `le` semantics —
  // an observation equal to a bucket's upper bound counts in that bucket.
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  size_t shard = internal::ThisThreadShard();
  bucket_counts_[shard * row_width_ + bucket].fetch_add(
      1, std::memory_order_relaxed);
  sums_[shard].fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(row_width_, 0);
  for (size_t shard = 0; shard < kMetricShards; ++shard) {
    for (size_t b = 0; b < row_width_; ++b) {
      snap.counts[b] += bucket_counts_[shard * row_width_ + b].load(
          std::memory_order_relaxed);
    }
    snap.sum += sums_[shard].load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.counts) snap.count += c;
  return snap;
}

std::vector<double> Histogram::DefaultLatencyBucketsMs() {
  return {0.25, 0.5, 1.0,   2.5,   5.0,   10.0,   25.0,  50.0,
          100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so worker threads can still bump counters during static
  // destruction of other globals.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  if (bounds.empty()) bounds = Histogram::DefaultLatencyBucketsMs();
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

namespace {

// One `  "family": {...}` member of the snapshot: entries one per line at a
// four-space indent, or `{}` when the family is empty.
void AppendFamily(const char* family, const std::vector<std::string>& entries,
                  bool last, std::string* out) {
  *out += "  \"";
  *out += family;
  *out += "\": {";
  for (size_t i = 0; i < entries.size(); ++i) {
    *out += i == 0 ? "\n    " : ",\n    ";
    *out += entries[i];
  }
  if (!entries.empty()) *out += "\n  ";
  *out += last ? "}\n" : "},\n";
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> entries;
  std::string out = "{\n";
  for (const auto& [name, counter] : counters_) {
    entries.push_back(JsonQuote(name) + ": " +
                      std::to_string(counter->Total()));
  }
  AppendFamily("counters", entries, /*last=*/false, &out);
  entries.clear();
  for (const auto& [name, gauge] : gauges_) {
    entries.push_back(JsonQuote(name) + ": " + JsonNumber(gauge->Value()));
  }
  AppendFamily("gauges", entries, /*last=*/false, &out);
  entries.clear();
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    std::string entry = JsonQuote(name) +
                        ": {\"count\": " + std::to_string(snap.count) +
                        ", \"sum\": " + JsonNumber(snap.sum) +
                        ", \"buckets\": [";
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      if (b > 0) entry += ", ";
      entry += "{\"le\": ";
      entry += b < snap.bounds.size() ? JsonNumber(snap.bounds[b]) : "\"inf\"";
      entry += ", \"count\": " + std::to_string(snap.counts[b]) + "}";
    }
    entries.push_back(entry + "]}");
  }
  AppendFamily("histograms", entries, /*last=*/true, &out);
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace autoem
