#ifndef AUTOEM_OBS_METRICS_H_
#define AUTOEM_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace autoem {
namespace obs {

/// Process-wide metrics: counters, gauges, and fixed-bucket histograms.
///
/// The hot path is lock-free: counters and histograms are sharded into
/// cache-line-padded atomic slots, each thread writes its own shard with a
/// relaxed fetch_add, and shards are only merged when a snapshot is taken.
/// Registration (GetCounter etc.) takes a mutex, so call sites cache the
/// returned handle in a function-local static:
///
///   static obs::Counter* hits =
///       obs::MetricsRegistry::Global().GetCounter("features.cache_hits");
///   hits->Add();
///
/// Handles are valid for the process lifetime; metrics only accumulate
/// (snapshots are cumulative), matching the Prometheus counter model.

/// Shard count; power of two so the thread->shard map is a mask.
inline constexpr size_t kMetricShards = 16;

namespace internal {
/// Stable shard index for the calling thread, assigned round-robin.
size_t ThisThreadShard();
}  // namespace internal

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[internal::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins double value (e.g. current best validation F1).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i]; one
/// overflow bucket catches the rest. Like the counter, writes land in
/// per-thread shards with relaxed atomics and are merged on snapshot.
class Histogram {
 public:
  /// `bounds` must be ascending and non-empty (checked on registration).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  struct Snapshot {
    std::vector<double> bounds;     // upper bounds, ascending
    std::vector<uint64_t> counts;   // bounds.size() + 1 (last = overflow)
    uint64_t count = 0;             // total observations
    double sum = 0.0;               // sum of observed values
  };
  Snapshot Snap() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Default latency buckets in milliseconds: 0.25 ms .. 10 s, roughly
  /// 1-2.5-5 per decade — wide enough for a per-pair feature row and a
  /// full pipeline refit on one scale.
  static std::vector<double> DefaultLatencyBucketsMs();

 private:
  std::vector<double> bounds_;
  size_t row_width_;  // bounds_.size() + 1 slots per shard
  // Flat [shard][bucket] atomics; per-shard sum alongside.
  std::unique_ptr<std::atomic<uint64_t>[]> bucket_counts_;
  std::unique_ptr<std::atomic<double>[]> sums_;
};

/// Named metric families. One global instance; names are dot-separated
/// lower-case paths ("automl.trials", "features.token_cache_hits").
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Find-or-create. The returned pointer is stable for the process
  /// lifetime. A histogram's bounds are fixed by its first registration;
  /// later calls with different bounds get the existing instance.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(
      const std::string& name,
      std::vector<double> bounds = Histogram::DefaultLatencyBucketsMs());

  /// Cumulative snapshot of every registered metric as a JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Keys are sorted, so the layout is stable run to run. ObsSession
  /// writes it to `--metrics-out` through io::AtomicWriteFile.
  std::string SnapshotJson() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace autoem

#endif  // AUTOEM_OBS_METRICS_H_
