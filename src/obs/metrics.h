#ifndef DSKS_OBS_METRICS_H_
#define DSKS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

namespace dsks::obs {

/// Nearest-rank percentile of an already-sorted sample set: the 1-based
/// rank is ceil(pct/100 · n), clamped to [1, n]; p99 of 100 samples is
/// sorted[98], never sorted[99]. Summaries that keep raw samples (the
/// sequential harness) use it; executor and bench summaries come from a
/// Histogram, whose Percentile ranks the same way.
/// `pct` is an integer in [0, 100]; pct = 0 returns the minimum.
double NearestRankPercentile(std::span<const double> sorted, int pct);

/// Monotonically increasing event count. Relaxed atomic: concurrent
/// increments never serialize, reads are cheap and may lag by a few events
/// while writers run (same contract the storage-layer stats always had).
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A count its owner reads exactly (and may reset) that also feeds a
/// registry counter in the same step, so a live scrape sees each event as
/// it happens. The owner resolves `published` once at setup; null keeps
/// the count private.
struct PublishedCounter {
  Counter local;
  Counter* published = nullptr;

  void Add(uint64_t n = 1) {
    local.Add(n);
    if (published != nullptr) {
      published->Add(n);
    }
  }
};

/// Instantaneous value (pool capacity, frames in use, queries in flight).
/// Set is last-write-wins; Add/Sub are atomic CAS deltas, so concurrent
/// up/down movers (in-flight counts, ring occupancy) need no counter pair.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
    }
  }
  void Sub(double v) { Add(-v); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Plain-struct copy of a Histogram, safe to pass around and compare; all
/// derived quantities (avg, percentiles) are computed on the snapshot so a
/// concurrently-updated histogram cannot tear mid-summary.
struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 96;

  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  std::array<uint64_t, kNumBuckets> buckets{};

  double avg() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Nearest-rank percentile over the bucket counts, linearly interpolated
  /// within the bucket holding the rank: the rank-th sample is modelled at
  /// its proportional position inside the bucket (mid-offset, so a
  /// one-sample bucket reads its midpoint), clamped to the observed
  /// [min, max]. Worst-case error is one bucket width (~25% of the value)
  /// when the samples inside the bucket are maximally skewed, but unbiased
  /// in expectation — unlike the upper-bound rule this replaced, which
  /// always overestimated. pct 0 and 100 return the exact observed
  /// min/max.
  double Percentile(int pct) const;

  void MergeFrom(const HistogramSnapshot& other);
};

/// Fixed-bucket latency histogram (milliseconds): 96 geometric buckets
/// with ratio 1.25 starting at 1 µs, covering up to ~27 minutes. Record is
/// lock-free (one relaxed increment plus sum/min/max updates), Merge is a
/// per-bucket addition, so per-worker histograms merged after a run are
/// exactly the histogram a single pooled recorder would have produced.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  /// Upper bound of bucket `i` in ms; values v with
  /// BucketUpperBound(i-1) < v <= BucketUpperBound(i) land in bucket i.
  static double BucketUpperBound(size_t i);
  /// Bucket index that `ms` falls into (out-of-range values clamp to the
  /// first/last bucket).
  static size_t BucketIndex(double ms);

  void Record(double ms);
  void MergeFrom(const HistogramSnapshot& other);
  void Reset();

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot Snapshot() const;

 private:
  static void AtomicAddDouble(std::atomic<double>* a, double v);
  static void AtomicMinDouble(std::atomic<double>* a, double v);
  static void AtomicMaxDouble(std::atomic<double>* a, double v);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// +inf sentinel while empty, so concurrent first Records need no
  /// initialization handshake; Snapshot maps the empty case back to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

/// Process-wide registry of named metrics. Owned metrics (counter / gauge /
/// histogram) are created on first lookup and live for the registry's
/// lifetime, so hot paths resolve a name once at setup and then touch only
/// the returned reference — no lock, no map probe per event.
///
/// Live *sources* expose counters owned elsewhere (the storage layer's
/// relaxed-atomic stats) without copying them: a source is a callback read
/// at dump time. The binder must unbind before the underlying object dies
/// (Database does this in its destructor; see BufferPool::BindMetrics).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. The reference
  /// stays valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a live read-only source; replaces any source of that name.
  void BindSource(const std::string& name, std::function<uint64_t()> read);
  void UnbindSource(const std::string& name);
  /// Drops every source whose name starts with `prefix` (a binder's
  /// teardown path; see class comment).
  void UnbindSourcesWithPrefix(const std::string& prefix);

  /// Zeroes every owned counter/gauge/histogram. Sources are not touched
  /// (their owners reset them, e.g. Database::ResetCounters).
  void ResetOwned();

  /// One JSON object: {"counters":{...},"gauges":{...},"sources":{...},
  /// "histograms":{name:{count,sum_ms,min_ms,max_ms,avg_ms,p50_ms,p95_ms,
  /// p99_ms}}}. Deterministic key order (sorted by name).
  std::string ToJson() const;

  /// Prometheus text exposition: counters and sources as counter samples,
  /// gauges as gauges, histograms as summaries with p50/p95/p99 quantiles.
  /// Names are sanitized ('.', '-' -> '_') and prefixed "dsks_".
  std::string ToPrometheus() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<uint64_t()>> sources_;
};

/// The process-wide registry (executor latencies, CLI dumps). Libraries
/// never bind to it implicitly — tests and tools choose what to expose.
MetricsRegistry& GlobalMetrics();

}  // namespace dsks::obs

#endif  // DSKS_OBS_METRICS_H_
