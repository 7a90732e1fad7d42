#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "common/macros.h"

namespace dsks::obs {

namespace {

constexpr double kFirstUpperMs = 0.001;  // 1 µs
constexpr double kGrowth = 1.25;

/// Precomputed bucket upper bounds, shared by BucketIndex and rendering.
const std::array<double, Histogram::kNumBuckets>& BucketBounds() {
  static const auto bounds = [] {
    std::array<double, Histogram::kNumBuckets> b{};
    double ub = kFirstUpperMs;
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = ub;
      ub *= kGrowth;
    }
    return b;
  }();
  return bounds;
}

}  // namespace

double HistogramSnapshot::Percentile(int pct) const {
  if (count == 0) {
    return 0.0;
  }
  DSKS_CHECK_MSG(pct >= 0 && pct <= 100, "percentile must be in [0, 100]");
  const uint64_t rank = std::max<uint64_t>(
      1, (count * static_cast<uint64_t>(pct) + 99) / 100);  // ceil, 1-based
  // The extreme ranks are known exactly — the histogram tracks min/max.
  if (rank == 1) {
    return min;
  }
  if (rank >= count) {
    return max;
  }
  uint64_t cum = 0;  // samples in buckets before bucket i
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (cum + buckets[i] >= rank) {
      // Interpolate: model the bucket's samples as evenly spread, each at
      // the midpoint of its 1/n slice, and read the rank-th one. Clamp to
      // the observed range so a lone outlier bucket cannot report a value
      // no sample reached.
      const double lo = i == 0 ? 0.0 : Histogram::BucketUpperBound(i - 1);
      const double hi = Histogram::BucketUpperBound(i);
      const double pos = (static_cast<double>(rank - cum) - 0.5) /
                         static_cast<double>(buckets[i]);
      return std::clamp(lo + pos * (hi - lo), min, max);
    }
    cum += buckets[i];
  }
  return max;  // unreachable: bucket counts always sum to count
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  if (other.count == 0) {
    return;
  }
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

double Histogram::BucketUpperBound(size_t i) {
  DSKS_CHECK(i < kNumBuckets);
  return BucketBounds()[i];
}

size_t Histogram::BucketIndex(double ms) {
  const auto& bounds = BucketBounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), ms);
  return it == bounds.end() ? kNumBuckets - 1
                            : static_cast<size_t>(it - bounds.begin());
}

void Histogram::AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::Record(double ms) {
  buckets_[BucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, ms);
  AtomicMinDouble(&min_, ms);
  AtomicMaxDouble(&max_, ms);
}

void Histogram::MergeFrom(const HistogramSnapshot& other) {
  if (other.count == 0) {
    return;
  }
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (other.buckets[i] != 0) {
      buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, other.sum);
  AtomicMinDouble(&min_, other.min);
  AtomicMaxDouble(&max_, other.max);
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

void MetricsRegistry::BindSource(const std::string& name,
                                 std::function<uint64_t()> read,
                                 SourceKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_[name] = Source{std::move(read), kind};
}

void MetricsRegistry::UnbindSourcesWithPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sources_.lower_bound(prefix); it != sources_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;  // map is sorted; past the prefix range
    }
    it = sources_.erase(it);
  }
}

void MetricsRegistry::ResetOwned() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string Sanitize(const std::string& name) {
  std::string s = "dsks_";
  for (char c : name) {
    s.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return s;
}

template <typename Map, typename ValueFn>
void JsonSection(std::string* out, const char* key, const Map& map,
                 ValueFn value, bool* first_section) {
  if (!*first_section) {
    out->append(",");
  }
  *first_section = false;
  AppendF(out, "\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : map) {
    if (!first) {
      out->append(",");
    }
    first = false;
    AppendF(out, "\"%s\":", name.c_str());
    value(out, v);
  }
  out->append("}");
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first_section = true;
  JsonSection(&out, "counters", counters_,
              [](std::string* o, const std::unique_ptr<Counter>& c) {
                AppendF(o, "%llu",
                        static_cast<unsigned long long>(c->value()));
              },
              &first_section);
  JsonSection(&out, "gauges", gauges_,
              [](std::string* o, const std::unique_ptr<Gauge>& g) {
                AppendF(o, "%.6g", g->value());
              },
              &first_section);
  JsonSection(&out, "sources", sources_,
              [](std::string* o, const Source& src) {
                AppendF(o, "%llu",
                        static_cast<unsigned long long>(src.read()));
              },
              &first_section);
  JsonSection(&out, "histograms", histograms_,
              [](std::string* o, const std::unique_ptr<Histogram>& h) {
                const HistogramSnapshot s = h->Snapshot();
                AppendF(o,
                        "{\"count\":%llu,\"sum_ms\":%.6g,\"min_ms\":%.6g,"
                        "\"max_ms\":%.6g,\"avg_ms\":%.6g,\"p50_ms\":%.6g,"
                        "\"p95_ms\":%.6g,\"p99_ms\":%.6g}",
                        static_cast<unsigned long long>(s.count), s.sum,
                        s.min, s.max, s.avg(), s.Percentile(50),
                        s.Percentile(95), s.Percentile(99));
              },
              &first_section);
  out.append("}");
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string n = Sanitize(name);
    AppendF(&out, "# TYPE %s counter\n%s %llu\n", n.c_str(), n.c_str(),
            static_cast<unsigned long long>(c->value()));
  }
  for (const auto& [name, src] : sources_) {
    const std::string n = Sanitize(name);
    AppendF(&out, "# TYPE %s %s\n%s %llu\n", n.c_str(),
            src.kind == SourceKind::kGauge ? "gauge" : "counter", n.c_str(),
            static_cast<unsigned long long>(src.read()));
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = Sanitize(name);
    AppendF(&out, "# TYPE %s gauge\n%s %.6g\n", n.c_str(), n.c_str(),
            g->value());
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = Sanitize(name);
    const HistogramSnapshot s = h->Snapshot();
    AppendF(&out, "# TYPE %s summary\n", n.c_str());
    AppendF(&out, "%s{quantile=\"0.5\"} %.6g\n", n.c_str(), s.Percentile(50));
    AppendF(&out, "%s{quantile=\"0.95\"} %.6g\n", n.c_str(),
            s.Percentile(95));
    AppendF(&out, "%s{quantile=\"0.99\"} %.6g\n", n.c_str(),
            s.Percentile(99));
    AppendF(&out, "%s_sum %.6g\n%s_count %llu\n", n.c_str(), s.sum,
            n.c_str(), static_cast<unsigned long long>(s.count));
  }
  return out;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

}  // namespace dsks::obs
