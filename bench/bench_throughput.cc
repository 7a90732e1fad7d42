// Concurrent query throughput: many SK / diversified searches sharing one
// disk-resident SIF index and one LRU buffer pool, executed by the
// QueryExecutor thread pool at 1/2/4/8 threads. The paper's experiments
// (§5) are sequential; this bench measures what the latched storage layer
// adds on top — aggregate queries/sec and tail latency under concurrency.
//
// Knobs: DSKS_BENCH_SCALE, DSKS_BENCH_QUERIES (as everywhere),
// DSKS_BENCH_THREADS (comma list, default "1,2,4,8"),
// DSKS_IO_DELAY_US (per-read simulated latency, default 50),
// DSKS_BENCH_SAMPLE (trace 1-in-N queries on the timed path into a flight
// recorder, default 0 = off so the perf baseline stays comparable; the
// check.sh overhead gate compares a sampled run against the unsampled
// smoke). To scrape /metrics, /varz and /tracez live, run
// `dsks_cli serve --sample N` instead.
// Flags: --backend=sim|file and --o-direct (see BenchBackend), --cold
// (the prefetch off/on A/B on a pool emptied before every query).
//
// Besides the table, every measurement is emitted as one JSON line
// (prefix "JSON ") for scripted consumption. Latency avg/p50/p95/p99 in
// every record come from the latency histogram (interpolated within one
// bucket), so "p50_ms" equals "hist_p50_ms". The measured series run
// untraced unless DSKS_BENCH_SAMPLE is set (each record says so via
// "sample_rate"/"sampled_queries"); a separate single-threaded traced
// pass per workload emits a "phase_profile" record attributing time and
// I/O to the query phases.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "harness/query_executor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

using namespace dsks;         // NOLINT
using namespace dsks::bench;  // NOLINT

namespace {

std::vector<size_t> ThreadCountsFromEnv() {
  const char* s = std::getenv("DSKS_BENCH_THREADS");
  if (s == nullptr) {
    return {1, 2, 4, 8};
  }
  std::vector<size_t> counts;
  const std::string csv = s;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    const size_t n =
        static_cast<size_t>(std::atoll(csv.substr(pos, comma - pos).c_str()));
    if (n > 0) {
      counts.push_back(n);
    }
    pos = comma + 1;
  }
  return counts.empty() ? std::vector<size_t>{1} : counts;
}

/// Accumulates every measurement for the BENCH_throughput.json artifact.
std::vector<std::string>& JsonRecords() {
  static std::vector<std::string> records;
  return records;
}

/// Set once in main from BenchBackend; stamped into every JSON record so
/// sim and file numbers can never be compared silently.
const char* g_backend_name = "sim";

/// Sampled-tracing policy for the measured series, from DSKS_BENCH_SAMPLE.
/// Off by default: a sampled run is a different experiment than the perf
/// baseline, and every record says which one it was.
obs::TraceSamplerConfig g_sampling;

/// Sink for the sampled queries' summaries; null unless DSKS_BENCH_SAMPLE
/// is set.
obs::FlightRecorder* g_recorder = nullptr;

void EmitJson(const char* workload, const ThroughputMetrics& m,
              double speedup) {
  // Every latency field comes from the drained histogram, so p50_ms and
  // p99_ms repeat hist_p50_ms and hist_p99_ms; the schema keeps both.
  // Exact nearest-rank percentiles need raw samples, which only the
  // sequential harness and perfbench's client keep.
  // "cold":0 marks the warm-cache regime — the perf gate refuses to
  // compare cold and warm records (different experiments).
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"throughput\",\"backend\":\"%s\",\"workload\":\"%s\","
      "\"cold\":0,\"prefetch\":1,\"threads\":%zu,"
      "\"queries\":%zu,\"wall_ms\":%.2f,\"qps\":%.1f,\"avg_ms\":%.3f,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"speedup\":%.2f,"
      "\"errors\":%llu,\"error_rate\":%.6f,"
      "\"hist_count\":%llu,\"hist_p50_ms\":%.3f,\"hist_p99_ms\":%.3f,"
      "\"sample_rate\":%u,\"sampled_queries\":%llu}",
      g_backend_name, workload, m.num_threads,
      m.queries, m.wall_millis, m.qps,
      m.avg_millis,
      m.p50_millis, m.p95_millis, m.p99_millis, speedup,
      static_cast<unsigned long long>(m.errors), m.error_rate,
      static_cast<unsigned long long>(m.histogram.count),
      m.histogram.Percentile(50), m.histogram.Percentile(99), m.sample_rate,
      static_cast<unsigned long long>(m.sampled));
  std::printf("JSON %s\n", buf);
  JsonRecords().push_back(buf);
}

/// Cold-cache A/B: single-threaded, the buffer pool cleared before every
/// query so each one pays its full miss path — the regime where batched
/// misses and readahead show up (a warm pool hides them). Runs the
/// workload twice, prefetch off then on; the off run is the baseline the
/// on run's pool_misses reduction is judged against (EXPERIMENTS.md).
void RunColdSeries(const char* workload, Database* db, const Workload& wl,
                   bool div) {
  // Sleeping delay, not the sequential harness's busy-wait: a blocking
  // read that frees the core, like the concurrent series.
  ScopedIoDelay delay(db, /*yielding=*/true);
  TablePrinter table({"prefetch", "queries", "wall ms", "qps", "avg ms",
                      "p95 ms", "misses", "reads", "pf issued", "pf hits",
                      "pf wasted", "pf dropped"});
  QueryContext ctx;
  uint64_t baseline_misses = 0;
  for (int mode = 0; mode < 2; ++mode) {
    const bool prefetch_on = mode == 1;
    db->SetPrefetchEnabled(prefetch_on);
    db->ResetCounters();
    obs::Histogram hist;
    const auto batch_start = std::chrono::steady_clock::now();
    for (const WorkloadQuery& wq : wl.queries) {
      const Status cleared = db->pool()->Clear();
      DSKS_CHECK_MSG(cleared.ok(), "cold-cache clear on a faulty disk");
      const auto q_start = std::chrono::steady_clock::now();
      if (div) {
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = 10;
        dq.lambda = 0.8;
        DivSearchOutput out;
        DSKS_CHECK(
            db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &out, &ctx).ok());
      } else {
        std::vector<SkResult> results;
        DSKS_CHECK(db->RunSkQuery(wq.sk, wq.edge, &results, &ctx).ok());
      }
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - q_start)
              .count();
      hist.Record(ms);
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - batch_start)
                               .count();
    const obs::HistogramSnapshot hs = hist.Snapshot();
    const size_t n = hs.count;
    const double qps = wall_ms > 0.0 ? 1000.0 * n / wall_ms : 0.0;
    const BufferPoolStatsSnapshot pool = db->pool()->stats_snapshot();
    const uint64_t reads = db->disk()->stats_snapshot().reads;
    if (!prefetch_on) {
      baseline_misses = pool.misses;
    }
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"throughput\",\"backend\":\"%s\",\"workload\":\"%s\","
        "\"cold\":1,\"prefetch\":%d,\"threads\":1,"
        "\"queries\":%zu,\"wall_ms\":%.2f,\"qps\":%.1f,\"avg_ms\":%.3f,"
        "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,\"speedup\":1.00,"
        "\"errors\":0,\"error_rate\":0,"
        "\"hist_count\":%llu,\"hist_p50_ms\":%.3f,\"hist_p99_ms\":%.3f,"
        "\"sample_rate\":0,\"sampled_queries\":0,"
        "\"pool_misses\":%llu,\"disk_reads\":%llu,"
        "\"prefetch_issued\":%llu,\"prefetch_hits\":%llu,"
        "\"prefetch_wasted\":%llu,\"prefetch_dropped\":%llu}",
        g_backend_name, workload, prefetch_on ? 1 : 0,
        n, wall_ms, qps,
        hs.avg(), hs.Percentile(50), hs.Percentile(95), hs.Percentile(99),
        static_cast<unsigned long long>(hs.count), hs.Percentile(50),
        hs.Percentile(99), static_cast<unsigned long long>(pool.misses),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(pool.prefetch_issued),
        static_cast<unsigned long long>(pool.prefetch_hits),
        static_cast<unsigned long long>(pool.prefetch_wasted),
        static_cast<unsigned long long>(pool.prefetch_dropped));
    std::printf("JSON %s\n", buf);
    JsonRecords().push_back(buf);
    table.AddRow({prefetch_on ? "on" : "off", std::to_string(n),
                  TablePrinter::Fmt(wall_ms, 1), TablePrinter::Fmt(qps, 1),
                  TablePrinter::Fmt(hs.avg(), 3),
                  TablePrinter::Fmt(hs.Percentile(95), 3),
                  std::to_string(pool.misses),
                  std::to_string(reads), std::to_string(pool.prefetch_issued),
                  std::to_string(pool.prefetch_hits),
                  std::to_string(pool.prefetch_wasted),
                  std::to_string(pool.prefetch_dropped)});
    if (prefetch_on && baseline_misses > 0) {
      std::printf("[%s cold] blocking misses: %llu -> %llu (%.1f%% fewer)\n",
                  workload,
                  static_cast<unsigned long long>(baseline_misses),
                  static_cast<unsigned long long>(pool.misses),
                  100.0 * (1.0 - static_cast<double>(pool.misses) /
                                     static_cast<double>(baseline_misses)));
    }
  }
  db->SetPrefetchEnabled(true);
  std::printf("\n[%s cold-cache A/B]\n", workload);
  table.Print();
}

void EmitPhaseProfile(const char* workload, Database* db, const Workload& wl,
                      bool div) {
  // Spin-wait delay like the sequential harness so phase times include
  // the simulated I/O cost. Database::Run* binds the trace to the
  // context's own I/O counters.
  ScopedIoDelay delay(db);
  db->ResetCounters();
  obs::QueryTrace trace;
  QueryContext ctx;
  ctx.trace = &trace;
  const size_t n = std::min<size_t>(wl.queries.size(), 32);
  for (size_t i = 0; i < n; ++i) {
    const WorkloadQuery& wq = wl.queries[i];
    if (div) {
      DivQuery dq;
      dq.sk = wq.sk;
      dq.k = 10;
      dq.lambda = 0.8;
      DivSearchOutput out;
      DSKS_CHECK(
          db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &out, &ctx).ok());
    } else {
      std::vector<SkResult> results;
      DSKS_CHECK(db->RunSkQuery(wq.sk, wq.edge, &results, &ctx).ok());
    }
  }
  const auto totals = trace.AggregateByPhase();
  std::string buf;
  char item[256];
  std::snprintf(item, sizeof(item),
                "{\"bench\":\"throughput\",\"backend\":\"%s\","
                "\"workload\":\"%s\",\"queries\":%zu,\"phase_profile\":{",
                g_backend_name, workload, n);
  buf += item;
  bool first = true;
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    const auto& t = totals[p];
    if (t.spans == 0) {
      continue;
    }
    std::snprintf(item, sizeof(item),
                  "%s\"%s\":{\"spans\":%llu,\"ms\":%.3f,\"pool_hits\":%llu,"
                  "\"pool_misses\":%llu,\"disk_reads\":%llu,"
                  "\"prefetched_pages\":%llu}",
                  first ? "" : ",", obs::PhaseName(static_cast<obs::Phase>(p)),
                  static_cast<unsigned long long>(t.spans),
                  static_cast<double>(t.exclusive_ns) / 1e6,
                  static_cast<unsigned long long>(t.io.pool_hits),
                  static_cast<unsigned long long>(t.io.pool_misses),
                  static_cast<unsigned long long>(t.io.disk_reads),
                  static_cast<unsigned long long>(t.io.prefetched_pages));
    buf += item;
    first = false;
  }
  buf += "}}";
  std::printf("JSON %s\n", buf.c_str());
  JsonRecords().push_back(buf);
}

void RunSeries(const char* workload, Database* db, const Workload& wl,
               const std::vector<size_t>& thread_counts, size_t repeat,
               bool div) {
  TablePrinter table({"threads", "queries", "wall ms", "qps", "avg ms",
                      "p50 ms", "p95 ms", "p99 ms", "speedup"});
  double base_qps = 0.0;
  for (size_t threads : thread_counts) {
    db->ResetCounters();
    const ThroughputMetrics m =
        div ? RunDivWorkloadConcurrent(db, wl, /*k=*/10, /*lambda=*/0.8,
                                       /*use_com=*/true, threads, repeat,
                                       g_sampling, g_recorder)
            : RunSkWorkloadConcurrent(db, wl, threads, repeat, g_sampling,
                                      g_recorder);
    if (base_qps == 0.0) {
      base_qps = m.qps;
    }
    const double speedup = base_qps > 0.0 ? m.qps / base_qps : 0.0;
    table.AddRow({std::to_string(m.num_threads), std::to_string(m.queries),
                  TablePrinter::Fmt(m.wall_millis, 1),
                  TablePrinter::Fmt(m.qps, 1), TablePrinter::Fmt(m.avg_millis, 3),
                  TablePrinter::Fmt(m.p50_millis, 3),
                  TablePrinter::Fmt(m.p95_millis, 3),
                  TablePrinter::Fmt(m.p99_millis, 3),
                  TablePrinter::Fmt(speedup, 2)});
    EmitJson(workload, m, speedup);
  }
  std::printf("\n[%s]\n", workload);
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  bool cold = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cold") == 0) {
      cold = true;
    }
  }

  PrintHeader(cold ? "Cold-cache query cost, prefetch off vs on"
                   : "Concurrent query throughput vs thread count",
              "no paper figure — production-scaling experiment");
  BenchBackend backend(argc, argv);
  g_backend_name = backend.name();
  std::printf("storage backend: %s%s\n", g_backend_name,
              cold ? " (cold cache)" : "");
  const size_t num_queries = QueriesFromEnv(200);
  const std::vector<size_t> thread_counts = ThreadCountsFromEnv();
  // Every thread count processes the same total batch, so wall time (and
  // qps) are directly comparable across rows.
  const size_t repeat = 4;

  if (const char* env = std::getenv("DSKS_BENCH_SAMPLE");
      env != nullptr && std::atoi(env) > 0) {
    g_sampling.sample_every = static_cast<uint32_t>(std::atoi(env));
    g_sampling.seed = 42;
    std::printf("sampled tracing: 1 in %u\n", g_sampling.sample_every);
  }

  Database db(Scaled(PresetNA()), backend.options());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  // Only sampled queries reach the recorder here: the bench sets no
  // slow-query threshold and runs fault-free.
  std::optional<obs::FlightRecorder> recorder;
  if (g_sampling.sample_every > 0) {
    g_recorder = &recorder.emplace();
  }

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 4242;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  if (cold) {
    RunColdSeries("sk", &db, wl, /*div=*/false);
    RunColdSeries("div-com", &db, wl, /*div=*/true);
    EmitPhaseProfile("sk", &db, wl, /*div=*/false);
    WriteJsonArrayFile("BENCH_throughput.json", JsonRecords());
    std::printf(
        "\nExpected: with prefetch on, pool_misses (blocking miss-path\n"
        "reads) drop — readahead turns demand misses into prefetch hits —\n"
        "while results stay bit-identical (prefetch_test asserts this).\n");
    return 0;
  }

  RunSeries("sk", &db, wl, thread_counts, repeat, /*div=*/false);
  EmitPhaseProfile("sk", &db, wl, /*div=*/false);
  RunSeries("div-com", &db, wl, thread_counts, repeat, /*div=*/true);
  EmitPhaseProfile("div-com", &db, wl, /*div=*/true);

  WriteJsonArrayFile("BENCH_throughput.json", JsonRecords());

  std::printf(
      "\nExpected: qps grows with threads (misses overlap their simulated\n"
      "I/O latency outside the pool latch); p99 grows more slowly than the\n"
      "thread count since queries are independent reads.\n");
  return 0;
}
