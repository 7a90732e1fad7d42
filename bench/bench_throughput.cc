// Query throughput: SK and diversified searches sharing one disk-resident
// SIF index and one LRU buffer pool, run by a one-worker QueryExecutor
// under a yielding simulated read delay. The paper's experiments (§5) are
// sequential; this bench measures the executor path a served query takes
// — queries/sec and tail latency of one batch.
//
// Knobs: DSKS_BENCH_SCALE, DSKS_BENCH_QUERIES (as everywhere),
// DSKS_IO_DELAY_US (per-read simulated latency, default 50),
// DSKS_BENCH_SAMPLE (trace 1-in-N queries on the timed path into a flight
// recorder, default 0 = off so the perf baseline stays comparable; the
// check.sh overhead gate compares a sampled run against the unsampled
// smoke). To scrape /metrics, /varz and /tracez live, run
// `dsks_cli serve --sample N` instead.
// Flags: --backend=sim|file (see BenchBackend), --cold (the prefetch
// off/on A/B on a pool emptied before every query).
//
// Besides the table, every measurement is emitted as one JSON line
// (prefix "JSON ") for scripted consumption. The warm series reads its
// numbers back from the executor's private registry: latency avg/p50/
// p95/p99 come from the "executor.query_ms" histogram (interpolated
// within one bucket). The measured series run untraced unless
// DSKS_BENCH_SAMPLE is set (each record says so via "sample_rate"/
// "sampled_queries"); a separate single-threaded traced pass per workload
// emits a "phase_profile" record attributing time and I/O to the query
// phases.
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
#include "common/timer.h"
#include "harness/query_executor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

using namespace dsks;         // NOLINT
using namespace dsks::bench;  // NOLINT

namespace {

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

/// Cold-cache A/B: single-threaded, the buffer pool cleared before every
/// query so each one pays its full miss path — the regime where batched
/// misses and readahead show up (a warm pool hides them). Runs the
/// workload twice, prefetch off then on; the off run is the baseline the
/// on run's pool_misses reduction is judged against (EXPERIMENTS.md).
void RunColdSeries(const char* workload, Database* db, const Workload& wl,
                   bool div) {
  // Sleeping delay, not the sequential harness's busy-wait: a blocking
  // read that frees the core, like the warm series.
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
        "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"errors\":0,\"error_rate\":0,"
        "\"sample_rate\":0,\"sampled_queries\":0,"
        "\"pool_misses\":%llu,\"disk_reads\":%llu,"
        "\"prefetch_issued\":%llu,\"prefetch_hits\":%llu,"
        "\"prefetch_wasted\":%llu,\"prefetch_dropped\":%llu}",
        g_backend_name, workload, prefetch_on ? 1 : 0,
        n, wall_ms, qps,
        hs.avg(), hs.Percentile(50), hs.Percentile(95), hs.Percentile(99),
        static_cast<unsigned long long>(pool.misses),
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
  char head[192];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"throughput\",\"backend\":\"%s\","
                "\"workload\":\"%s\",\"queries\":%zu,\"phase_profile\":",
                g_backend_name, workload, n);
  const std::string buf =
      head + obs::PhasesJson(trace.AggregateByPhase()) + "}";
  std::printf("JSON %s\n", buf.c_str());
  JsonRecords().push_back(buf);
}

/// The warm series: `repeat` passes over the workload, submitted as one
/// batch to a one-worker executor whose private registry is the batch's
/// record. Prints a table row and emits one "threads":1 JSON record.
void RunSeries(const char* workload, Database* db, const Workload& wl,
               size_t repeat, bool div) {
  db->ResetCounters();
  // Yielding delay: a blocked "disk read" frees its core, as a read from
  // a real disk would.
  ScopedIoDelay delay(db, /*yielding=*/true);
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.metrics = &registry;
  config.sampling = g_sampling;
  config.flight_recorder = g_recorder;
  const auto run_one = [db, div](const WorkloadQuery& wq, QueryContext* ctx) {
    if (div) {
      DivQuery dq;
      dq.sk = wq.sk;
      dq.k = 10;
      dq.lambda = 0.8;
      DivSearchOutput out;
      return db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &out, ctx);
    }
    std::vector<SkResult> results;
    return db->RunSkQuery(wq.sk, wq.edge, &results, ctx);
  };
  QueryExecutor exec(config);
  Timer wall;
  for (size_t r = 0; r < repeat; ++r) {
    for (const WorkloadQuery& wq : wl.queries) {
      QueryTag tag;
      tag.kind = workload;
      tag.terms = static_cast<uint32_t>(wq.sk.terms.size());
      exec.SubmitQuery(
          [&run_one, &wq](QueryContext* ctx) { return run_one(wq, ctx); },
          tag);
    }
  }
  exec.Drain();
  const double wall_ms = wall.ElapsedMillis();

  const obs::HistogramSnapshot h =
      registry.histogram("executor.query_ms").Snapshot();
  uint64_t errors = 0;
  for (size_t c = 1; c < Status::kNumCodes; ++c) {
    errors += registry
                  .counter(std::string("query.errors.") +
                           Status::CodeName(static_cast<Status::Code>(c)))
                  .value();
  }
  // Validation rejects count as errors but not as served queries.
  const uint64_t attempted =
      h.count + registry.counter("query.rejected").value();
  const double error_rate =
      attempted > 0
          ? static_cast<double>(errors) / static_cast<double>(attempted)
          : 0.0;
  const double qps =
      wall_ms > 0.0 ? static_cast<double>(h.count) / (wall_ms / 1000.0) : 0.0;
  // "cold":0 marks the warm-cache regime — the perf gate refuses to
  // compare cold and warm records (different experiments).
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"throughput\",\"backend\":\"%s\",\"workload\":\"%s\","
      "\"cold\":0,\"prefetch\":1,\"threads\":1,"
      "\"queries\":%llu,\"wall_ms\":%.2f,\"qps\":%.1f,\"avg_ms\":%.3f,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"errors\":%llu,\"error_rate\":%.6f,"
      "\"sample_rate\":%u,\"sampled_queries\":%llu}",
      g_backend_name, workload, static_cast<unsigned long long>(h.count),
      wall_ms, qps, h.avg(), h.Percentile(50), h.Percentile(95),
      h.Percentile(99), static_cast<unsigned long long>(errors), error_rate,
      g_sampling.sample_every,
      static_cast<unsigned long long>(
          registry.counter("query.sampled").value()));
  std::printf("JSON %s\n", buf);
  JsonRecords().push_back(buf);

  TablePrinter table({"queries", "wall ms", "qps", "avg ms", "p50 ms",
                      "p95 ms", "p99 ms"});
  table.AddRow({std::to_string(h.count), TablePrinter::Fmt(wall_ms, 1),
                TablePrinter::Fmt(qps, 1), TablePrinter::Fmt(h.avg(), 3),
                TablePrinter::Fmt(h.Percentile(50), 3),
                TablePrinter::Fmt(h.Percentile(95), 3),
                TablePrinter::Fmt(h.Percentile(99), 3)});
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
                   : "Query throughput on one executor worker",
              "no paper figure — the executor path a served query takes");
  BenchBackend backend(argc, argv);
  g_backend_name = backend.name();
  std::printf("storage backend: %s%s\n", g_backend_name,
              cold ? " (cold cache)" : "");
  const size_t num_queries = QueriesFromEnv(200);
  // Four passes over the workload make one batch, the batch that
  // bench/baseline_throughput.json was recorded from.
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

  RunSeries("sk", &db, wl, repeat, /*div=*/false);
  EmitPhaseProfile("sk", &db, wl, /*div=*/false);
  RunSeries("div-com", &db, wl, repeat, /*div=*/true);
  EmitPhaseProfile("div-com", &db, wl, /*div=*/true);

  WriteJsonArrayFile("BENCH_throughput.json", JsonRecords());

  std::printf(
      "\nExpected: at DSKS_IO_DELAY_US=0 and DSKS_BENCH_QUERIES=100, each\n"
      "workload's qps stays above tools/perf_gate.py's floor of 75%% of\n"
      "bench/baseline_throughput.json.\n");
  return 0;
}
