// Observability subsystem: the latency histogram (bucketing, merge
// semantics), the metrics registry, and the per-query phase trace with
// I/O attribution against a real buffer pool and a real Database, plus
// its one rendering.
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "obs/io_account.h"
#include "obs/metrics.h"
#include "obs/process_memory.h"
#include "obs/trace.h"
#include "server/json.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage_test_util.h"

namespace dsks {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketBoundsAreMonotonicAndIndexInverts) {
  double prev = 0.0;
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    const double ub = obs::Histogram::BucketUpperBound(i);
    EXPECT_GT(ub, prev);
    prev = ub;
    // A value exactly at the bound maps into that bucket.
    EXPECT_EQ(obs::Histogram::BucketIndex(ub), i);
  }
  // Out-of-range values clamp.
  EXPECT_EQ(obs::Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(prev * 10.0),
            obs::Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, RecordAndSnapshotSummary) {
  obs::Histogram h;
  EXPECT_EQ(h.Snapshot().min, 0.0);  // empty maps the +inf sentinel to 0

  h.Record(1.0);
  h.Record(2.0);
  h.Record(10.0);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 13.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_NEAR(s.avg(), 13.0 / 3.0, 1e-12);

  // Bucketed percentile with linear interpolation: rank 2 of 3 lands on
  // the 2.0 sample, whose bucket holds exactly one sample, so the
  // midpoint rule puts the estimate at the middle of 2.0's bucket —
  // within half a bucket width of the true value instead of the old
  // whole-bucket upward bias.
  const size_t bi = obs::Histogram::BucketIndex(2.0);
  const double lo = bi == 0 ? 0.0 : obs::Histogram::BucketUpperBound(bi - 1);
  const double hi = obs::Histogram::BucketUpperBound(bi);
  EXPECT_DOUBLE_EQ(s.Percentile(50), (lo + hi) / 2.0);
  // Extreme ranks bypass interpolation and report the observed extremes.
  EXPECT_DOUBLE_EQ(s.Percentile(1), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Snapshot().min, 0.0);
}

TEST(HistogramTest, MergedPerWorkerEqualsPooled) {
  // The same value stream split over three "worker" histograms and merged
  // must be bucket-for-bucket identical to one pooled recorder.
  obs::Histogram pooled;
  obs::Histogram workers[3];
  for (int i = 0; i < 300; ++i) {
    const double ms = 0.01 * static_cast<double>(i + 1);
    pooled.Record(ms);
    workers[i % 3].Record(ms);
  }
  obs::HistogramSnapshot merged;
  for (const obs::Histogram& w : workers) {
    merged.MergeFrom(w.Snapshot());
  }
  const obs::HistogramSnapshot want = pooled.Snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_DOUBLE_EQ(merged.min, want.min);
  EXPECT_DOUBLE_EQ(merged.max, want.max);
  EXPECT_NEAR(merged.sum, want.sum, 1e-9);
  EXPECT_EQ(merged.buckets, want.buckets);
  for (int pct : {50, 95, 99, 100}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(pct), want.Percentile(pct)) << pct;
  }

  // Histogram::MergeFrom (used when Drain folds a batch into the
  // registry) matches the snapshot-level merge.
  obs::Histogram folded;
  for (const obs::Histogram& w : workers) {
    folded.MergeFrom(w.Snapshot());
  }
  EXPECT_EQ(folded.Snapshot().buckets, want.buckets);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, NamedMetricsAreStableIdentities) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("queries");
  a.Add(3);
  EXPECT_EQ(&reg.counter("queries"), &a);  // resolve-once contract
  EXPECT_EQ(reg.counter("queries").value(), 3u);
  reg.gauge("pool.frames").Set(42.0);
  reg.histogram("latency").Record(1.5);

  reg.ResetOwned();
  EXPECT_EQ(reg.counter("queries").value(), 0u);
  EXPECT_EQ(reg.gauge("pool.frames").value(), 0.0);
  EXPECT_EQ(reg.histogram("latency").count(), 0u);
}

TEST(MetricsRegistryTest, SourcesBindAndUnbindByPrefix) {
  obs::MetricsRegistry reg;
  uint64_t live = 7;
  reg.BindSource("db.pool.hits", [&live] { return live; });
  reg.BindSource("db.disk.reads", [] { return uint64_t{11}; });
  reg.BindSource("other.thing", [] { return uint64_t{1}; });

  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"db.pool.hits\":7"), std::string::npos) << json;
  live = 9;  // live callback: next dump sees the new value
  json = reg.ToJson();
  EXPECT_NE(json.find("\"db.pool.hits\":9"), std::string::npos) << json;

  reg.UnbindSourcesWithPrefix("db.");
  json = reg.ToJson();
  EXPECT_EQ(json.find("db.pool.hits"), std::string::npos) << json;
  EXPECT_EQ(json.find("db.disk.reads"), std::string::npos) << json;
  EXPECT_NE(json.find("other.thing"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("executor.queries").Add(5);
  reg.histogram("executor.query_ms").Record(2.0);
  reg.BindSource("db.pool.hits", [] { return uint64_t{3}; });
  reg.BindSource(
      "db.pool.frames_in_use", [] { return uint64_t{4}; },
      obs::MetricsRegistry::SourceKind::kGauge);
  const std::string prom = reg.ToPrometheus();
  // A source exports as its kind: a level that can fall is a gauge.
  EXPECT_NE(prom.find("# TYPE dsks_db_pool_hits counter\n"
                      "dsks_db_pool_hits 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE dsks_db_pool_frames_in_use gauge\n"
                      "dsks_db_pool_frames_in_use 4\n"),
            std::string::npos)
      << prom;
  // Names sanitized ('.' -> '_') and prefixed.
  EXPECT_NE(prom.find("# TYPE dsks_executor_queries counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("dsks_executor_queries 5"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE dsks_executor_query_ms summary"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("dsks_executor_query_ms{quantile=\"0.99\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("dsks_executor_query_ms_count 1"), std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, StorageBindMetricsExposesLiveCounters) {
  dsks::testing::TestDisk disk;
  BufferPool pool(disk.get(), 4);
  obs::MetricsRegistry reg;
  pool.BindMetrics(&reg, "db.pool");
  disk->BindMetrics(&reg, "db.disk");

  const PageId p = disk->AllocatePage();
  dsks::testing::MustFetch(&pool, p);
  pool.UnpinPage(p, false);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"db.pool.misses\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"db.disk.reads\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"db.disk.pages\":1"), std::string::npos) << json;

  // Every level the storage layer and the process publish can fall, so
  // each exports as a gauge. The one page is held once: in a pool frame's
  // own buffer when the disk copies (file), in the disk's memory when it
  // lends its pages to the pool (sim).
  obs::BindProcessMetrics(&reg);
  const std::string prom = reg.ToPrometheus();
  for (const char* gauge :
       {"db_pool_capacity_frames", "db_pool_frames_in_use",
        "db_pool_frame_bytes", "db_disk_pages", "db_disk_resident_bytes",
        "process_rss_bytes", "process_peak_rss_bytes",
        "process_heap_in_use_bytes"}) {
    EXPECT_NE(prom.find(std::string("# TYPE dsks_") + gauge + " gauge\n"),
              std::string::npos)
        << gauge << "\n"
        << prom;
  }
  EXPECT_NE(prom.find("# TYPE dsks_db_pool_misses counter\n"),
            std::string::npos)
      << prom;
  const bool lends = disk->lends_pages();
  EXPECT_NE(prom.find(lends ? "dsks_db_pool_frame_bytes 0\n"
                            : "dsks_db_pool_frame_bytes 4096\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find(lends ? "dsks_db_disk_resident_bytes 4096\n"
                            : "dsks_db_disk_resident_bytes 0\n"),
            std::string::npos)
      << prom;
  const obs::ProcessMemory mem = obs::ReadProcessMemory();
  EXPECT_GT(mem.rss_bytes, 0u);
  EXPECT_GE(mem.peak_rss_bytes, mem.rss_bytes);

  reg.UnbindSourcesWithPrefix("db.");
}

TEST(MetricsRegistryTest, GaugeAddSubIsAtomic) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("query.in_flight");
  g.Add(3.0);
  g.Sub(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);

  // Concurrent balanced Add/Sub pairs must cancel exactly (the CAS loop
  // loses no update), leaving the prior value.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 10000; ++i) {
        g.Add(1.0);
        g.Sub(1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

// ---------------------------------------------------------------------------
// QueryTrace

TEST(QueryTraceTest, SpanNestingAndExactIoDeltas) {
  dsks::testing::TestDisk disk;
  const PageId first = dsks::testing::FillPages(disk.get(), 4);
  const std::vector<PageId> pages = {first, first + 1, first + 2, first + 3};
  // A fresh pool is cold: the traced fetches below all miss first.
  BufferPool pool(disk.get(), 2);
  obs::IoCounters io;
  obs::QueryTrace trace;
  trace.BindContextIo(&io);
  obs::ScopedIoAccount account(&io);

  const uint32_t root = trace.OpenSpan(obs::Phase::kQuery);
  {
    // Child A: two misses.
    obs::ScopedSpan a(&trace, obs::Phase::kKeywordLookup);
    dsks::testing::MustFetch(&pool, pages[0]);
    pool.UnpinPage(pages[0], false);
    dsks::testing::MustFetch(&pool, pages[1]);
    pool.UnpinPage(pages[1], false);
  }
  {
    // Child B: one hit, nothing from disk.
    obs::ScopedSpan b(&trace, obs::Phase::kNetworkExpansion);
    dsks::testing::MustFetch(&pool, pages[0]);
    pool.UnpinPage(pages[0], false);
  }
  // Root-exclusive: one miss outside any child span.
  dsks::testing::MustFetch(&pool, pages[2]);
  pool.UnpinPage(pages[2], false);
  trace.CloseSpan(root);
  ASSERT_EQ(trace.open_depth(), 0u);

  ASSERT_EQ(trace.spans().size(), 3u);
  const obs::TraceSpan& rs = trace.spans()[0];
  const obs::TraceSpan& as = trace.spans()[1];
  const obs::TraceSpan& bs = trace.spans()[2];
  EXPECT_EQ(rs.parent, obs::TraceSpan::kNoParent);
  EXPECT_EQ(as.parent, 0u);
  EXPECT_EQ(bs.parent, 0u);

  EXPECT_EQ(as.inclusive_io.pool_misses, 2u);
  EXPECT_EQ(as.inclusive_io.disk_reads, 2u);
  EXPECT_EQ(bs.inclusive_io.pool_hits, 1u);
  EXPECT_EQ(bs.inclusive_io.disk_reads, 0u);
  EXPECT_EQ(rs.inclusive_io.pool_misses, 3u);
  EXPECT_EQ(rs.exclusive_io().pool_misses, 1u);
  EXPECT_EQ(rs.exclusive_io().disk_reads, 1u);

  // Telescoping identity: per-phase exclusive totals sum exactly to the
  // root's inclusive totals, for time and I/O alike.
  int64_t phase_ns = 0;
  obs::IoCounters phase_io;
  for (const auto& t : trace.AggregateByPhase()) {
    phase_ns += t.exclusive_ns;
    phase_io += t.io;
  }
  EXPECT_EQ(phase_ns, rs.inclusive_ns);
  EXPECT_EQ(phase_io, rs.inclusive_io);

  // The one rendering: a member per recorded phase, each carrying the five
  // cost fields with the exact exclusive counts.
  server::JsonValue phases;
  const std::string json = obs::PhasesJson(trace.AggregateByPhase());
  ASSERT_TRUE(server::JsonValue::Parse(json, &phases).ok()) << json;
  ASSERT_EQ(phases.object().size(), 3u) << json;
  const struct {
    const char* phase;
    uint64_t hits, misses, reads;
  } expected[] = {{"query", 0, 1, 1},
                  {"keyword_lookup", 0, 2, 2},
                  {"network_expansion", 1, 0, 0}};
  for (const auto& e : expected) {
    const server::JsonValue* p = phases.Find(e.phase);
    ASSERT_NE(p, nullptr) << e.phase << " in " << json;
    EXPECT_EQ(p->object().size(), 5u) << json;
    for (const char* field :
         {"spans", "ms", "pool_hits", "pool_misses", "disk_reads"}) {
      ASSERT_NE(p->Find(field), nullptr) << e.phase << "." << field;
      EXPECT_TRUE(p->Find(field)->is_number()) << e.phase << "." << field;
    }
    EXPECT_EQ(p->Find("spans")->number(), 1.0) << e.phase;
    EXPECT_GE(p->Find("ms")->number(), 0.0) << e.phase;
    EXPECT_EQ(p->Find("pool_hits")->number(), static_cast<double>(e.hits));
    EXPECT_EQ(p->Find("pool_misses")->number(),
              static_cast<double>(e.misses));
    EXPECT_EQ(p->Find("disk_reads")->number(), static_cast<double>(e.reads));
  }

  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
}

TEST(QueryTraceTest, TracedDivQueryBalancesAgainstRootTotals) {
  DatasetConfig cfg = ScalePreset(PresetSYN(), 0.03);
  cfg.objects.keywords_per_object = 6;
  Database db(cfg);
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 4;
  wc.num_keywords = 2;
  wc.seed = 31;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  obs::QueryTrace trace;
  QueryContext ctx;
  ctx.trace = &trace;

  // Every query kind the Database serves, each from a cold pool so that
  // each one reads from disk.
  db.ResetCounters();
  for (const WorkloadQuery& wq : wl.queries) {
    DivQuery dq;
    dq.sk = wq.sk;
    dq.k = 6;
    dq.lambda = 0.8;
    DivSearchOutput div;
    ASSERT_TRUE(db.pool()->Clear().ok());
    ASSERT_TRUE(db.RunDivQuery(dq, wq.edge, /*use_com=*/true, &div, &ctx).ok());

    std::vector<SkResult> knn;
    ASSERT_TRUE(db.pool()->Clear().ok());
    ASSERT_TRUE(db.RunKnnQuery(wq.sk, wq.edge, 3, &knn, &ctx).ok());

    RankedQuery rq;
    rq.sk = wq.sk;
    rq.k = 5;
    std::vector<RankedResult> ranked;
    ASSERT_TRUE(db.pool()->Clear().ok());
    ASSERT_TRUE(db.RunRankedQuery(rq, wq.edge, &ranked, &ctx).ok());
  }
  ASSERT_EQ(trace.open_depth(), 0u);

  // Single-threaded, so attribution is exact: every phase's exclusive
  // time/I/O sums to the inclusive totals of the kQuery roots, and the
  // root spans' disk reads equal the database's own I/O counter.
  int64_t root_ns = 0;
  obs::IoCounters root_io;
  size_t roots = 0;
  for (const obs::TraceSpan& s : trace.spans()) {
    if (s.parent == obs::TraceSpan::kNoParent) {
      EXPECT_EQ(s.phase, obs::Phase::kQuery);
      root_ns += s.inclusive_ns;
      root_io += s.inclusive_io;
      ++roots;
    }
  }
  EXPECT_EQ(roots, 3 * wl.queries.size());

  const auto totals = trace.AggregateByPhase();
  int64_t phase_ns = 0;
  obs::IoCounters phase_io;
  for (const auto& t : totals) {
    phase_ns += t.exclusive_ns;
    phase_io += t.io;
  }
  EXPECT_EQ(phase_ns, root_ns);
  EXPECT_EQ(phase_io, root_io);
  EXPECT_EQ(root_io.disk_reads, db.IoCount());

  // The traced run exercised the real phases.
  using P = obs::Phase;
  EXPECT_GT(totals[static_cast<size_t>(P::kKeywordLookup)].spans, 0u);
  EXPECT_GT(totals[static_cast<size_t>(P::kNetworkExpansion)].spans, 0u);
  EXPECT_GT(totals[static_cast<size_t>(P::kGreedySelection)].spans, 0u);
}

TEST(QueryTraceTest, ContextBoundTraceIgnoresForeignTraffic) {
  // A context-bound trace reads thread-charged counters, so another
  // thread hammering the same pool mid-span must not leak into its
  // deltas — the flaw the old shared-counter binding had by design.
  dsks::testing::TestDisk disk;
  const PageId first = dsks::testing::FillPages(disk.get(), 4);
  const std::vector<PageId> pages = {first, first + 1, first + 2, first + 3};
  BufferPool pool(disk.get(), 4);
  const BufferPoolStatsSnapshot pool_before = pool.stats_snapshot();

  obs::IoCounters io;
  obs::QueryTrace trace;
  trace.BindContextIo(&io);
  obs::ScopedIoAccount account(&io);

  const uint32_t root = trace.OpenSpan(obs::Phase::kQuery);
  // Foreign traffic concurrent with the open span, on disjoint pages so
  // this thread's hit/miss pattern stays deterministic.
  std::thread foreign([&pool, &pages] {
    for (int i = 0; i < 8; ++i) {
      dsks::testing::MustFetch(&pool, pages[2 + i % 2]);
      pool.UnpinPage(pages[2 + i % 2], false);
    }
  });
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  dsks::testing::MustFetch(&pool, pages[0]);
  pool.UnpinPage(pages[0], false);
  dsks::testing::MustFetch(&pool, pages[1]);
  pool.UnpinPage(pages[1], false);
  foreign.join();
  trace.CloseSpan(root);

  // Exactly this thread's I/O: two cold misses, one repeat hit.
  const obs::TraceSpan& rs = trace.spans().front();
  EXPECT_EQ(rs.inclusive_io.pool_misses, 2u);
  EXPECT_EQ(rs.inclusive_io.pool_hits, 1u);
  EXPECT_EQ(rs.inclusive_io.disk_reads, 2u);
  EXPECT_EQ(io, rs.inclusive_io);

  // The foreign thread's fetches really happened — they landed in the
  // shared pool counters, just not in this context's account.
  const BufferPoolStatsSnapshot pool_after = pool.stats_snapshot();
  EXPECT_EQ(pool_after.hits + pool_after.misses -
                (pool_before.hits + pool_before.misses),
            3u + 8u);
}

}  // namespace
}  // namespace dsks
