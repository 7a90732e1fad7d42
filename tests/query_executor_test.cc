// QueryExecutor: thread-pool mechanics (bounded queue, drain, reuse) and
// end-to-end correctness of concurrent queries against one shared
// Database — every worker must see exactly the results the sequential
// harness produces.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "harness/query_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dsks {
namespace {

DatasetConfig TinyPreset() {
  DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
  c.objects.keywords_per_object = 6;
  return c;
}

TEST(QueryExecutorTest, RunsEveryTaskExactlyOnce) {
  ExecutorConfig config;
  config.num_threads = 4;
  config.queue_capacity = 8;  // forces Submit to block and back-pressure
  QueryExecutor exec(config);
  constexpr size_t kTasks = 500;
  std::atomic<uint64_t> sum{0};
  for (size_t i = 0; i < kTasks; ++i) {
    exec.Submit([&sum, i] { sum.fetch_add(i + 1); });
  }
  QueryExecutor::DrainResult res = exec.Drain();
  EXPECT_EQ(res.latency.count, kTasks);
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);

  // The executor is reusable after a drain; the batch was reset.
  exec.Submit([&sum] { sum.fetch_add(1); });
  res = exec.Drain();
  EXPECT_EQ(res.latency.count, 1u);
}

TEST(QueryExecutorTest, DrainPublishesIntoRegistry) {
  // Publication needs no Drain(): each query is recorded into the
  // registry as it completes, so once the executor is gone (its destructor
  // runs every queued task) the registry holds all of them.
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 3;
  config.metrics = &registry;
  {
    QueryExecutor exec(config);
    for (int i = 0; i < 20; ++i) {
      exec.Submit([] {});
    }
    exec.SubmitQuery([](QueryContext*) { return Status::IOError("x"); });
  }
  EXPECT_EQ(registry.counter("executor.queries").value(), 21u);
  EXPECT_EQ(registry.histogram("executor.query_ms").count(), 21u);
  EXPECT_EQ(registry.counter("query.errors.IO_ERROR").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("query.in_flight").value(), 0.0);
}

TEST(QueryExecutorTest, SummarizeThroughputPercentiles) {
  // 100 queries of 1..100 ms over a 1 s wall: 100 qps, avg 50.5 exactly;
  // the percentiles are the histogram's, within one bucket (25%) of the
  // exact nearest-rank p50 = 50, p95 = 95, p99 = 99.
  obs::Histogram hist;
  for (int i = 1; i <= 100; ++i) {
    hist.Record(static_cast<double>(i));
  }
  QueryExecutor::DrainResult drained;
  drained.latency = hist.Snapshot();
  const ThroughputMetrics m = SummarizeThroughput(4, 1000.0, drained);
  EXPECT_EQ(m.num_threads, 4u);
  EXPECT_EQ(m.queries, 100u);
  EXPECT_DOUBLE_EQ(m.qps, 100.0);
  EXPECT_DOUBLE_EQ(m.avg_millis, 50.5);
  EXPECT_DOUBLE_EQ(m.p50_millis, drained.latency.Percentile(50));
  EXPECT_DOUBLE_EQ(m.p95_millis, drained.latency.Percentile(95));
  EXPECT_DOUBLE_EQ(m.p99_millis, drained.latency.Percentile(99));
  EXPECT_NEAR(m.p50_millis, 50.0, 50.0 * 0.25);
  EXPECT_NEAR(m.p95_millis, 95.0, 95.0 * 0.25);
  EXPECT_NEAR(m.p99_millis, 99.0, 99.0 * 0.25);
  EXPECT_EQ(m.histogram.count, 100u);
}

TEST(QueryExecutorTest, ConcurrentSkQueriesMatchSequentialResults) {
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 24;
  wc.num_keywords = 2;
  wc.seed = 17;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  // Sequential reference: result multiset per query.
  std::vector<std::vector<ObjectId>> want(wl.queries.size());
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    std::vector<SkResult> results;
    ASSERT_TRUE(
        db.RunSkQuery(wl.queries[i].sk, wl.queries[i].edge, &results).ok());
    for (const SkResult& r : results) {
      want[i].push_back(r.id);
    }
  }

  // Concurrent run over a cold cache: same queries, 4 threads, 3 rounds.
  db.PrepareForQueries();
  constexpr size_t kRounds = 3;
  ExecutorConfig config;
  config.num_threads = 4;
  QueryExecutor exec(config);
  std::vector<std::vector<ObjectId>> got(wl.queries.size() * kRounds);
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < wl.queries.size(); ++i) {
      std::vector<ObjectId>* out = &got[round * wl.queries.size() + i];
      const WorkloadQuery* wq = &wl.queries[i];
      exec.Submit([&db, wq, out] {
        std::vector<SkResult> results;
        EXPECT_TRUE(db.RunSkQuery(wq->sk, wq->edge, &results).ok());
        for (const SkResult& r : results) {
          out->push_back(r.id);
        }
      });
    }
  }
  const QueryExecutor::DrainResult res = exec.Drain();
  EXPECT_EQ(res.latency.count, wl.queries.size() * kRounds);
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < wl.queries.size(); ++i) {
      EXPECT_EQ(got[round * wl.queries.size() + i], want[i])
          << "query " << i << " round " << round;
    }
  }
}

TEST(QueryExecutorTest, ConcurrentThroughputHelperRuns) {
  // Keep the harness helper exercised without timing assertions (CI boxes
  // vary); correctness of the numbers is covered by the summarize test.
  setenv("DSKS_IO_DELAY_US", "0", /*overwrite=*/1);
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 8;
  wc.num_keywords = 2;
  wc.seed = 23;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  const ThroughputMetrics m = RunSkWorkloadConcurrent(&db, wl, 4, 2);
  EXPECT_EQ(m.num_threads, 4u);
  EXPECT_EQ(m.queries, wl.queries.size() * 2);
  EXPECT_GT(m.qps, 0.0);
  EXPECT_GE(m.p99_millis, m.p50_millis);

  const ThroughputMetrics d =
      RunDivWorkloadConcurrent(&db, wl, /*k=*/4, /*lambda=*/0.8,
                               /*use_com=*/true, 2, 1);
  EXPECT_EQ(d.queries, wl.queries.size());
  unsetenv("DSKS_IO_DELAY_US");
}

TEST(QueryExecutorTest, ConcurrentTracedQueriesNestAndBalance) {
  // One QueryTrace per task (a trace serves one query at a time); the
  // shared pool/disk counters race across workers, but the telescoping
  // identity — sum of every span's exclusive share equals the root's
  // inclusive total — holds per trace regardless, for time and I/O alike.
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 16;
  wc.num_keywords = 2;
  wc.seed = 29;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  ExecutorConfig config;
  config.num_threads = 4;
  config.metrics = nullptr;
  QueryExecutor exec(config);
  std::vector<obs::QueryTrace> traces(wl.queries.size());
  for (size_t i = 0; i < wl.queries.size(); ++i) {
    obs::QueryTrace* trace = &traces[i];
    const WorkloadQuery* wq = &wl.queries[i];
    exec.SubmitWithContext([&db, wq, trace](QueryContext* ctx) {
      ctx->trace = trace;
      DivQuery dq;
      dq.sk = wq->sk;
      dq.k = 4;
      dq.lambda = 0.8;
      DivSearchOutput out;
      EXPECT_TRUE(db.RunDivQuery(dq, wq->edge, /*use_com=*/true, &out, ctx)
                      .ok());
      ctx->trace = nullptr;
    });
  }
  exec.Drain();

  for (const obs::QueryTrace& trace : traces) {
    ASSERT_EQ(trace.open_depth(), 0u);
    ASSERT_FALSE(trace.spans().empty());
    const obs::TraceSpan& root = trace.spans().front();
    EXPECT_EQ(root.phase, obs::Phase::kQuery);
    EXPECT_EQ(root.parent, obs::TraceSpan::kNoParent);

    int64_t exclusive_ns = 0;
    obs::IoCounters exclusive_io;
    for (const obs::TraceSpan& s : trace.spans()) {
      EXPECT_GE(s.inclusive_ns, s.child_ns);
      exclusive_ns += s.exclusive_ns();
      exclusive_io += s.exclusive_io();
    }
    EXPECT_EQ(exclusive_ns, root.inclusive_ns);
    EXPECT_EQ(exclusive_io, root.inclusive_io);
  }
}

TEST(QueryExecutorTest, SampledTracingIsExactAndFeedsTheRecorder) {
  setenv("DSKS_IO_DELAY_US", "0", /*overwrite=*/1);
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 16;
  wc.num_keywords = 2;
  wc.seed = 37;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  obs::TraceSamplerConfig sampling;
  sampling.sample_every = 4;
  obs::FlightRecorder recorder;
  // One worker, so the countdown sampler's schedule is exact: 64 queries
  // at 1-in-4 trace exactly 16 — by construction, not by expectation.
  const ThroughputMetrics m = RunSkWorkloadConcurrent(
      &db, wl, /*num_threads=*/1, /*repeat=*/4, sampling, &recorder);
  EXPECT_EQ(m.queries, 64u);
  EXPECT_EQ(m.sampled, 16u);
  EXPECT_EQ(m.sample_rate, 4u);
  EXPECT_EQ(recorder.recorded(), 16u);

  // Every recorded summary is a traced, tagged OK query whose per-phase
  // I/O telescopes exactly to the context-charged total.
  const obs::FlightRecorder::Snapshot snap = recorder.TakeSnapshot();
  ASSERT_EQ(snap.recent.size(), 16u);
  for (const obs::QuerySummary& s : snap.recent) {
    EXPECT_STREQ(s.kind, "sk");
    EXPECT_STREQ(s.status, "OK");
    EXPECT_TRUE(s.traced);
    EXPECT_GT(s.terms, 0u);
    obs::IoCounters phase_io;
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      phase_io += s.phase_io[p];
    }
    EXPECT_EQ(phase_io, s.total_io);
  }
  unsetenv("DSKS_IO_DELAY_US");
}

TEST(QueryExecutorTest, ErrorsAndSlowQueriesAreRecordedWithoutSampling) {
  obs::TraceSamplerConfig sampling;  // sample_every = 0: tracing off
  sampling.slow_ms = 5.0;
  obs::FlightRecorder recorder;
  ExecutorConfig config;
  config.num_threads = 2;
  config.metrics = nullptr;
  config.sampling = sampling;
  config.flight_recorder = &recorder;
  QueryExecutor exec(config);

  for (int i = 0; i < 4; ++i) {
    exec.SubmitQuery(QueryTag{"fail", 1}, [](QueryContext*) {
      return Status::IOError("injected");
    });
  }
  exec.SubmitQuery(QueryTag{"slow", 2}, [](QueryContext*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::Ok();
  });
  for (int i = 0; i < 8; ++i) {
    exec.SubmitQuery(QueryTag{"fast", 3},
                     [](QueryContext*) { return Status::Ok(); });
  }
  const QueryExecutor::DrainResult res = exec.Drain();
  EXPECT_EQ(res.sampled, 0u);  // nothing traced, yet plenty recorded

  // 4 errors + 1 over-threshold query; the fast OK queries left no trace.
  EXPECT_EQ(recorder.recorded(), 5u);
  const obs::FlightRecorder::Snapshot snap = recorder.TakeSnapshot();
  size_t errors = 0;
  size_t slow = 0;
  for (const obs::QuerySummary& s : snap.recent) {
    EXPECT_FALSE(s.traced);
    if (s.error) {
      ++errors;
      EXPECT_STREQ(s.kind, "fail");
      EXPECT_STREQ(s.status, "IO_ERROR");
    } else {
      ++slow;
      EXPECT_STREQ(s.kind, "slow");
      EXPECT_GE(s.total_ms, 5.0);
    }
  }
  EXPECT_EQ(errors, 4u);
  EXPECT_EQ(slow, 1u);
  EXPECT_EQ(snap.errors.size(), 4u);
}

TEST(QueryExecutorTest, TrySubmitNeverBlocksOnSaturatedQueue) {
  // Regression for the server-facing bug: Submit blocks forever when the
  // queue is full, which on a network thread means one overload wedges
  // the whole front end. TrySubmitQuery must answer "no" immediately (or
  // within its bounded wait) instead.
  ExecutorConfig config;
  config.num_threads = 1;
  config.queue_capacity = 2;
  config.metrics = nullptr;
  QueryExecutor exec(config);

  // Stall the single worker and wait until it has actually popped the
  // stall task — only then is "fill to capacity" deterministic (a later
  // pop would free a queue slot mid-test).
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  exec.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  size_t admitted = 0;
  for (size_t i = 0; i < config.queue_capacity + 1; ++i) {
    if (exec.TrySubmitQuery([](QueryContext*) { return Status::Ok(); })) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, config.queue_capacity);

  // Queue is now full: an immediate TrySubmit is rejected without
  // blocking, and a bounded-wait TrySubmit gives up within its budget.
  EXPECT_FALSE(
      exec.TrySubmitQuery([](QueryContext*) { return Status::Ok(); }));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(exec.TrySubmitQuery(
      [](QueryContext*) { return Status::Ok(); }, /*wait_millis=*/20.0));
  const double waited =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 15.0);   // honored the bounded wait...
  EXPECT_LT(waited, 5000.0);  // ...but never blocked indefinitely

  release.store(true);
  const QueryExecutor::DrainResult res = exec.Drain();
  // Everything admitted ran; nothing rejected leaked into the queue.
  EXPECT_EQ(res.latency.count, 1 + admitted);

  // After the drain there is space again: a bounded-wait submit succeeds.
  EXPECT_TRUE(exec.TrySubmitQuery(
      [](QueryContext*) { return Status::Ok(); }, /*wait_millis=*/1000.0));
  exec.Drain();
}

TEST(QueryExecutorTest, ValidationRejectsAreNotServedThroughput) {
  // Regression: queries rejected at the Normalize* validation boundary
  // used to count toward qps and the latency distribution, so a chaos run
  // full of malformed input looked *faster*. They must surface only under
  // errors/rejected.
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 2;
  config.metrics = &registry;
  QueryExecutor exec(config);

  constexpr size_t kOk = 12;
  constexpr size_t kRejected = 5;
  for (size_t i = 0; i < kOk; ++i) {
    exec.SubmitQuery([](QueryContext*) { return Status::Ok(); });
  }
  for (size_t i = 0; i < kRejected; ++i) {
    exec.SubmitQuery([](QueryContext*) {
      return Status::InvalidArgument("bad query");
    });
  }
  const QueryExecutor::DrainResult res = exec.Drain();
  EXPECT_EQ(res.latency.count, kOk);
  EXPECT_EQ(res.rejected, kRejected);
  EXPECT_EQ(res.errors[static_cast<size_t>(Status::Code::kInvalidArgument)],
            kRejected);
  EXPECT_EQ(registry.counter("query.rejected").value(), kRejected);
  // Served-query metrics exclude the rejects.
  EXPECT_EQ(registry.counter("executor.queries").value(), kOk);
  EXPECT_EQ(registry.histogram("executor.query_ms").count(), kOk);

  const ThroughputMetrics m = SummarizeThroughput(2, 100.0, res);
  EXPECT_EQ(m.queries, kOk);
  EXPECT_EQ(m.rejected, kRejected);
  EXPECT_EQ(m.errors, kRejected);
  EXPECT_DOUBLE_EQ(m.qps, 1000.0 * kOk / 100.0);
  EXPECT_DOUBLE_EQ(m.error_rate,
                   static_cast<double>(kRejected) / (kOk + kRejected));
}

TEST(QueryExecutorTest, RejectedOnlyBatchStillReportsErrorRate) {
  ExecutorConfig config;
  config.num_threads = 1;
  config.metrics = nullptr;
  QueryExecutor exec(config);
  for (int i = 0; i < 3; ++i) {
    exec.SubmitQuery([](QueryContext*) {
      return Status::InvalidArgument("bad");
    });
  }
  const ThroughputMetrics m = SummarizeThroughput(1, 50.0, exec.Drain());
  EXPECT_EQ(m.queries, 0u);
  EXPECT_DOUBLE_EQ(m.qps, 0.0);
  EXPECT_EQ(m.rejected, 3u);
  EXPECT_DOUBLE_EQ(m.error_rate, 1.0);
}

}  // namespace
}  // namespace dsks
