// QueryExecutor: thread-pool mechanics (bounded queue, drain, reuse) and
// end-to-end correctness of concurrent queries against one shared
// Database — every worker must see exactly the results the sequential
// harness produces.
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "common/timer.h"
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

/// Served queries the executor recorded into `registry`.
uint64_t Served(obs::MetricsRegistry& registry) {
  return registry.histogram("executor.query_ms").count();
}

/// Final failures the executor recorded into `registry`, every code.
uint64_t TotalErrors(obs::MetricsRegistry& registry) {
  uint64_t n = 0;
  for (size_t c = 1; c < Status::kNumCodes; ++c) {
    n += registry
             .counter(std::string("query.errors.") +
                      Status::CodeName(static_cast<Status::Code>(c)))
             .value();
  }
  return n;
}

/// Submits `repeat` passes over the workload's queries — SK, or COM
/// diversified with k = 4 and lambda = 0.8 — tagged with their kind and
/// term count, and waits until the executor has recorded all of them.
void RunWorkload(QueryExecutor* exec, Database* db, const Workload& wl,
                 size_t repeat, bool div) {
  for (size_t r = 0; r < repeat; ++r) {
    for (const WorkloadQuery& wq : wl.queries) {
      QueryTag tag;
      tag.kind = div ? "div-com" : "sk";
      tag.terms = static_cast<uint32_t>(wq.sk.terms.size());
      exec->SubmitQuery(
          [db, &wq, div](QueryContext* ctx) {
            if (div) {
              DivQuery dq;
              dq.sk = wq.sk;
              dq.k = 4;
              dq.lambda = 0.8;
              DivSearchOutput out;
              return db->RunDivQuery(dq, wq.edge, /*use_com=*/true, &out,
                                     ctx);
            }
            std::vector<SkResult> results;
            return db->RunSkQuery(wq.sk, wq.edge, &results, ctx);
          },
          tag);
    }
  }
  exec->Drain();
}

TEST(QueryExecutorTest, RunsEveryTaskExactlyOnce) {
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 4;
  config.queue_capacity = 8;  // forces Submit to block and back-pressure
  config.metrics = &registry;
  QueryExecutor exec(config);
  constexpr size_t kTasks = 500;
  std::atomic<uint64_t> sum{0};
  for (size_t i = 0; i < kTasks; ++i) {
    exec.SubmitQuery([&sum, i](QueryContext*) {
      sum.fetch_add(i + 1);
      return Status::Ok();
    });
  }
  exec.Drain();
  EXPECT_EQ(Served(registry), kTasks);
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);

  // The executor is reusable after a drain and records the next batch.
  exec.SubmitQuery([&sum](QueryContext*) {
    sum.fetch_add(1);
    return Status::Ok();
  });
  exec.Drain();
  EXPECT_EQ(Served(registry) - kTasks, 1u);
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
      exec.SubmitQuery([](QueryContext*) { return Status::Ok(); });
    }
    exec.SubmitQuery([](QueryContext*) { return Status::IOError("x"); });
  }
  EXPECT_EQ(registry.counter("executor.queries").value(), 21u);
  EXPECT_EQ(registry.histogram("executor.query_ms").count(), 21u);
  EXPECT_EQ(registry.counter("query.errors.IO_ERROR").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("query.in_flight").value(), 0.0);
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
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 4;
  config.metrics = &registry;
  QueryExecutor exec(config);
  std::vector<std::vector<ObjectId>> got(wl.queries.size() * kRounds);
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < wl.queries.size(); ++i) {
      std::vector<ObjectId>* out = &got[round * wl.queries.size() + i];
      const WorkloadQuery* wq = &wl.queries[i];
      exec.SubmitQuery([&db, wq, out](QueryContext*) {
        std::vector<SkResult> results;
        EXPECT_TRUE(db.RunSkQuery(wq->sk, wq->edge, &results).ok());
        for (const SkResult& r : results) {
          out->push_back(r.id);
        }
        return Status::Ok();
      });
    }
  }
  exec.Drain();
  EXPECT_EQ(Served(registry), wl.queries.size() * kRounds);
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < wl.queries.size(); ++i) {
      EXPECT_EQ(got[round * wl.queries.size() + i], want[i])
          << "query " << i << " round " << round;
    }
  }
}

TEST(QueryExecutorTest, ConcurrentThroughputHelperRuns) {
  // A batch's numbers come back from the executor's private registry; no
  // timing assertions (CI boxes vary).
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

  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 4;
  config.metrics = &registry;
  QueryExecutor exec(config);
  EXPECT_EQ(exec.num_threads(), 4u);
  Timer wall;
  RunWorkload(&exec, &db, wl, /*repeat=*/2, /*div=*/false);
  const double wall_ms = wall.ElapsedMillis();
  const obs::HistogramSnapshot h =
      registry.histogram("executor.query_ms").Snapshot();
  EXPECT_EQ(h.count, wl.queries.size() * 2);
  EXPECT_GT(static_cast<double>(h.count) / (wall_ms / 1000.0), 0.0);
  EXPECT_GE(h.Percentile(99), h.Percentile(50));

  obs::MetricsRegistry div_registry;
  config.num_threads = 2;
  config.metrics = &div_registry;
  QueryExecutor div_exec(config);
  RunWorkload(&div_exec, &db, wl, /*repeat=*/1, /*div=*/true);
  EXPECT_EQ(Served(div_registry), wl.queries.size());
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
    exec.SubmitQuery([&db, wq, trace](QueryContext* ctx) {
      ctx->trace = trace;
      DivQuery dq;
      dq.sk = wq->sk;
      dq.k = 4;
      dq.lambda = 0.8;
      DivSearchOutput out;
      EXPECT_TRUE(db.RunDivQuery(dq, wq->edge, /*use_com=*/true, &out, ctx)
                      .ok());
      ctx->trace = nullptr;
      return Status::Ok();
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
  {
    obs::MetricsRegistry registry;
    ExecutorConfig config;
    config.num_threads = 1;
    config.metrics = &registry;
    config.sampling = sampling;
    config.flight_recorder = &recorder;
    QueryExecutor exec(config);
    RunWorkload(&exec, &db, wl, /*repeat=*/4, /*div=*/false);
    EXPECT_EQ(Served(registry), 64u);
    EXPECT_EQ(registry.counter("query.sampled").value(), 16u);
  }
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
    for (const obs::PhaseTotals& t : s.phases) {
      phase_io += t.io;
    }
    EXPECT_EQ(phase_io, s.total_io);
  }

  // Tasks whose tag asks for a trace (a request's "trace":true) all run
  // under the worker trace, yet `sampled` and the recorder still follow
  // the sampler alone: exactly 1 in 4, and each of those entries carries
  // the phases of that same trace.
  recorder.Clear();
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 1;
  config.metrics = &registry;
  config.sampling = sampling;
  config.flight_recorder = &recorder;
  QueryExecutor exec(config);
  std::atomic<size_t> ran_traced{0};
  for (size_t i = 0; i < 32; ++i) {
    const WorkloadQuery& wq = wl.queries[i % wl.queries.size()];
    QueryTag tag;
    tag.kind = "sk-traced";
    tag.terms = static_cast<uint32_t>(wq.sk.terms.size());
    tag.trace = true;
    exec.SubmitQuery(
        [&db, &wq, &ran_traced](QueryContext* ctx) {
          std::vector<SkResult> results;
          const Status s = db.RunSkQuery(wq.sk, wq.edge, &results, ctx);
          if (ctx->trace != nullptr && !ctx->trace->spans().empty()) {
            ran_traced.fetch_add(1);
          }
          return s;
        },
        tag);
  }
  exec.Drain();
  EXPECT_EQ(ran_traced.load(), 32u);
  EXPECT_EQ(registry.counter("query.sampled").value(), 8u);
  EXPECT_EQ(recorder.recorded(), 8u);
  for (const obs::QuerySummary& s : recorder.TakeSnapshot().recent) {
    EXPECT_STREQ(s.kind, "sk-traced");
    EXPECT_TRUE(s.traced);
    EXPECT_EQ(s.phases[static_cast<size_t>(obs::Phase::kQuery)].spans, 1u);
  }
}

TEST(QueryExecutorTest, ErrorsAndSlowQueriesAreRecordedWithoutSampling) {
  obs::TraceSamplerConfig sampling;  // sample_every = 0: tracing off
  sampling.slow_ms = 5.0;
  obs::FlightRecorder recorder;
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 2;
  config.metrics = &registry;
  config.sampling = sampling;
  config.flight_recorder = &recorder;
  QueryExecutor exec(config);

  for (int i = 0; i < 4; ++i) {
    exec.SubmitQuery(
        [](QueryContext*) { return Status::IOError("injected"); },
        QueryTag{"fail", 1});
  }
  exec.SubmitQuery(
      [](QueryContext*) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::Ok();
      },
      QueryTag{"slow", 2});
  for (int i = 0; i < 8; ++i) {
    exec.SubmitQuery([](QueryContext*) { return Status::Ok(); },
                     QueryTag{"fast", 3});
  }
  exec.Drain();
  // Nothing traced, yet plenty recorded.
  EXPECT_EQ(registry.counter("query.sampled").value(), 0u);

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
  // Regression for the server-facing bug: SubmitQuery blocks while the
  // queue is full, which on a network thread means one overload wedges
  // the whole front end. TrySubmitQuery must answer "no" immediately
  // instead.
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 1;
  config.queue_capacity = 2;
  config.metrics = &registry;
  QueryExecutor exec(config);

  // Stall the single worker and wait until it has actually popped the
  // stall task — only then is "fill to capacity" deterministic (a later
  // pop would free a queue slot mid-test).
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  exec.SubmitQuery([&started, &release](QueryContext*) {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
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

  // Queue is now full: TrySubmit is rejected without blocking.
  EXPECT_FALSE(
      exec.TrySubmitQuery([](QueryContext*) { return Status::Ok(); }));

  release.store(true);
  exec.Drain();
  // Everything admitted ran; nothing rejected leaked into the queue.
  EXPECT_EQ(Served(registry), 1 + admitted);

  // After the drain there is space again.
  EXPECT_TRUE(
      exec.TrySubmitQuery([](QueryContext*) { return Status::Ok(); }));
  exec.Drain();
}

TEST(QueryExecutorTest, DoneRunsOnceWithTheFinalStatus) {
  // A task that fails with IO_ERROR twice, then succeeds: its retries stay
  // inside one task, and `done` sees only the Status that survives them.
  // No registry, as perfbench runs it: the task counts its own attempts.
  ExecutorConfig config;
  config.num_threads = 1;
  config.metrics = nullptr;
  for (const size_t max_retries : {1u, 2u}) {
    config.max_retries = max_retries;
    QueryExecutor exec(config);
    int attempts = 0;
    std::vector<Status> done;
    ASSERT_TRUE(exec.TrySubmitQuery(
        [&attempts](QueryContext*) {
          return ++attempts <= 2 ? Status::IOError("flaky") : Status::Ok();
        },
        QueryTag{}, [&done](const Status& s) { done.push_back(s); }));
    exec.Drain();
    const size_t retries = static_cast<size_t>(attempts) - 1;
    EXPECT_EQ(retries, max_retries);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].IsIOError(), max_retries == 1) << done[0].ToString();
  }
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
  exec.Drain();
  EXPECT_EQ(registry.counter("query.rejected").value(), kRejected);
  EXPECT_EQ(registry.counter("query.errors.INVALID_ARGUMENT").value(),
            kRejected);
  // Served-query metrics exclude the rejects.
  EXPECT_EQ(registry.counter("executor.queries").value(), kOk);
  EXPECT_EQ(Served(registry), kOk);

  // The rejects are the batch's only errors, over every query it got.
  const uint64_t errors = TotalErrors(registry);
  EXPECT_EQ(errors, kRejected);
  EXPECT_DOUBLE_EQ(static_cast<double>(errors) /
                       static_cast<double>(Served(registry) + kRejected),
                   static_cast<double>(kRejected) / (kOk + kRejected));
}

TEST(QueryExecutorTest, RejectedOnlyBatchStillReportsErrorRate) {
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 1;
  config.metrics = &registry;
  QueryExecutor exec(config);
  for (int i = 0; i < 3; ++i) {
    exec.SubmitQuery([](QueryContext*) {
      return Status::InvalidArgument("bad");
    });
  }
  exec.Drain();
  EXPECT_EQ(registry.histogram("executor.query_ms").Snapshot().count, 0u);
  EXPECT_EQ(registry.counter("executor.queries").value(), 0u);
  const uint64_t rejected = registry.counter("query.rejected").value();
  EXPECT_EQ(rejected, 3u);
  EXPECT_DOUBLE_EQ(static_cast<double>(TotalErrors(registry)) /
                       static_cast<double>(Served(registry) + rejected),
                   1.0);
}

}  // namespace
}  // namespace dsks
