// Chaos: a concurrent workload on a faulty disk must degrade into counted
// per-query failures — never a crash, never a miscount. Also covers the
// API-boundary validation that keeps malformed queries from aborting.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "storage_test_util.h"
#include "harness/query_executor.h"
#include "obs/metrics.h"
#include "storage/fault_injector.h"

namespace dsks {
namespace {

DatasetConfig TinyPreset() {
  DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
  c.objects.keywords_per_object = 6;
  return c;
}

/// Final failures of one Status code that the executor recorded.
uint64_t Errors(obs::MetricsRegistry& registry, Status::Code code) {
  return registry.counter(std::string("query.errors.") + Status::CodeName(code))
      .value();
}

Workload MakeWorkload(const Database& db, size_t n, uint64_t seed) {
  WorkloadConfig wc;
  wc.num_queries = n;
  wc.num_keywords = 2;
  wc.seed = seed;
  return GenerateWorkload(db.objects(), db.term_stats(), wc);
}

TEST(ChaosTest, SurvivesSeededReadFaultsWithExactAccounting) {
  const DiskOptions disk_options = testing::TestDiskOptions("chaos_acct");
  Database db(TinyPreset(), disk_options);
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();  // small pool: queries keep missing to disk

  const Workload wl = MakeWorkload(db, 64, 17);

  // Every page read is a demand read, so every injected fault fails the
  // read it lands on and the query that made it. The rate is set high
  // enough that the run faults many times over (P(zero) negligible), so
  // the accounting below is checked under real failures.
  FaultInjector::Config fc;
  fc.read_fault_p = 5e-2;
  fc.seed = 42;
  db.disk()->fault_injector()->Configure(fc);

  // Independent tally: the test itself counts every non-OK status the
  // tasks observe, then requires the executor's books to match exactly.
  std::array<std::atomic<uint64_t>, Status::kNumCodes> seen{};
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 8;
  config.metrics = &registry;
  QueryExecutor exec(config);
  constexpr size_t kRounds = 4;
  for (size_t round = 0; round < kRounds; ++round) {
    for (const WorkloadQuery& wq : wl.queries) {
      const WorkloadQuery* q = &wq;
      exec.SubmitQuery([&db, &seen, q](QueryContext* ctx) {
        std::vector<SkResult> results;
        const Status s = db.RunSkQuery(q->sk, q->edge, &results, ctx);
        if (!s.ok()) {
          seen[static_cast<size_t>(s.code())].fetch_add(1);
        }
        return s;
      });
    }
  }
  exec.Drain();
  db.disk()->fault_injector()->Disarm();

  EXPECT_EQ(registry.histogram("executor.query_ms").count(),
            wl.queries.size() * kRounds);
  EXPECT_EQ(seen[0].load(), 0u);  // OK is never a failure
  uint64_t total = 0;
  for (size_t c = 1; c < Status::kNumCodes; ++c) {
    const auto code = static_cast<Status::Code>(c);
    EXPECT_EQ(Errors(registry, code), seen[c].load())
        << "code " << Status::CodeName(code);
    total += Errors(registry, code);
  }
  // Valid queries on a disk that only throws IO faults can fail only with
  // IO_ERROR — no invalid-argument, no corruption, nothing unexplained.
  EXPECT_EQ(total, Errors(registry, Status::Code::kIOError));
  // The injected faults actually happened (64 queries x 4 rounds on a
  // cold-ish pool draws thousands of reads at p=1e-3).
  EXPECT_GT(db.disk()->stats().read_faults.load(), 0u);
  EXPECT_GT(total, 0u);
  // Each failure was also published under its code label as it happened.
  EXPECT_EQ(registry.counter("query.errors.IO_ERROR").value(), total);

  // With the injector disarmed the same database answers cleanly again.
  std::vector<SkResult> results;
  EXPECT_TRUE(
      db.RunSkQuery(wl.queries[0].sk, wl.queries[0].edge, &results).ok());

  testing::RemoveDiskFiles(disk_options);
}

TEST(ChaosTest, TransientFaultIsAbsorbedByRetry) {
  testing::BackendDatabase bdb(TinyPreset());
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  const Workload wl = MakeWorkload(db, 1, 23);

  // One one-shot read fault, one retry allowed: the first attempt fails
  // mid-query, the rerun reads clean. Fully deterministic.
  db.disk()->fault_injector()->InjectReadFaultOnce();
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 1;
  config.max_retries = 1;
  config.metrics = &registry;
  QueryExecutor exec(config);
  const WorkloadQuery* q = &wl.queries[0];
  exec.SubmitQuery([&db, q](QueryContext* ctx) {
    std::vector<SkResult> results;
    return db.RunSkQuery(q->sk, q->edge, &results, ctx);
  });
  exec.Drain();
  uint64_t errors = 0;
  for (size_t c = 1; c < Status::kNumCodes; ++c) {
    errors += Errors(registry, static_cast<Status::Code>(c));
  }
  EXPECT_EQ(errors, 0u) << "the retry must succeed";
  EXPECT_EQ(registry.counter("query.retries").value(), 1u);
}

TEST(ChaosTest, ColdReadOfFlippedBitReportsCorruption) {
  testing::BackendDatabase bdb(TinyPreset());
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  const Workload wl = MakeWorkload(db, 1, 31);

  // Every cold read returns a bit-flipped copy; the page checksum turns
  // that silent corruption into a loud kCorruption on the first miss.
  FaultInjector::Config fc;
  fc.corrupt_read_p = 1.0;
  fc.seed = 5;
  db.disk()->fault_injector()->Configure(fc);
  std::vector<SkResult> results;
  const Status s =
      db.RunSkQuery(wl.queries[0].sk, wl.queries[0].edge, &results);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  db.disk()->fault_injector()->Disarm();
  EXPECT_GT(db.disk()->stats().corruptions_detected.load(), 0u);

  // Corruption is permanent, not transient: the retry policy must not
  // burn attempts on it.
  db.disk()->fault_injector()->Configure(fc);
  obs::MetricsRegistry registry;
  ExecutorConfig config;
  config.num_threads = 1;
  config.max_retries = 5;
  config.metrics = &registry;
  QueryExecutor exec(config);
  const WorkloadQuery* q = &wl.queries[0];
  exec.SubmitQuery([&db, q](QueryContext* ctx) {
    std::vector<SkResult> out;
    return db.RunSkQuery(q->sk, q->edge, &out, ctx);
  });
  exec.Drain();
  db.disk()->fault_injector()->Disarm();
  EXPECT_EQ(registry.counter("query.retries").value(), 0u);
  EXPECT_EQ(Errors(registry, Status::Code::kCorruption), 1u);
}

TEST(ChaosTest, FaultFreeResultsAreIdenticalBeforeAndAfterChaos) {
  // The fault machinery must be invisible when idle: the same query gives
  // byte-identical results before injection, and again after the injector
  // is disarmed (checksums healed by rewrites notwithstanding).
  testing::BackendDatabase bdb(TinyPreset());
  Database& db = *bdb;
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  const Workload wl = MakeWorkload(db, 8, 41);

  auto run_all = [&db, &wl] {
    std::vector<std::vector<SkResult>> all;
    for (const WorkloadQuery& wq : wl.queries) {
      std::vector<SkResult> results;
      EXPECT_TRUE(db.RunSkQuery(wq.sk, wq.edge, &results).ok());
      all.push_back(std::move(results));
    }
    return all;
  };
  const auto before = run_all();

  FaultInjector::Config fc;
  fc.read_fault_p = 0.05;
  fc.seed = 77;
  db.disk()->fault_injector()->Configure(fc);
  for (const WorkloadQuery& wq : wl.queries) {
    std::vector<SkResult> results;
    (void)db.RunSkQuery(wq.sk, wq.edge, &results);  // may fail; must not crash
  }
  db.disk()->fault_injector()->Disarm();

  const auto after = run_all();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].size(), after[i].size()) << "query " << i;
    for (size_t j = 0; j < before[i].size(); ++j) {
      EXPECT_EQ(before[i][j].id, after[i][j].id);
      EXPECT_DOUBLE_EQ(before[i][j].dist, after[i][j].dist);
    }
  }
}

// --- API-boundary validation: malformed queries are InvalidArgument ------

class ValidationTest : public ::testing::Test {
 protected:
  ValidationTest() : db_(TinyPreset()) {
    IndexOptions opts;
    opts.kind = IndexKind::kSIF;
    db_->BuildIndex(opts);
    db_->PrepareForQueries();
    wl_ = MakeWorkload(*db_, 1, 53);
  }

  testing::BackendDatabase db_;
  Workload wl_;
};

TEST_F(ValidationTest, EmptyTermListIsInvalidArgument) {
  SkQuery q = wl_.queries[0].sk;
  q.terms.clear();
  std::vector<SkResult> out;
  EXPECT_TRUE(
      db_->RunSkQuery(q, wl_.queries[0].edge, &out).IsInvalidArgument());
}

TEST_F(ValidationTest, NonPositiveOrNanDeltaIsInvalidArgument) {
  SkQuery q = wl_.queries[0].sk;
  std::vector<SkResult> out;
  q.delta_max = 0.0;
  EXPECT_TRUE(
      db_->RunSkQuery(q, wl_.queries[0].edge, &out).IsInvalidArgument());
  q.delta_max = -5.0;
  EXPECT_TRUE(
      db_->RunSkQuery(q, wl_.queries[0].edge, &out).IsInvalidArgument());
  q.delta_max = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      db_->RunSkQuery(q, wl_.queries[0].edge, &out).IsInvalidArgument());
}

TEST_F(ValidationTest, OutOfRangeEdgeIsInvalidArgument) {
  SkQuery q = wl_.queries[0].sk;
  q.loc.edge = static_cast<EdgeId>(db_->network().num_edges() + 100);
  std::vector<SkResult> out;
  EXPECT_TRUE(
      db_->RunSkQuery(q, wl_.queries[0].edge, &out).IsInvalidArgument());
}

TEST_F(ValidationTest, UnsortedDuplicateTermsAreCanonicalized) {
  const SkQuery& good = wl_.queries[0].sk;
  std::vector<SkResult> want;
  ASSERT_TRUE(db_->RunSkQuery(good, wl_.queries[0].edge, &want).ok());

  SkQuery messy = good;
  std::reverse(messy.terms.begin(), messy.terms.end());
  messy.terms.push_back(messy.terms.front());  // duplicate
  std::vector<SkResult> got;
  ASSERT_TRUE(db_->RunSkQuery(messy, wl_.queries[0].edge, &got).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
  }
}

TEST_F(ValidationTest, DivQueryValidatesKAndLambda) {
  DivQuery dq;
  dq.sk = wl_.queries[0].sk;
  dq.k = 0;
  dq.lambda = 0.8;
  DivSearchOutput out;
  EXPECT_TRUE(db_->RunDivQuery(dq, wl_.queries[0].edge, /*use_com=*/true, &out)
                  .IsInvalidArgument());
  dq.k = kMaxDivK + 1;
  EXPECT_TRUE(db_->RunDivQuery(dq, wl_.queries[0].edge, /*use_com=*/true, &out)
                  .IsInvalidArgument());
  dq.k = 4;
  dq.lambda = 1.5;
  EXPECT_TRUE(db_->RunDivQuery(dq, wl_.queries[0].edge, /*use_com=*/true, &out)
                  .IsInvalidArgument());
  dq.lambda = 0.8;
  EXPECT_TRUE(db_->RunDivQuery(dq, wl_.queries[0].edge, /*use_com=*/true, &out)
                  .ok());
}

TEST_F(ValidationTest, KnnAndRankedValidateTheirParameters) {
  std::vector<SkResult> knn;
  EXPECT_TRUE(db_->RunKnnQuery(wl_.queries[0].sk, wl_.queries[0].edge,
                              /*k=*/0, &knn)
                  .IsInvalidArgument());
  RankedQuery rq;
  rq.sk = wl_.queries[0].sk;
  rq.k = 5;
  rq.alpha = 2.0;
  std::vector<RankedResult> ranked;
  EXPECT_TRUE(db_->RunRankedQuery(rq, wl_.queries[0].edge, &ranked)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace dsks
