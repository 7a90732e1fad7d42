#include <algorithm>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

/// A preset scaled down far enough for fast end-to-end tests.
DatasetConfig TinyPreset() {
  DatasetConfig c = ScalePreset(PresetSYN(), 0.03);
  c.objects.keywords_per_object = 6;
  return c;
}

class DatabaseIntegrationTest
    : public ::testing::TestWithParam<IndexKind> {};

TEST_P(DatabaseIntegrationTest, EndToEndSkAndDivQueries) {
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = GetParam();
  const auto info = db.BuildIndex(opts);
  EXPECT_GT(info.size_bytes, 0u);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 8;
  wc.num_keywords = 2;
  wc.seed = 5;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);

  for (const auto& wq : wl.queries) {
    db.ResetCounters();
    std::vector<SkResult> results;
    ASSERT_TRUE(db.RunSkQuery(wq.sk, wq.edge, &results).ok());
    // Verify against the brute-force reference.
    const auto want = testing::BruteForceSkSearch(db.network(), db.objects(),
                                                  wq.sk);
    ASSERT_EQ(results.size(), want.size())
        << IndexKindName(GetParam());
    // Every returned object satisfies the constraint.
    for (const auto& r : results) {
      EXPECT_TRUE(db.objects().ObjectHasAllTerms(r.id, wq.sk.terms));
    }
  }

  // Diversified queries: COM == SEQ.
  for (size_t i = 0; i < 3; ++i) {
    DivQuery dq;
    dq.sk = wl.queries[i].sk;
    dq.k = 6;
    dq.lambda = 0.8;
    DivSearchOutput seq;
    DivSearchOutput com;
    ASSERT_TRUE(
        db.RunDivQuery(dq, wl.queries[i].edge, /*use_com=*/false, &seq).ok());
    ASSERT_TRUE(
        db.RunDivQuery(dq, wl.queries[i].edge, /*use_com=*/true, &com).ok());
    std::vector<ObjectId> a;
    std::vector<ObjectId> b;
    for (const auto& r : seq.selected) a.push_back(r.id);
    for (const auto& r : com.selected) b.push_back(r.id);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << IndexKindName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, DatabaseIntegrationTest,
                         ::testing::Values(IndexKind::kIR, IndexKind::kIF,
                                           IndexKind::kSIF, IndexKind::kSIFP,
                                           IndexKind::kSIFG),
                         [](const auto& info) {
                           std::string n = IndexKindName(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(DatabaseTest, IoCountingIsPerQuery) {
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  WorkloadConfig wc;
  wc.num_queries = 1;
  wc.seed = 6;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  db.ResetCounters();
  std::vector<SkResult> results;
  ASSERT_TRUE(
      db.RunSkQuery(wl.queries[0].sk, wl.queries[0].edge, &results).ok());
  const uint64_t io1 = db.IoCount();
  EXPECT_GT(io1, 0u);
  db.ResetCounters();
  EXPECT_EQ(db.IoCount(), 0u);
}

/// Each setup phase records the process's peak RSS as it ended: a
/// high-water mark, so it never falls from one phase to the next, and
/// BindMetrics exposes it as a gauge next to the phase's time.
TEST(DatabaseTest, SetupPhasesRecordThePeakRssAsTheyEnd) {
  Database db(TinyPreset());
  db.BuildIndex(IndexOptions{});
  db.PrepareForQueries();
  const Database::SetupTimes& setup = db.setup_times();
  uint64_t previous = 0;
  for (const Database::SetupPhase* phase :
       {&setup.dataset, &setup.term_stats, &setup.ccam, &setup.index_build,
        &setup.prepare}) {
    EXPECT_GT(phase->peak_rss_bytes, 0u);
    EXPECT_GE(phase->peak_rss_bytes, previous);
    previous = phase->peak_rss_bytes;
  }
  obs::MetricsRegistry registry;
  db.BindMetrics(&registry, "db");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"db.setup.index_build_peak_rss_bytes\":" +
                      std::to_string(setup.index_build.peak_rss_bytes)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"db.setup.index_build_ms\":"), std::string::npos);
  db.UnbindMetrics(&registry, "db");
}

TEST(DatabaseTest, SifNeverSlowerThanIfInIo) {
  // The headline §5.1 trend at tiny scale: total workload I/O of SIF is
  // below IF (signatures prune probes).
  const DatasetConfig preset = TinyPreset();
  WorkloadConfig wc;
  wc.num_queries = 12;
  wc.num_keywords = 3;
  wc.seed = 7;

  double io_if = 0.0;
  double io_sif = 0.0;
  {
    Database db(preset);
    IndexOptions o;
    o.kind = IndexKind::kIF;
    db.BuildIndex(o);
    db.PrepareForQueries();
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
    io_if = RunSkWorkload(&db, wl).avg_io;
  }
  {
    Database db(preset);
    IndexOptions o;
    o.kind = IndexKind::kSIF;
    o.signature_min_postings = 1;  // sign every keyword
    db.BuildIndex(o);
    db.PrepareForQueries();
    const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
    io_sif = RunSkWorkload(&db, wl).avg_io;
  }
  EXPECT_LE(io_sif, io_if);
}

TEST(ExperimentTest, WorkloadMetricsAreAveraged) {
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();
  WorkloadConfig wc;
  wc.num_queries = 5;
  wc.seed = 8;
  const Workload wl = GenerateWorkload(db.objects(), db.term_stats(), wc);
  const SkWorkloadMetrics m = RunSkWorkload(&db, wl);
  EXPECT_GE(m.avg_io, 0.0);
  EXPECT_GE(m.avg_millis, 0.0);

  const DivWorkloadMetrics dm = RunDivWorkload(&db, wl, 4, 0.8, true);
  EXPECT_GE(dm.avg_candidates, 0.0);
  EXPECT_GE(dm.avg_objective, 0.0);
}

TEST(DatabaseTest, KnnAndRankedQueriesThroughTheFacade) {
  Database db(TinyPreset());
  IndexOptions opts;
  opts.kind = IndexKind::kSIF;
  db.BuildIndex(opts);
  db.PrepareForQueries();

  const auto& anchor = db.objects().object(17 % db.objects().size());
  SkQuery q;
  q.loc = NetworkLocation{anchor.edge, anchor.offset};
  q.terms = {anchor.terms[0]};
  q.delta_max = 2000.0;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(db.network(), q.loc);

  // kNN: prefix of the full result, closest first.
  std::vector<SkResult> full;
  std::vector<SkResult> knn;
  ASSERT_TRUE(db.RunSkQuery(q, qe, &full).ok());
  ASSERT_TRUE(db.RunKnnQuery(q, qe, 3, &knn).ok());
  ASSERT_LE(knn.size(), 3u);
  ASSERT_LE(knn.size(), full.size());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_NEAR(knn[i].dist, full[i].dist, 1e-9);
  }

  // Ranked: partial matches allowed, so at least as many hits compete.
  RankedQuery rq;
  rq.sk = q;
  rq.sk.terms.assign(anchor.terms.begin(),
                     anchor.terms.end());  // several keywords, OR semantics
  rq.k = 5;
  rq.alpha = 0.5;
  std::vector<RankedResult> ranked;
  ASSERT_TRUE(db.RunRankedQuery(rq, qe, &ranked).ok());
  ASSERT_FALSE(ranked.empty());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].score, ranked[i].score + 1e-12);
  }
  // The anchor object itself matches everything at distance 0.
  EXPECT_EQ(ranked[0].id, anchor.id);
}

TEST(TablePrinterTest, FormatsRows) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({TablePrinter::Fmt(3.14159, 2), TablePrinter::Fmt(2.0, 0)});
  t.Print();  // smoke: must not crash
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace dsks
