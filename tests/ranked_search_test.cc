#include <algorithm>
#include <memory>
#include <vector>

#include "core/network_expansion.h"
#include "core/query_context.h"
#include "core/ranked_search.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::MakeRandomDataset;
using ::dsks::testing::TestDataset;

struct RankedFixture {
  TestDataset data;
  DiskManager disk;
  std::unique_ptr<BufferPool> pool;
  CcamFile ccam;
  std::unique_ptr<CcamGraph> graph;
  std::unique_ptr<SifIndex> index;
  QueryContext ctx;  // one query at a time, as a worker thread runs them

  explicit RankedFixture(uint64_t seed) {
    data = MakeRandomDataset(seed, 130, 450, 22, 4, 1.0);
    pool = std::make_unique<BufferPool>(&disk, 1u << 15);
    ccam = CcamFileBuilder::Build(*data.network, &disk);
    graph = std::make_unique<CcamGraph>(&ccam, pool.get());
    index = std::make_unique<SifIndex>(pool.get(), *data.objects, 22, 1);
  }
};

/// Brute-force ranked reference: exact distances, OR semantics, exact
/// scores, sorted by (score, id).
std::vector<RankedResult> BruteForceRanked(const RoadNetwork& net,
                                           const ObjectSet& objects,
                                           const RankedQuery& q) {
  std::vector<NetworkLocation> locs;
  std::vector<ObjectId> ids;
  std::vector<uint32_t> matched;
  for (const auto& obj : objects.objects()) {
    uint32_t m = 0;
    for (TermId t : q.sk.terms) {
      m += objects.ObjectHasTerm(obj.id, t) ? 1 : 0;
    }
    if (m > 0) {
      locs.push_back(NetworkLocation{obj.edge, obj.offset});
      ids.push_back(obj.id);
      matched.push_back(m);
    }
  }
  const auto dist = DistancesToLocations(net, q.sk.loc, locs);
  std::vector<RankedResult> all;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (dist[i] > q.sk.delta_max) continue;
    RankedResult r;
    r.id = ids[i];
    r.dist = dist[i];
    r.matched = matched[i];
    r.score = q.alpha * (dist[i] / q.sk.delta_max) +
              (1.0 - q.alpha) *
                  (1.0 - static_cast<double>(matched[i]) /
                             static_cast<double>(q.sk.terms.size()));
    all.push_back(r);
  }
  std::sort(all.begin(), all.end(), [](const RankedResult& a,
                                       const RankedResult& b) {
    return a.score != b.score ? a.score < b.score : a.id < b.id;
  });
  if (all.size() > q.k) {
    all.resize(q.k);
  }
  return all;
}

struct RankedSweep {
  uint64_t seed;
  size_t k;
  double alpha;
  double delta_max;
};

class RankedSearchPropertyTest
    : public ::testing::TestWithParam<RankedSweep> {};

TEST_P(RankedSearchPropertyTest, MatchesBruteForce) {
  const RankedSweep p = GetParam();
  RankedFixture fx(p.seed);
  Random rng(p.seed ^ 0xABC);

  for (int round = 0; round < 8; ++round) {
    RankedQuery q;
    q.sk.loc = testing::LocationOfObject(*fx.data.objects, rng.Uniform(450));
    while (q.sk.terms.size() < 3) {
      const TermId t = static_cast<TermId>(rng.Uniform(22));
      if (std::find(q.sk.terms.begin(), q.sk.terms.end(), t) ==
          q.sk.terms.end()) {
        q.sk.terms.push_back(t);
      }
    }
    std::sort(q.sk.terms.begin(), q.sk.terms.end());
    q.sk.delta_max = p.delta_max;
    q.k = p.k;
    q.alpha = p.alpha;

    const QueryEdgeInfo qe = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);
    RankedSearchStats stats;
    std::vector<RankedResult> got;
    ASSERT_TRUE(RankedSkSearch(fx.graph.get(), fx.index.get(), q, qe, &got,
                               &stats, &fx.ctx)
                    .ok());
    const auto want =
        BruteForceRanked(*fx.data.network, *fx.data.objects, q);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "round " << round << " i=" << i;
      EXPECT_NEAR(got[i].score, want[i].score, 1e-9);
      EXPECT_EQ(got[i].matched, want[i].matched);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RankedSearchPropertyTest,
    ::testing::Values(RankedSweep{501, 5, 0.5, 1200.0},
                      RankedSweep{502, 10, 0.8, 900.0},
                      RankedSweep{503, 3, 0.2, 1500.0},
                      RankedSweep{504, 8, 1.0, 2000.0},
                      RankedSweep{505, 20, 0.6, 2500.0},
                      RankedSweep{506, 1, 0.9, 800.0}));

TEST(RankedSearchTest, HighAlphaTerminatesEarly) {
  RankedFixture fx(510);
  RankedQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 7);
  q.sk.terms = {0, 1};
  q.sk.delta_max = 5000.0;  // covers most of the network
  q.k = 3;
  q.alpha = 1.0;  // pure distance: nearest objects win immediately
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);
  RankedSearchStats stats;
  std::vector<RankedResult> got;
  ASSERT_TRUE(RankedSkSearch(fx.graph.get(), fx.index.get(), q, qe, &got,
                             &stats, &fx.ctx)
                  .ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(stats.early_terminated);
  EXPECT_LT(stats.nodes_settled, fx.data.network->num_nodes());
}

TEST(RankedSearchTest, FullTextMatchOutranksCloserPartialMatch) {
  RankedFixture fx(511);
  // With alpha small, an object matching all keywords beats a nearer
  // object matching one.
  RankedQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 99);
  q.sk.terms = {0, 1, 2};
  q.sk.delta_max = 3000.0;
  q.k = 5;
  q.alpha = 0.1;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);
  std::vector<RankedResult> got;
  ASSERT_TRUE(RankedSkSearch(fx.graph.get(), fx.index.get(), q, qe, &got,
                             /*stats=*/nullptr, &fx.ctx)
                  .ok());
  ASSERT_FALSE(got.empty());
  // Results are score-sorted, and matched counts dominate under low alpha:
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i - 1].matched + 1, got[i].matched);
  }
}

TEST(RankedSearchTest, ExpiredDeadlineCancelsTheExpansion) {
  RankedFixture fx(513);
  RankedQuery q;
  q.sk.loc = testing::LocationOfObject(*fx.data.objects, 11);
  q.sk.terms = {0, 1};
  q.sk.delta_max = 1e9;  // the whole network
  q.k = 3;
  q.alpha = 0.0;  // text-only score: no threshold termination
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(*fx.data.network, q.sk.loc);

  // Without a deadline the expansion runs past its first deadline poll.
  RankedSearchStats full;
  std::vector<RankedResult> got;
  ASSERT_TRUE(RankedSkSearch(fx.graph.get(), fx.index.get(), q, qe, &got,
                             &full, &fx.ctx)
                  .ok());
  ASSERT_GT(full.nodes_settled, NetworkExpansion::kPollInterval);

  // An already-expired deadline stops it at that poll, with no results.
  QueryContext ctx;
  ctx.deadline_steady_ns = DeadlineFromNowMillis(-1.0);
  RankedSearchStats cancelled;
  const Status s = RankedSkSearch(fx.graph.get(), fx.index.get(), q, qe,
                                  &got, &cancelled, &ctx);
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(cancelled.nodes_settled, NetworkExpansion::kPollInterval);
}

TEST(BooleanKnnTest, ReturnsKClosestMatching) {
  RankedFixture fx(512);
  SkQuery q;
  q.loc = testing::LocationOfObject(*fx.data.objects, 3);
  q.terms = {0};
  q.delta_max = 4000.0;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(*fx.data.network, q.loc);
  std::vector<SkResult> knn;
  ASSERT_TRUE(BooleanKnnSearch(fx.graph.get(), fx.index.get(), q, qe, 4, &knn,
                               &fx.ctx)
                  .ok());
  const auto all = testing::BruteForceSkSearch(*fx.data.network,
                                               *fx.data.objects, q);
  ASSERT_GE(all.size(), 4u);
  ASSERT_EQ(knn.size(), 4u);
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_NEAR(knn[i].dist, all[i].dist, 1e-9);
  }
}

}  // namespace
}  // namespace dsks
