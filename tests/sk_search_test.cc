#include <algorithm>
#include <memory>
#include <vector>

#include "core/network_expansion.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "index/sif.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::BruteForceSkSearch;
using ::dsks::testing::MakeRandomDataset;
using ::dsks::testing::TestDataset;

/// Everything an INE test needs, wired together.
struct SearchFixture {
  TestDataset data;
  DiskManager disk;
  std::unique_ptr<BufferPool> pool;
  CcamFile ccam;
  std::unique_ptr<CcamGraph> graph;
  std::unique_ptr<SifIndex> index;

  explicit SearchFixture(uint64_t seed, size_t nodes = 150,
                         size_t objects = 500, size_t vocab = 25,
                         size_t keywords = 4) {
    data = MakeRandomDataset(seed, nodes, objects, vocab, keywords, 1.0);
    pool = std::make_unique<BufferPool>(&disk, 1u << 15);
    ccam = CcamFileBuilder::Build(*data.network, &disk);
    graph = std::make_unique<CcamGraph>(&ccam, pool.get());
    index = std::make_unique<SifIndex>(pool.get(), *data.objects, vocab, 1);
  }

  IncrementalSkSearch MakeSearch(const SkQuery& query) {
    const QueryEdgeInfo info =
        MakeQueryEdgeInfo(*data.network, query.loc);
    return IncrementalSkSearch(graph.get(), index.get(), query, info);
  }
};

struct SkSweepParam {
  uint64_t seed;
  size_t query_terms;
  double delta_max;
};

class SkSearchPropertyTest : public ::testing::TestWithParam<SkSweepParam> {};

/// Algorithm 3 must return exactly the brute-force result set, with exact
/// distances, in non-decreasing distance order.
TEST_P(SkSearchPropertyTest, MatchesBruteForce) {
  const SkSweepParam p = GetParam();
  SearchFixture fx(p.seed);
  Random rng(p.seed ^ 0xACE);

  for (int round = 0; round < 12; ++round) {
    SkQuery query;
    query.loc = testing::LocationOfObject(*fx.data.objects,
                                          rng.Uniform(500));
    while (query.terms.size() < p.query_terms) {
      const TermId t = static_cast<TermId>(rng.Uniform(25));
      if (std::find(query.terms.begin(), query.terms.end(), t) ==
          query.terms.end()) {
        query.terms.push_back(t);
      }
    }
    std::sort(query.terms.begin(), query.terms.end());
    query.delta_max = p.delta_max;

    auto search = fx.MakeSearch(query);
    std::vector<SkResult> got;
    SkResult r;
    double prev = 0.0;
    while (search.Next(&r)) {
      EXPECT_GE(r.dist, prev - 1e-9) << "order violated";
      prev = r.dist;
      EXPECT_LE(r.dist, query.delta_max + 1e-9);
      got.push_back(r);
    }

    const auto want = BruteForceSkSearch(*fx.data.network, *fx.data.objects,
                                         query);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    // Compare as sets (ties may order differently).
    std::sort(got.begin(), got.end(),
              [](const SkResult& a, const SkResult& b) {
                return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
              });
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "round " << round << " i=" << i;
      EXPECT_NEAR(got[i].dist, want[i].dist, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkSearchPropertyTest,
    ::testing::Values(SkSweepParam{201, 1, 400.0},
                      SkSweepParam{202, 2, 900.0},
                      SkSweepParam{203, 3, 1500.0},
                      SkSweepParam{204, 2, 3000.0},
                      SkSweepParam{205, 4, 50000.0},  // whole network
                      SkSweepParam{206, 1, 50.0}));   // tiny range

TEST(SkSearchTest, ResultsCarryConsistentEdgeGeometry) {
  SearchFixture fx(301);
  SkQuery query;
  query.loc = testing::LocationOfObject(*fx.data.objects, 3);
  query.terms = {0};
  query.delta_max = 2000.0;
  auto search = fx.MakeSearch(query);
  SkResult r;
  int checked = 0;
  while (search.Next(&r)) {
    const Edge& e = fx.data.network->edge(r.edge);
    EXPECT_EQ(r.n1, e.n1);
    EXPECT_EQ(r.n2, e.n2);
    EXPECT_DOUBLE_EQ(r.edge_weight, e.weight);
    EXPECT_GE(r.w1, -1e-9);
    EXPECT_LE(r.w1, e.weight + 1e-9);
    const auto& obj = fx.data.objects->object(r.id);
    EXPECT_EQ(obj.edge, r.edge);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(SkSearchTest, TerminateStopsTheStream) {
  SearchFixture fx(302);
  SkQuery query;
  query.loc = testing::LocationOfObject(*fx.data.objects, 9);
  query.terms = {0};
  query.delta_max = 5000.0;
  auto search = fx.MakeSearch(query);
  SkResult r;
  ASSERT_TRUE(search.Next(&r));
  search.Terminate();
  EXPECT_FALSE(search.Next(&r));
}

TEST(SkSearchTest, EmptyWhenKeywordAbsent) {
  SearchFixture fx(303);
  SkQuery query;
  query.loc = testing::LocationOfObject(*fx.data.objects, 0);
  query.terms = {23, 24};  // rare tail terms co-occurring is unlikely;
  query.delta_max = 100.0;  // and the range is tiny
  auto search = fx.MakeSearch(query);
  const auto want =
      BruteForceSkSearch(*fx.data.network, *fx.data.objects, query);
  SkResult r;
  size_t got = 0;
  while (search.Next(&r)) ++got;
  EXPECT_EQ(got, want.size());
}

TEST(SkSearchTest, QueryOnObjectFindsItAtDistanceZero) {
  SearchFixture fx(304);
  // Query placed exactly on object 0, with one of its keywords.
  const auto& obj = fx.data.objects->object(0);
  SkQuery query;
  query.loc = NetworkLocation{obj.edge, obj.offset};
  query.terms = {obj.terms[0]};
  query.delta_max = 500.0;
  auto search = fx.MakeSearch(query);
  SkResult r;
  ASSERT_TRUE(search.Next(&r));
  EXPECT_NEAR(r.dist, 0.0, 1e-9);
}

TEST(SkSearchTest, ExpansionIsBoundedByDeltaMax) {
  SearchFixture fx(305);
  SkQuery query;
  query.loc = testing::LocationOfObject(*fx.data.objects, 1);
  query.terms = {0};
  query.delta_max = 300.0;
  auto small = fx.MakeSearch(query);
  SkResult r;
  while (small.Next(&r)) {
  }
  const uint64_t small_nodes = small.stats().nodes_settled;

  query.delta_max = 3000.0;
  auto large = fx.MakeSearch(query);
  while (large.Next(&r)) {
  }
  EXPECT_LT(small_nodes, large.stats().nodes_settled);
  EXPECT_LT(small_nodes, fx.data.network->num_nodes());
}

/// Next()'s two steps driven by hand, as the ranked search drives them,
/// give Next()'s stream and settle count; once the expansion is exhausted
/// ExpandOneNode() returns false rather than relaxing a stale adjacency.
TEST(SkSearchTest, StepsReproduceNextAndStopWhenExhausted) {
  SearchFixture fx(307);
  SkQuery query;
  query.loc = testing::LocationOfObject(*fx.data.objects, 5);
  query.terms = {0};
  query.delta_max = 1500.0;
  std::vector<SkResult> want;
  uint64_t want_settles = 0;
  {
    auto search = fx.MakeSearch(query);
    SkResult r;
    while (search.Next(&r)) {
      want.push_back(r);
    }
    ASSERT_TRUE(search.status().ok());
    want_settles = search.stats().nodes_settled;
  }
  ASSERT_FALSE(want.empty());

  auto search = fx.MakeSearch(query);
  std::vector<SkResult> got;
  SkResult r;
  // A node settles at most once, so more turns than nodes means
  // ExpandOneNode() never reported the end.
  const size_t max_turns = fx.data.network->num_nodes() + 1;
  size_t turns = 0;
  do {
    while (search.PopFinalized(&r)) {
      EXPECT_LE(r.dist, search.Frontier());
      got.push_back(r);
    }
  } while (search.ExpandOneNode() && ++turns < max_turns);
  ASSERT_LT(turns, max_turns);
  EXPECT_TRUE(search.status().ok());
  EXPECT_EQ(search.Frontier(), kInfDistance);
  EXPECT_FALSE(search.ExpandOneNode());
  EXPECT_FALSE(search.PopFinalized(&r));
  EXPECT_EQ(search.stats().nodes_settled, want_settles);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << i;
  }
}

/// The settle that finds the deadline expired still returns its node, with
/// no adjacency and a non-OK status; only the next Settle() stops. The
/// oracle's shared pass relies on this to give every settled node its
/// settle index.
TEST(NetworkExpansionTest, CancelledSettleReturnsItsNodeThenStops) {
  SearchFixture fx(306);
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(
      *fx.data.network, testing::LocationOfObject(*fx.data.objects, 0));
  QueryContext ctx;
  ctx.deadline_steady_ns = DeadlineFromNowMillis(-1.0);
  NetworkExpansion x(fx.graph.get(), 1e9, &ctx.sk_search.expansion, &ctx);
  x.Seed(qe.n1, qe.n2, qe.weight, qe.w1);
  NodeId v;
  double d;
  for (uint64_t i = 1; i < NetworkExpansion::kPollInterval; ++i) {
    ASSERT_TRUE(x.Settle(&v, &d));
    ASSERT_TRUE(x.status().ok());
    ASSERT_FALSE(x.adjacency().empty());
    for (const AdjacentEdge& adj : x.adjacency()) {
      x.Relax(adj.neighbor, d + adj.weight);
    }
  }
  ASSERT_TRUE(x.Settle(&v, &d));  // this settle polls the deadline
  EXPECT_TRUE(x.status().IsCancelled());
  EXPECT_TRUE(x.adjacency().empty());
  EXPECT_EQ(x.SettledDistance(v), d);
  EXPECT_FALSE(x.Settle(&v, &d));
  EXPECT_EQ(x.settles(), NetworkExpansion::kPollInterval);
}

}  // namespace
}  // namespace dsks
