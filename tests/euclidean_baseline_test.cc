#include <algorithm>
#include <memory>
#include <vector>

#include "core/euclidean_baseline.h"
#include "core/query_context.h"
#include "core/sk_search.h"
#include "datagen/workload.h"
#include "graph/ccam.h"
#include "gtest/gtest.h"
#include "index/inverted_rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::MakeRandomDataset;
using ::dsks::testing::TestDataset;

class EuclideanBaselineTest : public ::testing::TestWithParam<uint64_t> {};

/// The filter-and-refine baseline must return exactly the Definition 1
/// result set (it is an alternative evaluation strategy, not an
/// approximation) — equivalence holds because edge weights equal edge
/// lengths in these datasets, making Euclidean distance a lower bound.
TEST_P(EuclideanBaselineTest, EquivalentToBruteForce) {
  TestDataset data = MakeRandomDataset(GetParam(), 140, 450, 20, 4, 1.0);
  DiskManager disk;
  BufferPool pool(&disk, 1u << 15);
  const CcamFile ccam = CcamFileBuilder::Build(*data.network, &disk);
  CcamGraph graph(&ccam, &pool);
  InvertedRTreeIndex index(&pool, *data.objects, 20);

  Random rng(GetParam() ^ 0xE0C1);
  QueryContext ctx;
  for (int round = 0; round < 10; ++round) {
    SkQuery q;
    q.loc = testing::LocationOfObject(*data.objects, rng.Uniform(450));
    q.terms = {static_cast<TermId>(rng.Uniform(6)),
               static_cast<TermId>(6 + rng.Uniform(14))};
    std::sort(q.terms.begin(), q.terms.end());
    q.delta_max = 300.0 + 200.0 * static_cast<double>(round);

    const QueryEdgeInfo qe = MakeQueryEdgeInfo(*data.network, q.loc);
    EuclideanBaselineStats stats;
    std::vector<SkResult> got;
    ASSERT_TRUE(EuclideanFilterRefine(&graph, *data.network, &index, q, qe,
                                      &got, &stats, &ctx)
                    .ok());
    const auto want =
        testing::BruteForceSkSearch(*data.network, *data.objects, q);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_NEAR(got[i].dist, want[i].dist, 1e-9);
    }
    // The filter never under-approximates.
    EXPECT_GE(stats.euclidean_candidates, got.size());
    EXPECT_EQ(stats.verified, got.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EuclideanBaselineTest,
                         ::testing::Values(601, 602, 603, 604));

TEST(EuclideanBaselineTest, FilterAdmitsNetworkUnreachableCandidates) {
  // A network where Euclidean proximity lies: two parallel roads connected
  // only at the far end, so the straight-line neighbour is a long drive.
  RoadNetwork net;
  //  n0 --- n1 --- n2
  //                |
  //  n3 --- n4 --- n5     (n0..n2 at y=0, n3..n5 at y=6; join at x=200)
  net.AddNode({0, 0});
  net.AddNode({100, 0});
  net.AddNode({200, 0});
  net.AddNode({0, 6});
  net.AddNode({100, 6});
  net.AddNode({200, 6});
  EdgeId e01;
  EdgeId e12;
  EdgeId e34;
  EdgeId e45;
  EdgeId e25;
  ASSERT_TRUE(net.AddEdge(0, 1, -1, &e01).ok());
  ASSERT_TRUE(net.AddEdge(1, 2, -1, &e12).ok());
  ASSERT_TRUE(net.AddEdge(3, 4, -1, &e34).ok());
  ASSERT_TRUE(net.AddEdge(4, 5, -1, &e45).ok());
  ASSERT_TRUE(net.AddEdge(2, 5, -1, &e25).ok());
  net.Finalize();

  ObjectSet objects(&net);
  ObjectId across;
  ObjectId along;
  // Object straight across the gap (Euclidean ~6, network ~400).
  ASSERT_TRUE(objects.Add(e34, 10.0, {1}, &across).ok());
  // Object down the same road (network 50).
  ASSERT_TRUE(objects.Add(e01, 60.0, {1}, &along).ok());
  objects.Finalize();

  DiskManager disk;
  BufferPool pool(&disk, 256);
  const CcamFile ccam = CcamFileBuilder::Build(net, &disk);
  CcamGraph graph(&ccam, &pool);
  InvertedRTreeIndex index(&pool, objects, 4);

  SkQuery q;
  q.loc = NetworkLocation{e01, 10.0};
  q.terms = {1};
  q.delta_max = 100.0;
  const QueryEdgeInfo qe = MakeQueryEdgeInfo(net, q.loc);
  EuclideanBaselineStats stats;
  std::vector<SkResult> got;
  QueryContext ctx;
  ASSERT_TRUE(EuclideanFilterRefine(&graph, net, &index, q, qe, &got, &stats,
                                    &ctx)
                  .ok());

  // The Euclidean filter admits both objects; only one survives.
  EXPECT_EQ(stats.euclidean_candidates, 2u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, along);
}

}  // namespace
}  // namespace dsks
