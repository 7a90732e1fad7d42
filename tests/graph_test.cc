#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "graph/ccam.h"
#include "graph/dijkstra.h"
#include "graph/object_set.h"
#include "graph/road_network.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

using ::dsks::testing::MakeRandomDataset;

/// The running example of the paper (Fig. 2 style): a small network whose
/// distances we can verify by hand.
std::unique_ptr<RoadNetwork> MakePaperishNetwork() {
  auto net = std::make_unique<RoadNetwork>();
  // A 2x3 grid with unit spacing 10.
  //  n3 - n4 - n5
  //  |    |    |
  //  n0 - n1 - n2
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      net->AddNode(Point{10.0 * c, 10.0 * r});
    }
  }
  EdgeId e;
  EXPECT_TRUE(net->AddEdge(0, 1, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(1, 2, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(3, 4, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(4, 5, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(0, 3, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(1, 4, -1, &e).ok());
  EXPECT_TRUE(net->AddEdge(2, 5, -1, &e).ok());
  net->Finalize();
  return net;
}

TEST(RoadNetworkTest, RejectsInvalidEdges) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1, 0});
  EdgeId e;
  EXPECT_TRUE(net.AddEdge(0, 5, -1, &e).IsInvalidArgument());
  EXPECT_TRUE(net.AddEdge(0, 0, -1, &e).IsInvalidArgument());
}

TEST(RoadNetworkTest, ReferenceNodeIsSmallerId) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({10, 0});
  EdgeId e;
  ASSERT_TRUE(net.AddEdge(1, 0, -1, &e).ok());  // reversed on purpose
  EXPECT_EQ(net.edge(e).n1, 0u);
  EXPECT_EQ(net.edge(e).n2, 1u);
  EXPECT_DOUBLE_EQ(net.edge(e).length, 10.0);
  EXPECT_DOUBLE_EQ(net.edge(e).weight, 10.0);  // defaulting to length
}

TEST(RoadNetworkTest, CustomWeightIsProportionalAlongEdge) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({10, 0});
  EdgeId e;
  ASSERT_TRUE(net.AddEdge(0, 1, 40.0, &e).ok());  // travel time != length
  net.Finalize();
  // w(n1, p) = w * d(n1,p)/d(n1,n2) (the footnote of §2.1).
  EXPECT_DOUBLE_EQ(net.WeightFromN1(e, 2.5), 10.0);
  EXPECT_DOUBLE_EQ(net.WeightFromN2(e, 2.5), 30.0);
}

TEST(RoadNetworkTest, NeighborsAreComplete) {
  auto net = MakePaperishNetwork();
  EXPECT_EQ(net->Neighbors(0).size(), 2u);
  EXPECT_EQ(net->Neighbors(1).size(), 3u);
  EXPECT_EQ(net->Neighbors(4).size(), 3u);
  // Every edge appears in exactly two adjacency lists.
  size_t total = 0;
  for (NodeId v = 0; v < net->num_nodes(); ++v) {
    total += net->Neighbors(v).size();
  }
  EXPECT_EQ(total, 2 * net->num_edges());
}

TEST(RoadNetworkTest, ProjectOntoEdgeClampsToSegment) {
  auto net = MakePaperishNetwork();
  // Edge 0 connects (0,0)-(10,0).
  Point snapped;
  double dist;
  const double off = net->ProjectOntoEdge(0, Point{4, 3}, &snapped, &dist);
  EXPECT_DOUBLE_EQ(off, 4.0);
  EXPECT_DOUBLE_EQ(dist, 3.0);
  const double off2 = net->ProjectOntoEdge(0, Point{-5, 1}, &snapped, &dist);
  EXPECT_DOUBLE_EQ(off2, 0.0);  // clamped to the endpoint
}

TEST(DijkstraTest, HandComputedDistances) {
  auto net = MakePaperishNetwork();
  const auto dist = DijkstraFromNode(*net, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 10.0);
  EXPECT_DOUBLE_EQ(dist[2], 20.0);
  EXPECT_DOUBLE_EQ(dist[3], 10.0);
  EXPECT_DOUBLE_EQ(dist[4], 20.0);
  EXPECT_DOUBLE_EQ(dist[5], 30.0);
}

TEST(DijkstraTest, LocationToLocationSameEdgeDirect) {
  auto net = MakePaperishNetwork();
  const double d = ExactNetworkDistance(*net, NetworkLocation{0, 2.0},
                                        NetworkLocation{0, 9.0});
  EXPECT_DOUBLE_EQ(d, 7.0);
}

TEST(DijkstraTest, LocationCrossEdge) {
  auto net = MakePaperishNetwork();
  // Point 2 units into edge 0 (from n0) to point 3 units into edge 1
  // (edge 1 connects n1-n2, reference n1): path via n1 = 8 + 3 = 11.
  const double d = ExactNetworkDistance(*net, NetworkLocation{0, 2.0},
                                        NetworkLocation{1, 3.0});
  EXPECT_DOUBLE_EQ(d, 11.0);
}

class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesFloydWarshall) {
  NetworkGenConfig nc;
  nc.num_nodes = 60;
  nc.edge_node_ratio = 1.5;
  nc.seed = GetParam();
  auto net = GenerateRoadNetwork(nc);
  const auto fw = FloydWarshall(*net);
  for (NodeId s = 0; s < net->num_nodes(); s += 7) {
    const auto d = DijkstraFromNode(*net, s);
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      ASSERT_NEAR(d[v], fw[s][v], 1e-9) << "s=" << s << " v=" << v;
    }
  }
}

TEST_P(DijkstraPropertyTest, BoundedDijkstraIsPrefixOfFull) {
  auto data = MakeRandomDataset(GetParam(), 120, 50);
  const RoadNetwork& net = *data.network;
  const NetworkLocation loc{0, net.edge(0).length / 3.0};
  const double radius = 900.0;
  const auto bounded = BoundedDijkstraFromLocation(net, loc, radius);
  const auto full = BoundedDijkstraFromLocation(net, loc, kInfDistance);
  for (const auto& [v, d] : bounded) {
    ASSERT_NEAR(d, full.at(v), 1e-9);
    EXPECT_LE(d, radius + 1e-9);
  }
  // Everything the full run settles within the radius is present.
  for (const auto& [v, d] : full) {
    if (d <= radius) {
      EXPECT_TRUE(bounded.count(v)) << "node " << v << " missing";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25));

TEST(ObjectSetTest, AddValidatesInput) {
  auto net = MakePaperishNetwork();
  ObjectSet objects(net.get());
  ObjectId id;
  EXPECT_TRUE(objects.Add(99, 0.0, {1}, &id).IsInvalidArgument());
  EXPECT_TRUE(objects.Add(0, -1.0, {1}, &id).IsInvalidArgument());
  EXPECT_TRUE(objects.Add(0, 99.0, {1}, &id).IsInvalidArgument());
  EXPECT_TRUE(objects.Add(0, 5.0, {}, &id).IsInvalidArgument());
  EXPECT_TRUE(objects.Add(0, 5.0, {3, 1, 3}, &id).ok());
  // Terms are sorted and deduplicated.
  const std::span<const TermId> terms = objects.object(id).terms;
  EXPECT_EQ(std::vector<TermId>(terms.begin(), terms.end()),
            (std::vector<TermId>{1, 3}));
}

/// Each object's `terms` views the set's one term array: the views must
/// follow that array through every reallocation Add makes, the trim in
/// Finalize and a move of the whole set.
TEST(ObjectSetTest, TermSpansSurviveGrowthFinalizeAndMove) {
  auto net = MakePaperishNetwork();
  ObjectSet objects(net.get());
  std::vector<std::vector<TermId>> want;
  auto expect_terms = [&want](const ObjectSet& set, const char* when) {
    ASSERT_EQ(set.size(), want.size()) << when;
    for (ObjectId id = 0; id < set.size(); ++id) {
      const std::span<const TermId> got = set.object(id).terms;
      EXPECT_EQ(std::vector<TermId>(got.begin(), got.end()), want[id])
          << when << ", object " << id;
    }
  };
  // No Reserve: the term array starts empty and regrows many times.
  for (TermId i = 0; i < 300; ++i) {
    const std::vector<TermId> terms = {i % 7 + 10, i % 3, i % 7 + 10};
    ObjectId id;
    ASSERT_TRUE(objects.Add(i % 7, 1.0, terms, &id).ok());
    want.push_back({i % 3, i % 7 + 10});  // sorted, deduplicated
  }
  expect_terms(objects, "after growth");
  EXPECT_EQ(objects.TotalTermOccurrences(), 600u);
  objects.Finalize();
  expect_terms(objects, "after Finalize");
  const ObjectSet moved = std::move(objects);
  expect_terms(moved, "after a move");
  EXPECT_TRUE(moved.ObjectHasAllTerms(299, want[299]));
}

TEST(ObjectSetTest, ObjectsOnEdgeSortedByOffset) {
  auto net = MakePaperishNetwork();
  ObjectSet objects(net.get());
  ObjectId a;
  ObjectId b;
  ObjectId c;
  ASSERT_TRUE(objects.Add(0, 7.0, {1}, &a).ok());
  ASSERT_TRUE(objects.Add(0, 2.0, {2}, &b).ok());
  ASSERT_TRUE(objects.Add(0, 4.5, {3}, &c).ok());
  objects.Finalize();
  const auto on_edge = objects.ObjectsOnEdge(0);
  ASSERT_EQ(on_edge.size(), 3u);
  EXPECT_EQ(on_edge[0], b);
  EXPECT_EQ(on_edge[1], c);
  EXPECT_EQ(on_edge[2], a);
  EXPECT_TRUE(objects.ObjectsOnEdge(3).empty());
}

TEST(ObjectSetTest, TermMembership) {
  auto net = MakePaperishNetwork();
  ObjectSet objects(net.get());
  ObjectId id;
  ASSERT_TRUE(objects.Add(1, 1.0, {2, 5, 9}, &id).ok());
  objects.Finalize();
  EXPECT_TRUE(objects.ObjectHasTerm(id, 5));
  EXPECT_FALSE(objects.ObjectHasTerm(id, 4));
  const std::vector<TermId> q1{2, 9};
  const std::vector<TermId> q2{2, 4};
  EXPECT_TRUE(objects.ObjectHasAllTerms(id, q1));
  EXPECT_FALSE(objects.ObjectHasAllTerms(id, q2));
  EXPECT_EQ(objects.TotalTermOccurrences(), 3u);
}

class CcamPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CcamPropertyTest, AdjacencyRoundTripsThroughDisk) {
  NetworkGenConfig nc;
  nc.num_nodes = 500;
  nc.edge_node_ratio = 1.6;
  nc.seed = GetParam();
  auto net = GenerateRoadNetwork(nc);

  DiskManager disk;
  CcamFile file = CcamFileBuilder::Build(*net, &disk);
  EXPECT_GT(file.num_pages(), 1u);
  BufferPool pool(&disk, 64);
  CcamGraph graph(&file, &pool);

  std::vector<AdjacentEdge> got;
  for (NodeId v = 0; v < net->num_nodes(); ++v) {
    graph.GetAdjacency(v, &got);
    const auto want = net->Neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].neighbor, want[i].neighbor);
      EXPECT_EQ(got[i].edge, want[i].edge);
      EXPECT_DOUBLE_EQ(got[i].weight, want[i].weight);
    }
  }
}

TEST_P(CcamPropertyTest, ZOrderPackingKeepsSpatialLocality) {
  NetworkGenConfig nc;
  nc.num_nodes = 900;
  nc.edge_node_ratio = 1.4;
  nc.seed = GetParam();
  auto net = GenerateRoadNetwork(nc);
  DiskManager disk;
  CcamFile file = CcamFileBuilder::Build(*net, &disk);

  // Locality metric: fraction of edges whose endpoints share a page. With
  // Z-order packing this must be far above the random-placement baseline
  // (pages hold ~60+ nodes of ~900, so random co-location would be <10%).
  size_t co_located = 0;
  for (const Edge& e : net->edges()) {
    if (file.PageOfNode(e.n1) == file.PageOfNode(e.n2)) {
      ++co_located;
    }
  }
  const double frac =
      static_cast<double>(co_located) / static_cast<double>(net->num_edges());
  EXPECT_GT(frac, 0.35) << "CCAM locality collapsed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcamPropertyTest,
                         ::testing::Values(31, 32, 33));

class CcamPlacementTest : public ::testing::TestWithParam<uint64_t> {};

/// All three placement policies must serve identical adjacency data; the
/// connectivity ratio must order refined >= z-order >> random.
TEST_P(CcamPlacementTest, PoliciesAgreeOnDataAndOrderOnLocality) {
  NetworkGenConfig nc;
  nc.num_nodes = 800;
  nc.edge_node_ratio = 1.5;
  nc.seed = GetParam();
  auto net = GenerateRoadNetwork(nc);

  struct Variant {
    CcamPlacement placement;
    double ratio;
  };
  std::vector<Variant> variants = {{CcamPlacement::kRandom, 0},
                                   {CcamPlacement::kZOrder, 0},
                                   {CcamPlacement::kZOrderRefined, 0}};
  for (Variant& v : variants) {
    DiskManager disk;
    CcamFile file = CcamFileBuilder::Build(*net, &disk, v.placement);
    v.ratio = CcamConnectivityRatio(*net, file);
    BufferPool pool(&disk, 4096);
    CcamGraph graph(&file, &pool);
    std::vector<AdjacentEdge> got;
    for (NodeId n = 0; n < net->num_nodes(); n += 13) {
      graph.GetAdjacency(n, &got);
      const auto want = net->Neighbors(n);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].neighbor, want[i].neighbor);
        EXPECT_DOUBLE_EQ(got[i].weight, want[i].weight);
      }
    }
  }
  const double random = variants[0].ratio;
  const double zorder = variants[1].ratio;
  const double refined = variants[2].ratio;
  EXPECT_GT(zorder, 2.0 * random) << "Z-order lost its locality edge";
  EXPECT_GE(refined, zorder) << "refinement must not hurt locality";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcamPlacementTest,
                         ::testing::Values(41, 42, 43));

TEST(CcamTest, ChargesOnePageReadPerColdAccess) {
  NetworkGenConfig nc;
  nc.num_nodes = 400;
  nc.seed = 5;
  auto net = GenerateRoadNetwork(nc);
  DiskManager disk;
  CcamFile file = CcamFileBuilder::Build(*net, &disk);
  BufferPool pool(&disk, 128);
  CcamGraph graph(&file, &pool);
  disk.mutable_stats()->Reset();

  std::vector<AdjacentEdge> adj;
  graph.GetAdjacency(0, &adj);
  EXPECT_EQ(disk.stats().reads, 1u);
  graph.GetAdjacency(0, &adj);  // now cached
  EXPECT_EQ(disk.stats().reads, 1u);
}

}  // namespace
}  // namespace dsks
